//! `stripe_kill`: striped three-cascade sessions on `striped_case()`,
//! each of which permanently loses one depot mid-transfer, driven
//! through the same calls `lsl_workloads::run_striped_storm` makes
//! (obs recorder on), with no random background storm.

use std::time::Instant;

use lsl_netsim::{Dur, StormAtom, StormPlan, Time};
use lsl_session::{
    stream_blocks, ClientState, Depot, DepotConfig, SessionEvent, SessionId, SinkServer,
    StripedSession, TransferOutcome,
};
use lsl_tcp::Net;
use lsl_workloads::{
    run_striped_storm, striped_case, FaultRunConfig, StripedCase, StripedChaosConfig,
};

use crate::probe::{Layer, Probe};
use crate::report::Checks;
use crate::sim::{mix, retransmits, Fingerprint, Session, Tally};

const MIB: u64 = 1024 * 1024;
const DEPOT_PORT: u16 = 7001;
const SINK_PORT: u16 = 5001;

/// One session of the fixed list.
#[derive(Clone, Copy, Debug)]
struct Op {
    size: u64,
    sim_seed: u64,
    /// Index of the depot this session kills.
    victim: usize,
    kill_at: Dur,
}

pub struct Stripe {
    case: StripedCase,
    /// Sizes of the latency sample and of the large class.
    latency_size: u64,
    large_size: u64,
    /// Slowest link rate on the source→sink path (the access link).
    access_bps: u64,
    ops: Vec<Op>,
}

/// Session sizes of one round. Each size runs once per depot, so every
/// round kills each depot equally often whatever the seed. The first
/// size is the latency sample; the last is the large class.
fn sizes(smoke: bool) -> Vec<u64> {
    if smoke {
        vec![4 * MIB, 8 * MIB]
    } else {
        vec![4 * MIB, 4 * MIB, 16 * MIB]
    }
}

/// The seed of every session's simulator, fixed whatever the run's
/// `--seed`. A striped session that loses one of its three depots fails
/// now and then (simulator seed 6230055630797000076, a 4 MiB session
/// killing depot 1 at 120 ms, ends `RetransfersExhausted` with 63 of 64
/// blocks certified; 1 of 300 seeded sessions), and a run must fail the
/// same share of sessions on every seed. With these simulator seeds,
/// every session of the list (and of the smoke list) completes at each
/// of the eight kill times.
const STRIPE_SEED: u64 = 101;

/// The kill lands 40–180 ms into the session, at a time `--seed`
/// chooses: after the stripe grants, while blocks are in flight on
/// every lane.
fn op(seed: u64, index: u64, size: u64, victim: usize) -> Op {
    Op {
        size,
        sim_seed: mix(STRIPE_SEED, index),
        victim,
        kill_at: Dur::from_millis(40 + (mix(seed, index) % 8) * 20),
    }
}

/// Build the inputs and run one warm-up session. The same session
/// through the public `run_striped_storm` must end at the same
/// simulated time with the same retransmissions and certified blocks,
/// so the benchmark's copy of its run loop cannot drift from it.
pub fn setup(seed: u64, smoke: bool, checks: &mut Checks) -> Stripe {
    let case = striped_case();
    let sim = case.topo.into_sim(0);
    let access_bps = sim
        .probe_path(case.src, case.dst)
        .map_or(0, |p| p.bandwidth_bps);
    let sizes = sizes(smoke);
    let mut ops = Vec::new();
    for &size in &sizes {
        for victim in 0..3 {
            ops.push(op(seed, ops.len() as u64, size, victim));
        }
    }
    let stripe = Stripe {
        case,
        latency_size: sizes[0],
        large_size: sizes[sizes.len() - 1],
        access_bps,
        ops,
    };
    // The warm-up kills depot 2.
    let warm = op(seed, u64::MAX, 4 * MIB, 2);
    let here = stripe
        .session(
            warm,
            &mut Probe::new(false, true),
            checks,
            &mut Tally::default(),
        )
        .map(|r| r.1);
    let public = run_striped_storm(&stripe.case, &warm.config(), warm.storm(&stripe.case));
    let same = here.is_some_and(|f| {
        Dur(f.sim_ns).as_secs_f64() == public.duration_s
            && f.retransmits == retransmits(&public.obs)
            && f.certified == public.certified
    });
    checks.check(same, || {
        format!(
            "stripe_kill: seed {} gave {here:?} here but {} s, {} retransmits, {} blocks \
             through run_striped_storm",
            warm.sim_seed,
            public.duration_s,
            retransmits(&public.obs),
            public.certified
        )
    });
    stripe
}

impl Op {
    fn config(&self) -> StripedChaosConfig {
        StripedChaosConfig {
            size: self.size,
            ..StripedChaosConfig::default()
        }
    }

    /// No background storm: only the permanent kill of the victim.
    fn storm(&self, case: &StripedCase) -> StormPlan {
        StormPlan {
            seed: self.sim_seed,
            atoms: vec![StormAtom::NodeCrash {
                node: case.depots[self.victim],
                at: self.kill_at,
                downtime: None,
            }],
        }
    }
}

impl Stripe {
    /// One round: every session of the fixed list, one at a time.
    pub fn round(
        &self,
        probe: &mut Probe,
        checks: &mut Checks,
        sessions: &mut Vec<Session>,
        prints: &mut Vec<Fingerprint>,
        tally: &mut Tally,
        pass: &mut u32,
    ) {
        for &op in &self.ops {
            if let Some((s, f)) = self.session(op, probe, checks, tally) {
                sessions.push(Session { pass: *pass, ..s });
                prints.push(f);
            } else {
                prints.push(Fingerprint::default());
            }
        }
        *pass += 1;
    }

    fn session(
        &self,
        op: Op,
        probe: &mut Probe,
        checks: &mut Checks,
        tally: &mut Tally,
    ) -> Option<(Session, Fingerprint)> {
        let case = &self.case;
        let cfg = op.config();
        let storm = op.storm(case);
        let run_cfg = FaultRunConfig::new(op.size, storm.seed, storm.to_fault_plan());
        checks.attempted += 1;

        let t0 = Instant::now();
        let (r, obs) = lsl_obs::recorded(|| {
            let mut sim = case.topo.into_sim(run_cfg.seed);
            sim.install_faults(run_cfg.plan.clone());
            let mut net = Net::new(sim);
            let depot_cfg = DepotConfig::builder()
                .port(DEPOT_PORT)
                .tcp(run_cfg.tcp.clone())
                .setup_delay(Dur::from_millis(5))
                .build();
            let mut depots: Vec<Depot> = case
                .depots
                .iter()
                .map(|&d| Depot::new(&mut net, d, depot_cfg.clone()))
                .collect();
            let mut sink =
                SinkServer::new(&mut net, case.dst, SINK_PORT, true, run_cfg.tcp.clone());
            if let Some(d) = run_cfg.sink_idle {
                sink = sink.with_idle_timeout(d);
            }
            let mut client = StripedSession::start(
                &mut net,
                case.src,
                case.plan(),
                SessionId(0x57a1_0000 + run_cfg.seed as u128),
                run_cfg.size,
                run_cfg.tcp.clone(),
                cfg.stripe.clone(),
                None,
            );
            let deadline = Time::ZERO + cfg.time_bound;
            let mut outcomes: Vec<TransferOutcome> = Vec::new();
            let (mut events, mut offers) = (0u64, 0u64);
            while let Some(ev) = probe.call(Layer::Poll, || net.poll()) {
                events += 1;
                if net.now() > deadline || events > cfg.max_events {
                    break;
                }
                offers += 1;
                let mut consumed = probe
                    .call(Layer::Client, || client.handle(&mut net, &ev))
                    .consumed();
                if !consumed {
                    offers += 1;
                    consumed = probe
                        .call(Layer::Sink, || sink.handle(&mut net, &ev))
                        .consumed();
                }
                if !consumed {
                    for d in &mut depots {
                        offers += 1;
                        if probe
                            .call(Layer::Depot, || d.handle(&mut net, &ev))
                            .consumed()
                        {
                            break;
                        }
                    }
                }
                for o in sink.take_outcomes() {
                    if o.session == Some(client.session()) {
                        probe.call(Layer::Client, || client.on_outcome(&mut net, &o));
                    }
                    outcomes.push(o);
                }
                if client.is_done() {
                    break;
                }
            }
            let session = client.session();
            Run {
                state: client.state(),
                sim_ns: (client.finished_at().unwrap_or_else(|| net.now()) - client.started_at()).0,
                lanes: client
                    .lane_stats()
                    .iter()
                    .map(|l| l.blocks_dispatched)
                    .collect(),
                timeline: client.take_events(),
                outcomes,
                certified: sink.session_certified(session),
                duplicates: sink.duplicate_blocks(session),
                regrants: sink.stripe_regrants(),
                events,
                offers,
            }
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;

        let what = || {
            format!(
                "stripe_kill {} B seed {} kills depot {}",
                op.size, op.sim_seed, op.victim
            )
        };
        if r.state != ClientState::Done {
            checks.failed += 1;
            eprintln!("{}: session ended {:?}", what(), r.state);
            return None;
        }
        let expected = stream_blocks(op.size);
        checks.check(r.certified == expected, || {
            format!("{}: certified {} of {expected} blocks", what(), r.certified)
        });
        checks.check(r.regrants == 0, || {
            format!("{}: {} grants re-sent a verified block", what(), r.regrants)
        });
        checks.check(
            r.outcomes
                .iter()
                .any(|o| o.ok() && o.digest_ok == Some(true)),
            || format!("{}: no digest-verified delivery", what()),
        );
        checks.check(r.lanes.len() == 3, || {
            format!("{}: striped over {} cascades", what(), r.lanes.len())
        });
        // The kill must bite mid-transfer: some lane saw its sublink go
        // down. (The victim lane usually fails over to another route,
        // but when the kill lands after it handed its whole chunk to the
        // socket, only the sink's idle watchdog notices, seconds later,
        // and the other lanes may finish the stream first.)
        checks.check(
            r.timeline
                .iter()
                .any(|(_, e)| matches!(e, SessionEvent::SublinkDown(_))),
            || format!("{}: the kill never bit: {:?}", what(), r.timeline),
        );
        let goodput = op.size as f64 * 8.0 * 1e9 / r.sim_ns.max(1) as f64;
        checks.check(goodput < self.access_bps as f64, || {
            format!(
                "{}: goodput {goodput:.0} b/s not under the {} b/s access link",
                what(),
                self.access_bps
            )
        });

        let print = Fingerprint {
            sim_ns: r.sim_ns,
            retransmits: retransmits(&obs),
            certified: r.certified,
        };
        tally.bytes += op.size;
        tally.events += r.events;
        tally.offers += r.offers;
        tally.retransmits += print.retransmits;
        tally.spans += obs.spans.len() as u64;
        tally.dispatched += r.lanes.iter().sum::<u64>();
        tally.certified += r.certified;
        tally.dup_blocks += r.duplicates;
        // Recovery latency: from the kill to the first event that moves
        // the lost lane's work onto another route.
        let kill = Time::ZERO + op.kill_at;
        if let Some((t, _)) = r.timeline.iter().find(|(t, e)| {
            *t >= kill
                && matches!(
                    e,
                    SessionEvent::FailedOver { .. }
                        | SessionEvent::Degraded
                        | SessionEvent::StripeRebalanced { .. }
                )
        }) {
            tally.rebalance_ns.push((*t - kill).0);
        }
        Some((
            Session {
                bytes: op.size,
                wall_ns,
                clock_ns: r.sim_ns,
                pass: 0,
                latency: op.size == self.latency_size,
                large: op.size == self.large_size,
            },
            print,
        ))
    }
}

/// What one striped session left behind.
struct Run {
    state: ClientState,
    sim_ns: u64,
    /// Per lane: blocks dispatched.
    lanes: Vec<u64>,
    timeline: Vec<(Time, SessionEvent)>,
    outcomes: Vec<TransferOutcome>,
    certified: u64,
    duplicates: u64,
    regrants: u64,
    events: u64,
    offers: u64,
}
