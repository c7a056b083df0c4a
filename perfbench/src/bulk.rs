//! `bulk`: the paper's size ladder on case 1 (Denver depot) and case 2
//! (Houston depot), direct TCP and via the depot, driven through the
//! same calls `lsl_workloads::run_transfer` makes.

use std::time::Instant;

use lsl_netsim::Dur;
use lsl_obs::ObsReport;
use lsl_session::endpoint::{SendMode, SenderState};
use lsl_session::{BulkSender, Depot, DepotConfig, Hop, LslPath, SessionId, SinkServer};
use lsl_tcp::Net;
use lsl_workloads::{case1, case2, run_transfer, Mode, PathCase, RunConfig};

use crate::probe::{Layer, Probe};
use crate::report::Checks;
use crate::sim::{mix, retransmits, Fingerprint, Session, Tally};

const KIB: u64 = 1024;
const MIB: u64 = 1024 * KIB;
/// Sessions of this size or less are small: below the 8 MB send buffer.
const SMALL_MAX: u64 = 8 * MIB;
/// Sessions of this size or more are large: above it.
const LARGE_MIN: u64 = 16 * MIB;

/// One session of the fixed list.
#[derive(Clone, Copy, Debug)]
struct Op {
    case: usize,
    mode: Mode,
    size: u64,
    sim_seed: u64,
}

pub struct Bulk {
    cases: [PathCase; 2],
    /// Slowest link rate, bits/s, on each case's direct and via-depot
    /// path, read from the topology.
    bottleneck: [[u64; 2]; 2],
    /// One round: passes of sessions, run in order.
    passes: Vec<Vec<Op>>,
    /// The size of the latency sample's sessions (the smallest rung).
    latency_size: u64,
}

/// The simulator seed pool of the large sessions, fixed whatever the
/// run's `--seed`: one loss event in a 16–32 MiB session changes its
/// event count, and so its wall time, by up to 2x, so seeded large
/// sessions would measure the seed rather than the code.
const LARGE_SEED: u64 = 0x15_1ab5;

/// One round's passes, one per large session. Each pass runs every
/// rung up to 8 MiB once per case and mode on fresh seeds, the 32 KiB
/// rung `reps` times (its via-depot sessions are the latency sample,
/// enough of them that the p95 has ten beyond it), and one large
/// session in the middle: half the 32 KiB sessions and case 1's other
/// rungs before it, the rest after. The speed of the machine drifts
/// over seconds, so spreading each pass's small sessions around a large
/// one, and the passes over the whole round, lets their per-pass
/// medians sample the whole run rather than its first seconds.
fn ladder(seed: u64, smoke: bool) -> Vec<Vec<Op>> {
    let combos: Vec<(usize, Mode)> = [0, 1]
        .into_iter()
        .flat_map(|case| [Mode::Direct, Mode::ViaDepot].map(|mode| (case, mode)))
        .collect();
    let (small, reps): (&[u64], u32) = if smoke {
        (&[32 * KIB, 256 * KIB], 2)
    } else {
        (&[32 * KIB, 128 * KIB, 512 * KIB, 2 * MIB, 8 * MIB], 100)
    };
    // The smoke round's one large session keeps every per-layer ratio
    // of the large class defined.
    let large: Vec<(u64, usize, Mode)> = if smoke {
        vec![(16 * MIB, 0, Mode::Direct)]
    } else {
        [16 * MIB, 32 * MIB]
            .into_iter()
            .flat_map(|size| combos.iter().map(move |&(case, mode)| (size, case, mode)))
            .collect()
    };
    let mut n = 0u64;
    let mut small_op = |case, mode, size| {
        n += 1;
        Op {
            case,
            mode,
            size,
            sim_seed: mix(seed, n),
        }
    };
    let mut passes = Vec::new();
    for (i, &(size, case, mode)) in large.iter().enumerate() {
        let mut pass = Vec::new();
        for half in 0..2 {
            if half == 1 {
                pass.push(Op {
                    case,
                    mode,
                    size,
                    sim_seed: mix(LARGE_SEED, i as u64),
                });
            }
            for &(case, mode) in &combos {
                for _ in 0..reps / 2 {
                    pass.push(small_op(case, mode, small[0]));
                }
            }
            for &size in &small[1..] {
                for &(case, mode) in combos.iter().filter(|c| c.0 == half) {
                    pass.push(small_op(case, mode, size));
                }
            }
        }
        passes.push(pass);
    }
    passes
}

impl Op {
    fn config(&self) -> RunConfig {
        RunConfig::builder(self.size, self.mode)
            .seed(self.sim_seed)
            .build()
    }
}

fn mode_index(mode: Mode) -> usize {
    match mode {
        Mode::Direct => 0,
        Mode::ViaDepot => 1,
    }
}

/// Build the inputs and run one warm-up session, twice with the same
/// seed: its simulated duration must repeat exactly. The same session
/// through the public `run_transfer` must end at the same simulated
/// time, so the benchmark's copy of its run loop cannot drift from it.
pub fn setup(seed: u64, smoke: bool, checks: &mut Checks) -> Bulk {
    let cases = [case1(), case2()];
    let mut bottleneck = [[0u64; 2]; 2];
    for (i, case) in cases.iter().enumerate() {
        let sim = case.topo.into_sim(0);
        let rate = |a, b| sim.probe_path(a, b).map_or(0, |p| p.bandwidth_bps);
        bottleneck[i][0] = rate(case.src, case.dst);
        bottleneck[i][1] = rate(case.src, case.depot).min(rate(case.depot, case.dst));
    }
    let bulk = Bulk {
        cases,
        bottleneck,
        passes: ladder(seed, smoke),
        latency_size: 32 * KIB,
    };
    let warm = Op {
        case: 0,
        mode: Mode::ViaDepot,
        size: 512 * KIB,
        sim_seed: mix(seed, u64::MAX),
    };
    let mut probe = Probe::new(false, true);
    let mut tally = Tally::default();
    let a = bulk
        .session(warm, &mut probe, checks, &mut tally)
        .map(|r| r.1);
    let b = bulk
        .session(warm, &mut probe, checks, &mut tally)
        .map(|r| r.1);
    checks.check(a == b, || {
        format!(
            "bulk: seed {} repeated gave {a:?} then {b:?}",
            warm.sim_seed
        )
    });
    let public = run_transfer(&bulk.cases[warm.case], &warm.config());
    checks.check(
        a.map(|f| Dur(f.sim_ns).as_secs_f64()) == Some(public.duration_s)
            && public.digest_ok == Some(true),
        || {
            format!(
                "bulk: seed {} took {a:?} here but {} s, digest {:?} through run_transfer",
                warm.sim_seed, public.duration_s, public.digest_ok
            )
        },
    );
    bulk
}

impl Bulk {
    /// Run every large session of the round once, outside set-up and
    /// outside the timed rounds. The first large session of a process
    /// grows the heap to its peak (2.6 GB today), and the first round of
    /// a process ran 10–15% slower than the next one even after a
    /// warm-up of its largest session alone.
    pub fn warm(&self, checks: &mut Checks) {
        let mut tally = Tally::default();
        for &op in self.passes.iter().flatten() {
            if op.size >= LARGE_MIN {
                self.session(op, &mut Probe::new(false, false), checks, &mut tally);
            }
        }
    }

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
        for ops in &self.passes {
            for &op in ops {
                let (s, f) = self.session(op, probe, checks, tally).unzip();
                sessions.extend(s.map(|s| Session { pass: *pass, ..s }));
                prints.push(f.unwrap_or_default());
            }
            *pass += 1;
        }
    }

    fn session(
        &self,
        op: Op,
        probe: &mut Probe,
        checks: &mut Checks,
        tally: &mut Tally,
    ) -> Option<(Session, Fingerprint)> {
        let case = &self.cases[op.case];
        let cfg = op.config();
        checks.attempted += 1;

        let sender_ns = probe.ns(Layer::Sender);
        let t0 = Instant::now();
        let record = probe.obs;
        let mut run = || {
            let mut net = Net::new(case.topo.into_sim(cfg.seed));
            let mut depot = (cfg.mode == Mode::ViaDepot).then(|| {
                Depot::new(
                    &mut net,
                    case.depot,
                    DepotConfig {
                        port: cfg.depot_port,
                        relay_buf: cfg.relay_buf,
                        tcp: cfg.tcp.clone(),
                        setup_delay: cfg.depot_setup_delay,
                        trace_downstream: None,
                    },
                )
            });
            let mut sink = SinkServer::new(
                &mut net,
                case.dst,
                cfg.sink_port,
                cfg.mode == Mode::ViaDepot,
                cfg.tcp.clone(),
            );
            let (path, send_mode) = match cfg.mode {
                Mode::Direct => (
                    LslPath::direct(Hop::new(case.dst, cfg.sink_port)),
                    SendMode::DirectTcp,
                ),
                Mode::ViaDepot => (
                    LslPath::via(
                        vec![Hop::new(case.depot, cfg.depot_port)],
                        Hop::new(case.dst, cfg.sink_port),
                    ),
                    SendMode::lsl(),
                ),
            };
            let mut sender = BulkSender::start(
                &mut net,
                case.src,
                &path,
                SessionId(cfg.seed as u128 + 1),
                cfg.size,
                send_mode,
                cfg.tcp.clone(),
                None,
                None,
            );
            let (mut events, mut offers) = (0u64, 0u64);
            while let Some(ev) = probe.call(Layer::Poll, || net.poll()) {
                events += 1;
                offers += 1;
                if probe
                    .call(Layer::Sender, || sender.handle(&mut net, &ev))
                    .consumed()
                {
                    continue;
                }
                offers += 1;
                if probe
                    .call(Layer::Sink, || sink.handle(&mut net, &ev))
                    .consumed()
                {
                    continue;
                }
                if let Some(d) = &mut depot {
                    offers += 1;
                    let _ = probe.call(Layer::Depot, || d.handle(&mut net, &ev));
                }
            }
            (
                sender.state(),
                sink.take_outcomes(),
                sender.started_at,
                events,
                offers,
            )
        };
        let ((state, outcomes, started, events, offers), obs) = if record {
            lsl_obs::recorded(run)
        } else {
            (run(), ObsReport::default())
        };
        let wall_ns = t0.elapsed().as_nanos() as u64;

        let what = || {
            format!(
                "bulk {} {:?} {} B seed {}",
                case.name, op.mode, op.size, op.sim_seed
            )
        };
        let done = state == SenderState::Done && outcomes.len() == 1 && outcomes[0].ok();
        if !done {
            checks.failed += 1;
            eprintln!("{}: session failed: {state:?} {outcomes:?}", what());
            return None;
        }
        let out = &outcomes[0];
        let sim_ns = (out.completed_at - started).0;
        checks.check(out.bytes == op.size, || {
            format!("{}: sink holds {} bytes", what(), out.bytes)
        });
        checks.check(out.content_ok, || format!("{}: payload mismatch", what()));
        let want_digest = (op.mode == Mode::ViaDepot).then_some(true);
        checks.check(out.digest_ok == want_digest, || {
            format!("{}: digest {:?}", what(), out.digest_ok)
        });
        let limit = self.bottleneck[op.case][mode_index(op.mode)] as f64;
        let goodput = op.size as f64 * 8.0 * 1e9 / sim_ns.max(1) as f64;
        checks.check(goodput <= limit, || {
            format!(
                "{}: goodput {goodput:.0} b/s above the {limit} b/s path",
                what()
            )
        });

        let print = Fingerprint {
            sim_ns,
            retransmits: retransmits(&obs),
            certified: out.verified_blocks,
        };
        if op.size <= SMALL_MAX || op.size >= LARGE_MIN {
            let split = &mut tally.sender_split[usize::from(op.size >= LARGE_MIN)];
            split.0 += probe.ns(Layer::Sender) - sender_ns;
            split.1 += wall_ns;
        }
        tally.bytes += op.size;
        tally.events += events;
        tally.offers += offers;
        tally.retransmits += print.retransmits;
        tally.spans += obs.spans.len() as u64;
        Some((
            Session {
                bytes: op.size,
                wall_ns,
                clock_ns: sim_ns,
                pass: 0,
                latency: op.size == self.latency_size && op.mode == Mode::ViaDepot,
                large: op.size >= LARGE_MIN,
            },
            print,
        ))
    }
}
