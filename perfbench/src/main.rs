//! The LSL benchmark: end-to-end metrics of three workloads, and a
//! traced run that times the calls into each layer.
//!
//! ```text
//! perfbench --workload bulk|stripe_kill|loopback --seed N --seconds S --trace 0|1
//! perfbench --smoke
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. See README.md for
//! the workloads, the metrics and what each per-layer metric should
//! move.

mod affinity;
mod alloc;
mod bulk;
mod kernels;
mod layers;
mod loopback;
mod probe;
mod report;
mod sim;
mod stripe;

use std::process::ExitCode;
use std::time::Instant;

use probe::Probe;
use report::{end_to_end, finite, median, result_json, Checks, Metrics};
use sim::{Fingerprint, Session, Tally};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// How many times a run builds its set-up; `setup_s` is the median.
const SETUPS: usize = 9;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Bulk,
    StripeKill,
    Loopback,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "bulk" => Some(Workload::Bulk),
            "stripe_kill" => Some(Workload::StripeKill),
            "loopback" => Some(Workload::Loopback),
            _ => None,
        }
    }
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_none() && !args.smoke {
        return Err("--workload or --smoke is required".into());
    }
    Ok(args)
}

/// A workload's inputs, built once per set-up.
enum Setup {
    Bulk(bulk::Bulk),
    Stripe(stripe::Stripe),
    Loopback(loopback::Loopback),
}

fn setup(w: Workload, seed: u64, smoke: bool, checks: &mut Checks) -> Setup {
    match w {
        Workload::Bulk => Setup::Bulk(bulk::setup(seed, smoke, checks)),
        Workload::StripeKill => Setup::Stripe(stripe::setup(seed, smoke, checks)),
        Workload::Loopback => match loopback::setup(seed, smoke, checks) {
            Ok(lb) => Setup::Loopback(lb),
            Err(e) => {
                eprintln!("perfbench: loopback set-up failed: {e}");
                std::process::exit(1);
            }
        },
    }
}

/// What one or more rounds recorded.
#[derive(Default)]
struct Rounds {
    sessions: Vec<Session>,
    prints: Vec<Fingerprint>,
    tally: Tally,
    loopback: loopback::Tally,
    /// Passes run so far.
    pass: u32,
}

fn round(s: &Setup, probe: &mut Probe, checks: &mut Checks, out: &mut Rounds) {
    match s {
        Setup::Bulk(b) => b.round(
            probe,
            checks,
            &mut out.sessions,
            &mut out.prints,
            &mut out.tally,
            &mut out.pass,
        ),
        Setup::Stripe(st) => st.round(
            probe,
            checks,
            &mut out.sessions,
            &mut out.prints,
            &mut out.tally,
            &mut out.pass,
        ),
        Setup::Loopback(lb) => {
            lb.round(checks, &mut out.sessions, &mut out.loopback, &mut out.pass)
        }
    }
}

/// Build the set-up `SETUPS` times; returns the last and the median
/// seconds one took.
fn timed_setup(w: Workload, seed: u64, smoke: bool, checks: &mut Checks) -> (Setup, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let s = setup(w, seed, smoke, checks);
        times.push(t0.elapsed().as_secs_f64());
        last = Some(s);
    }
    (last.expect("SETUPS > 0"), median(&mut times))
}

/// The measured run: whole rounds of the fixed session list until
/// `seconds` have passed (at least one; a `bulk` round is longer than
/// the run length of BENCHMARK.json, so a measured `bulk` run is one
/// round).
fn measure(w: Workload, seed: u64, seconds: f64) -> (Checks, Metrics) {
    let mut checks = Checks::default();
    let (s, setup_s) = timed_setup(w, seed, false, &mut checks);
    if let Setup::Bulk(b) = &s {
        b.warm(&mut checks);
    }
    let mut out = Rounds::default();
    let mut probe = Probe::new(false, false);
    let t0 = Instant::now();
    loop {
        round(&s, &mut probe, &mut checks, &mut out);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    (checks, end_to_end(&out.sessions, setup_s))
}

/// One untraced round, then the same round traced. The traced round
/// must reproduce every simulated session bit for bit; returns its
/// per-layer metrics.
fn traced_pass(w: Workload, seed: u64, smoke: bool, checks: &mut Checks) -> Metrics {
    let s = setup(w, seed, smoke, checks);
    if let Setup::Bulk(b) = &s {
        b.warm(checks);
    }
    let mut plain = Rounds::default();
    let t0 = Instant::now();
    round(&s, &mut Probe::new(false, true), checks, &mut plain);
    let plain_s = t0.elapsed().as_secs_f64();

    let mut traced = Rounds::default();
    let mut probe = Probe::new(true, true);
    alloc::reset();
    alloc::set_counting(true);
    let t0 = Instant::now();
    round(&s, &mut probe, checks, &mut traced);
    let traced_s = t0.elapsed().as_secs_f64();
    alloc::set_counting(false);

    checks.check(plain.prints == traced.prints, || {
        let diff = plain
            .prints
            .iter()
            .zip(&traced.prints)
            .position(|(a, b)| a != b);
        format!(
            "{w:?}: traced round diverged from the untraced one at session {diff:?} \
             ({} vs {} sessions)",
            plain.prints.len(),
            traced.prints.len()
        )
    });
    eprintln!(
        "{w:?}: untraced round {plain_s:.3} s, traced {traced_s:.3} s ({:+.1}% tracing overhead)",
        (traced_s / plain_s - 1.0) * 100.0
    );
    match w {
        Workload::Loopback => layers::realnet(&traced.loopback),
        _ => layers::sim(&probe, &traced.tally),
    }
}

const ALL: [Workload; 3] = [Workload::Bulk, Workload::StripeKill, Workload::Loopback];

/// The traced run: `w`'s per-layer metrics, the layers `w` does not
/// reach taken from the smallest round of the workloads that do, and
/// the kernel probes. Every traced run prints every per-layer metric
/// that BENCHMARK.json lists, whichever workload it runs, so the layers
/// `w` does not reach are filled rather than left out.
fn trace(w: Workload, seed: u64, smoke: bool) -> (Checks, Metrics) {
    let mut checks = Checks::default();
    let mut m = traced_pass(w, seed, smoke, &mut checks);
    for other in ALL.into_iter().filter(|&o| o != w) {
        for (k, v) in traced_pass(other, seed, true, &mut checks) {
            m.entry(k).or_insert(v);
        }
    }
    kernels::verify(&mut checks);
    kernels::probe(&mut checks, smoke, &mut m);
    (checks, m)
}

/// Every workload at its smallest sizes, untraced then traced, with
/// every output check on. One result line per workload; the last line
/// sums them.
fn smoke(seed: u64) -> Checks {
    let mut all = Checks::default();
    for w in ALL {
        let mut checks = Checks::default();
        let (s, setup_s) = timed_setup(w, seed, true, &mut checks);
        let mut out = Rounds::default();
        round(&s, &mut Probe::new(false, false), &mut checks, &mut out);
        drop(s);
        let mut m = end_to_end(&out.sessions, setup_s);
        let (trace_checks, layers) = trace(w, seed, true);
        m.extend(layers);
        checks.merge(trace_checks);
        finite(&mut checks, &m);
        println!("{w:?} {}", result_json(&checks, &m));
        all.merge(checks);
    }
    all
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut checks, metrics) = match args.workload {
        _ if args.smoke => (smoke(args.seed), Metrics::new()),
        Some(w) if args.trace => trace(w, args.seed, false),
        Some(w) => measure(w, args.seed, args.seconds),
        None => unreachable!("checked in parse_args"),
    };
    finite(&mut checks, &metrics);
    println!("{}", result_json(&checks, &metrics));
    if checks.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
