//! Result bookkeeping: correctness checks, session counts, metrics, and
//! the one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::sim::Session;

const MIB: f64 = 1024.0 * 1024.0;

/// Every check a run makes, plus the sessions it attempted and lost.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Checks {
    /// Record a check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            if self.errors.len() < 20 {
                eprintln!("check failed: {msg}");
            }
            self.errors.push(msg);
        }
    }

    /// Fold another run's checks and counts into these.
    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
    }

    pub fn correct(&self) -> bool {
        self.errors.is_empty()
    }
}

/// Metric name → (value, unit), in name order.
pub type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

/// The last line of a run's standard output.
pub fn result_json(checks: &Checks, metrics: &Metrics) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        checks.correct(),
        checks.attempted,
        checks.failed
    );
    for (i, (name, (value, unit))) in metrics.iter().enumerate() {
        // JSON has no NaN; `finite` has already failed the run.
        let v = if value.is_finite() {
            format!("{value:?}")
        } else {
            "null".into()
        };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

/// Every metric must be a number: an undefined ratio (no sessions of
/// its class) fails the run rather than print as a measurement.
pub fn finite(checks: &mut Checks, metrics: &Metrics) {
    for (name, (value, _)) in metrics {
        checks.check(value.is_finite(), || format!("metric {name} is {value}"));
    }
}

/// Median of `v` (which it sorts).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` of `v` (which it sorts).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Peak resident memory of this process, MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn ms_per_mib<'a>(sessions: impl Iterator<Item = &'a Session>) -> Option<f64> {
    let (bytes, ns) = sessions.fold((0u64, 0u64), |(b, n), s| (b + s.bytes, n + s.wall_ns));
    (bytes > 0).then(|| ns as f64 / 1e6 / (bytes as f64 / MIB))
}

/// Median over passes of `f` applied to each pass's sessions, skipping
/// passes where `f` has nothing to measure (NaN when none has).
fn over_passes(sessions: &[Session], f: impl Fn(&[Session]) -> Option<f64>) -> f64 {
    let mut values: Vec<f64> = sessions
        .chunk_by(|a, b| a.pass == b.pass)
        .filter_map(&f)
        .collect();
    if values.is_empty() {
        return f64::NAN;
    }
    median(&mut values)
}

/// The end-to-end metrics, from every session the run timed. The small
/// class and the latency sample, of which every pass holds many
/// sessions, are medians over passes, so a burst of load from outside
/// the benchmark moves one pass, not the figure. The large class, one
/// or a few sessions of mixed sizes per pass, is the total over the
/// run.
pub fn end_to_end(sessions: &[Session], setup_s: f64) -> Metrics {
    let small = |p: &[Session]| ms_per_mib(p.iter().filter(|s| !s.large));
    let large = ms_per_mib(sessions.iter().filter(|s| s.large)).unwrap_or(f64::NAN);
    let latency = |q: f64| {
        move |p: &[Session]| {
            let mut ms: Vec<f64> = p
                .iter()
                .filter(|s| s.latency)
                .map(|s| s.wall_ns as f64 / 1e6)
                .collect();
            (!ms.is_empty()).then(|| quantile(&mut ms, q))
        }
    };
    let bytes: u64 = sessions.iter().map(|s| s.bytes).sum();
    let clock_ns: u64 = sessions.iter().map(|s| s.clock_ns).sum();

    let mut m = Metrics::new();
    m.insert("setup_s", (setup_s, "s"));
    m.insert("small_ms_per_mib", (over_passes(sessions, small), "ms/MiB"));
    m.insert("large_ms_per_mib", (large, "ms/MiB"));
    m.insert(
        "wall_ms_per_mib",
        (ms_per_mib(sessions.iter()).unwrap_or(f64::NAN), "ms/MiB"),
    );
    m.insert(
        "sim_goodput_mbps",
        (bytes as f64 * 8.0 * 1e3 / clock_ns as f64, "Mbit/s"),
    );
    m.insert("relay_mib_per_s", (1e3 / large, "MiB/s"));
    m.insert(
        "session_ms_p50",
        (over_passes(sessions, latency(0.50)), "ms"),
    );
    m.insert(
        "session_ms_p95",
        (over_passes(sessions, latency(0.95)), "ms"),
    );
    m.insert("peak_rss_mib", (peak_rss_mib(), "MiB"));
    m
}
