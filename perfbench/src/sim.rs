//! What the simulated workloads record per session, and the checks they
//! share.

use lsl_obs::ObsReport;

/// One finished session, as the metrics see it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Session {
    /// Payload bytes delivered (certified, for striped sessions).
    pub bytes: u64,
    /// Wall time of the session, nanoseconds.
    pub wall_ns: u64,
    /// Session time on the session's own clock: simulated nanoseconds
    /// for simulated sessions, wall nanoseconds on loopback.
    pub clock_ns: u64,
    /// The pass of the round the session ran in; per-class metrics are
    /// medians over passes.
    pub pass: u32,
    /// Part of the latency sample (`session_ms_p50`/`_p95`).
    pub latency: bool,
    /// In the workload's large class (`large_ms_per_mib`,
    /// `relay_mib_per_s`); otherwise in its small class
    /// (`small_ms_per_mib`).
    pub large: bool,
}

/// The deterministic facts of one simulated session that a traced run
/// must reproduce bit for bit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Fingerprint {
    pub sim_ns: u64,
    pub retransmits: u64,
    pub certified: u64,
}

/// TCP retransmissions of every kind the stack counted in `obs`.
pub fn retransmits(obs: &ObsReport) -> u64 {
    [
        "tcp.retransmit.rto",
        "tcp.retransmit.fast",
        "tcp.retransmit.hole",
    ]
    .iter()
    .map(|name| obs.metrics.counter(name, 0))
    .sum()
}

/// SplitMix64: the benchmark's seed mixer. Every input a workload
/// builds comes from `mix(seed, index)`, so one `--seed` fixes them all.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_add(1).wrapping_mul(0xbf58_476d_1ce4_e5b9));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Layer-level totals a simulated workload accumulates over its traced
/// sessions; see [`crate::layers`].
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Payload bytes delivered.
    pub bytes: u64,
    /// Events `Net::poll` returned.
    pub events: u64,
    /// `handle` calls the run loop made (each event is offered to
    /// client, sink and each depot in turn until one consumes it).
    pub offers: u64,
    pub retransmits: u64,
    /// Spans the obs recorder logged.
    pub spans: u64,
    /// Blocks the stripe dispatcher handed to lanes.
    pub dispatched: u64,
    /// Blocks the sink certified.
    pub certified: u64,
    /// Duplicate block deliveries the sink discarded.
    pub dup_blocks: u64,
    /// Simulated nanoseconds from each depot kill to the event that
    /// moved the lost lane's work onto another route.
    pub rebalance_ns: Vec<u64>,
    /// `BulkSender::handle` nanoseconds and session wall nanoseconds of
    /// the small (index 0) and large (index 1) bulk sessions.
    pub sender_split: [(u64, u64); 2],
}
