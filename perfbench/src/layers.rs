//! Per-layer metrics of a traced pass, from the probe's call timings,
//! the allocation counts and the counters the program exposes.
//!
//! A workload yields only the layers its sessions reach; the traced run
//! fills the rest from the workloads that do reach them (see main.rs).

use crate::alloc;
use crate::loopback;
use crate::probe::{Layer, Probe};
use crate::report::Metrics;
use crate::sim::Tally;

const MIB: f64 = 1024.0 * 1024.0;

/// Layers of a simulated traced pass.
pub fn sim(probe: &Probe, t: &Tally) -> Metrics {
    let mib = t.bytes as f64 / MIB;
    let ms_per_mib = |l: Layer| probe.ns(l) as f64 / 1e6 / mib;
    let alloc_per_byte = |l: Layer| alloc::bytes(l) as f64 / t.bytes as f64;
    let per_mib = |n: u64| n as f64 / mib;

    let mut m = Metrics::new();
    m.insert(
        "netsim.poll_ms_per_mib",
        (ms_per_mib(Layer::Poll), "ms/MiB"),
    );
    m.insert("netsim.events_per_mib", (per_mib(t.events), "1/MiB"));
    m.insert(
        "netsim.ns_per_event",
        (probe.ns(Layer::Poll) as f64 / t.events as f64, "ns"),
    );
    for (layer, time, allocs) in [
        (
            Layer::Sender,
            "session.sender_ms_per_mib",
            "session.sender_alloc_mib_per_mib",
        ),
        (
            Layer::Sink,
            "session.sink_ms_per_mib",
            "session.sink_alloc_mib_per_mib",
        ),
        (
            Layer::Depot,
            "session.depot_ms_per_mib",
            "session.depot_alloc_mib_per_mib",
        ),
    ] {
        if probe.calls(layer) > 0 {
            m.insert(time, (ms_per_mib(layer), "ms/MiB"));
            m.insert(allocs, (alloc_per_byte(layer), "MiB/MiB"));
        }
    }
    if probe.calls(Layer::Sender) > 0 {
        let share = |(sender_ns, wall_ns): (u64, u64)| sender_ns as f64 / wall_ns as f64;
        m.insert(
            "session.sender_share_small",
            (share(t.sender_split[0]), "ratio"),
        );
        m.insert(
            "session.sender_share_large",
            (share(t.sender_split[1]), "ratio"),
        );
    }
    if probe.calls(Layer::Client) > 0 {
        m.insert(
            "session.client_ms_per_mib",
            (ms_per_mib(Layer::Client), "ms/MiB"),
        );
        m.insert(
            "stripe.dispatched_per_certified",
            (t.dispatched as f64 / t.certified as f64, "ratio"),
        );
        m.insert("sink.dup_blocks_per_mib", (per_mib(t.dup_blocks), "1/MiB"));
        let n = t.rebalance_ns.len().max(1) as f64;
        m.insert(
            "stripe.rebalance_sim_ms",
            (
                t.rebalance_ns.iter().sum::<u64>() as f64 / 1e6 / n,
                "sim_ms",
            ),
        );
    }
    m.insert("obs.spans_per_mib", (per_mib(t.spans), "1/MiB"));
    m.insert("tcp.retransmits_per_mib", (per_mib(t.retransmits), "1/MiB"));
    m.insert(
        "workloads.offers_per_event",
        (t.offers as f64 / t.events as f64, "ratio"),
    );
    m
}

/// Layers of a loopback pass.
pub fn realnet(t: &loopback::Tally) -> Metrics {
    let n = t.sessions as f64;
    let mib = t.bytes as f64 / MIB;
    let mut m = Metrics::new();
    m.insert("realnet.connect_ms", (t.connect_ns as f64 / 1e6 / n, "ms"));
    m.insert("realnet.accept_ms", (t.accept_ns as f64 / 1e6 / n, "ms"));
    m.insert(
        "realnet.write_ms_per_mib",
        (t.write_ns as f64 / 1e6 / mib, "ms/MiB"),
    );
    m.insert(
        "realnet.read_ms_per_mib",
        (t.read_ns as f64 / 1e6 / mib, "ms/MiB"),
    );
    m.insert(
        "realnet.relayed_bytes_per_session",
        (t.relayed as f64 / n, "B"),
    );
    m
}
