//! Timing of the calls the benchmark makes into each layer's public
//! functions. The untraced run goes through the same [`Probe::call`]
//! wrappers; only the clock reads and the allocation tags are skipped.

use std::time::Instant;

use crate::alloc;

/// The layer a timed call enters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    /// Not inside any timed call.
    None = 0,
    /// `Net::poll`: the netsim event engine plus the TCP stacks.
    Poll,
    /// `BulkSender::handle`: the sender pump.
    Sender,
    /// `SinkServer::handle`: the verifying sink.
    Sink,
    /// `Depot::handle`: the simulated `lsd` relay.
    Depot,
    /// `StripedSession::handle` / `on_outcome`: the stripe dispatcher.
    Client,
}

pub const LAYERS: usize = 6;

/// Per-layer busy time and call counts for one run.
pub struct Probe {
    traced: bool,
    /// Whether `bulk` sessions run under the `lsl_obs` recorder, which
    /// the traced run needs for retransmission counts. `run_transfer`
    /// does not record, so the measured run does not either.
    /// (`stripe_kill` always records, as `run_striped_storm` does.)
    pub obs: bool,
    ns: [u64; LAYERS],
    calls: [u64; LAYERS],
}

impl Probe {
    pub fn new(traced: bool, obs: bool) -> Probe {
        Probe {
            traced,
            obs,
            ns: [0; LAYERS],
            calls: [0; LAYERS],
        }
    }

    /// Run `f` as a call into `layer`.
    #[inline(always)]
    pub fn call<T>(&mut self, layer: Layer, f: impl FnOnce() -> T) -> T {
        self.calls[layer as usize] += 1;
        if !self.traced {
            return f();
        }
        let prev = alloc::enter(layer);
        let t0 = Instant::now();
        let r = f();
        self.ns[layer as usize] += t0.elapsed().as_nanos() as u64;
        alloc::leave(prev);
        r
    }

    /// Busy nanoseconds inside `layer` (0 when untraced).
    pub fn ns(&self, layer: Layer) -> u64 {
        self.ns[layer as usize]
    }

    /// Calls made into `layer`.
    pub fn calls(&self, layer: Layer) -> u64 {
        self.calls[layer as usize]
    }
}
