//! The asynchronous event-driven scheduler.
//!
//! The follow-up to the PODC 2017 paper ("Asynchronous Gossip in
//! Smartphone Peer-to-Peer Networks", Newport, Weaver & Zheng 2021)
//! drops the synchronized-round assumption: real smartphone meshes have
//! per-device clock drift, advertisement refreshes on OS-controlled
//! timers, and connections whose setup and transfer take variable time.
//! [`AsyncScheduler`] models that world with event queues over integer
//! virtual time ([`SimTime`](gossip_core::SimTime)):
//!
//! - every node runs an **act cycle** on its own drifted clock: refresh
//!   the advertisement, scan the *current* (possibly stale) tags of its
//!   neighbors, and commit an [`Intent`](gossip_core::Intent) through the
//!   unchanged [`GossipProtocol`](gossip_protocols::GossipProtocol) trait;
//! - a `Propose(v)` intent schedules a connection **attempt** that
//!   arrives at `v` after a sampled latency; the attempt resolves
//!   *incrementally* against `v`'s state at arrival time via
//!   [`IncrementalMatcher`](gossip_core::IncrementalMatcher) — there is
//!   no global matching batch;
//! - a formed connection holds both endpoints busy for a sampled
//!   transfer latency, then the push-pull union fires and both return to
//!   their act cycles.
//!
//! Everything — drift factors, refresh jitter, latencies, protocol coin
//! flips — is drawn from seeded [`Rng`](gossip_core::Rng) streams, and
//! events are ordered by `(time, sequence-number)`, so runs are exactly
//! reproducible from the seed.
//!
//! The engine itself is the time-sliced sharded loop in [`crate::sliced`],
//! byte-identical at any thread count.

use crate::scheduler::{EngineTimings, RunInputs, Scheduler};
use crate::SimResult;

use gossip_core::time::TimingConfig;
use gossip_telemetry::Probe;

/// Event-driven scheduler for the asynchronous mobile telephone model.
///
/// `config.max_rounds` is interpreted as a virtual-time cap of
/// `max_rounds ×` [`TICKS_PER_ROUND`](gossip_core::time::TICKS_PER_ROUND)
/// ticks, so the same [`SimConfig`](crate::SimConfig) bounds both
/// schedulers comparably. Reported `rounds_executed` /
/// `rounds_to_completion` are round *equivalents* of the virtual time
/// (see [`SimTime::round_equivalent`](gossip_core::SimTime::round_equivalent));
/// with `record_rounds` set, one [`RoundStats`](crate::RoundStats) entry
/// is recorded per elapsed round-sized epoch, and a connection is counted
/// in the epoch in which its transfer completes.
#[derive(Clone, Copy, Debug)]
pub struct AsyncScheduler {
    /// Drift, refresh-jitter, and latency distributions for the run.
    pub timing: TimingConfig,
    /// Worker threads for the time-sliced event loop. The slice/region
    /// partition is a fixed constant, so results are byte-identical at
    /// any value; `0` is normalized to 1.
    pub threads: usize,
}

impl Default for AsyncScheduler {
    fn default() -> Self {
        AsyncScheduler {
            timing: TimingConfig::default(),
            threads: 1,
        }
    }
}

impl AsyncScheduler {
    /// An async scheduler with default timing and `threads` workers
    /// (`0` is treated as 1).
    pub fn with_threads(threads: usize) -> Self {
        AsyncScheduler {
            timing: TimingConfig::default(),
            threads: threads.max(1),
        }
    }
}

impl Scheduler for AsyncScheduler {
    fn name(&self) -> &'static str {
        "async"
    }

    /// The time-sliced event loop (the `sliced` module), with its
    /// per-phase clocks.
    fn run_timed(
        &self,
        inputs: &RunInputs<'_>,
        probe: &mut dyn Probe,
    ) -> (SimResult, EngineTimings) {
        crate::sliced::run_sliced(self, inputs, probe)
    }
}
