//! Deterministic simulation engines for gossip in the mobile telephone
//! model, chosen by the [`Scheduler`] enum.
//!
//! Its two variants drive either [`gossip_protocols::Protocol`] over any
//! [`Topology`](gossip_core::Topology), calling the protocol through a
//! `match` inside their node loops, not through a vtable:
//!
//! - [`Scheduler::Sync`] — the PODC 2017 round structure: globally
//!   synchronized advertise → scan → connect → transfer rounds with batch
//!   connection resolution.
//! - [`Scheduler::Async`] — the asynchronous variant (Newport, Weaver &
//!   Zheng 2021): per-node clock drift, randomized advertisement refresh
//!   intervals, and variable connection/transfer latency, resolving
//!   proposals incrementally as their events fire. Its event loop is
//!   time-sliced and sharded over `threads` workers (fixed node-region
//!   event partition, per-`(seed, slice, region)` RNG streams, serial
//!   boundary sweep — see the `sliced` module), deterministic at any
//!   thread count.
//!
//! There is **one entry point**: [`Scheduler::run_timed`] takes a
//! [`RunInputs`] — topology, protocol, sources, seed, [`SimConfig`], and
//! two optional layers — plus a [`Probe`](gossip_telemetry::Probe) to
//! observe the run ([`NoopProbe`](gossip_telemetry::NoopProbe) for none),
//! and returns the [`SimResult`] beside the engine's own clocks
//! ([`EngineTimings`]: milliseconds per phase, what `bench` prints);
//! [`Scheduler::run`] is its `.0`. One loop body per engine is behind it.
//!
//! Both record the metrics the papers analyze — rounds (or virtual time)
//! to completion, connections formed, and how many of those connections
//! were wasted — and both are deterministic given the seed: the same
//! [`RunInputs`] always reproduce the same run, which is what makes
//! regression tests on round counts and completion times possible.
//!
//! The optional layers:
//!
//! - **Changing networks** — [`RunInputs::dynamics`] names a
//!   [`gossip_dynamics::DynamicsModel`] (churn, edge fading, waypoint
//!   mobility) and the engine consumes its deterministic mutation stream
//!   — at round boundaries under the synchronous scheduler, at slice
//!   boundaries (serially, before the slice's events run) under the
//!   asynchronous one. Completion is then measured over currently-alive
//!   nodes, and [`SimResult::dynamics`] carries the churn-aware metrics
//!   ([`DynamicsStats`]): departures, rejoins, severed connections,
//!   peak/min alive counts, and a [`CoveragePoint`] timeline.
//! - **Discovered neighborhoods** — [`RunInputs::membership`] threads a
//!   [`Membership`] overlay — bounded HyParView-style active/passive
//!   views with SWIM-style failure detection, from the
//!   `gossip-membership` crate — between the underlay and the protocol,
//!   ticking it serially at round (sync) or slice (async) boundaries so
//!   determinism at any thread count is preserved.
//!   [`SimResult::membership`] then carries the overlay's metrics
//!   ([`MembershipStats`]).
//!
//! `None` for a layer means it does not exist for the run, not that it is
//! idle: the engines hold an `Option` of the layer's state (for dynamics,
//! the frozen topology or the mutating graph it was converted into) and
//! monomorphise their phase step over the graph type
//! ([`GraphView`](gossip_core::GraphView)), so a static run reads the
//! frozen `Topology` directly and builds no `DynamicTopology` (routing
//! static inputs through an always-on one was measured at +47 % / +19 %
//! peak RSS on the sync-ring / async-grid benchmark workloads).

mod dynamic;
mod metrics;
mod scheduler;
mod sliced;

pub use gossip_membership::{Membership, MembershipConfig, MembershipStats};
pub use metrics::{CoveragePoint, DynamicsStats, RoundStats, SimResult};
pub use scheduler::{effective_threads, EngineTimings, PhaseTimings, RunInputs, Scheduler};
pub use sliced::{SliceTimings, SLICE_TICKS};

use gossip_core::{NodeId, Rng};

/// Engine knobs independent of topology, protocol, and scheduler.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Hard cap on rounds; the run stops uncompleted when it is reached.
    /// The asynchronous scheduler interprets this as the equivalent
    /// virtual-time cap of `max_rounds ×`
    /// [`gossip_core::time::TICKS_PER_ROUND`] ticks.
    pub max_rounds: usize,
    /// Record a [`RoundStats`] entry per round (per round-sized epoch
    /// under the asynchronous scheduler).
    ///
    /// **Cost:** the history buffer is pre-allocated up front to its
    /// worst case of `max_rounds` entries (capped at
    /// [`HISTORY_PREALLOC_CAP`], ~40 bytes per entry) so long runs never
    /// pay repeated reallocation-and-copy of a growing `Vec`; a run with
    /// the default 100 000-round cap reserves ~4 MB. Leave this off for
    /// bulk parameter sweeps.
    pub record_rounds: bool,
}

/// Upper bound on the number of [`RoundStats`] entries pre-allocated for
/// `record_rounds`; pathological `max_rounds` values beyond this grow the
/// history vector on demand instead of reserving absurd memory up front.
pub const HISTORY_PREALLOC_CAP: usize = 1 << 20;

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            max_rounds: 100_000,
            record_rounds: false,
        }
    }
}

impl SimConfig {
    /// The pre-sized history buffer described on
    /// [`record_rounds`](Self::record_rounds).
    pub(crate) fn history_vec(&self) -> Vec<RoundStats> {
        Vec::with_capacity(self.max_rounds.min(HISTORY_PREALLOC_CAP))
    }
}

/// The default round cap for an `n`-node experiment when the caller does
/// not set one: generous enough that every connected standard topology
/// completes (a line needs `O(n)` rounds even under advertisement-guided
/// gossip; the constant absorbs small-topology overhead), while still
/// terminating disconnected or drained runs. Experiment front-ends share
/// this one policy so `run`, sweeps, and grids cannot drift.
pub fn default_round_cap(nodes: usize) -> usize {
    100 + 60 * nodes
}

/// Place `k` message sources uniformly at random on distinct nodes
/// (wrapping onto shared nodes only when `k > n`). Deterministic in `rng`.
pub fn random_sources(n: usize, k: usize, rng: &mut Rng) -> Vec<NodeId> {
    assert!(n > 0, "cannot place sources on an empty topology");
    let mut ids: Vec<u32> = (0..n as u32).collect();
    rng.shuffle(&mut ids);
    (0..k).map(|m| NodeId(ids[m % n])).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::Topology;
    use gossip_protocols::Protocol;
    use gossip_telemetry::NoopProbe;

    fn run(
        topology: &Topology,
        protocol: Protocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> SimResult {
        let inputs = RunInputs::new(topology.clone(), protocol, sources, seed, *config);
        Scheduler::Sync { threads: 1 }.run(inputs, &mut NoopProbe)
    }

    #[test]
    fn single_node_completes_instantly() {
        let topo = Topology::complete(1);
        let result = run(
            &topo,
            Protocol::Uniform,
            &[NodeId(0)],
            1,
            &SimConfig::default(),
        );
        assert!(result.completed);
        assert_eq!(result.rounds_to_completion, Some(0));
        assert_eq!(result.total_connections, 0);
    }

    #[test]
    fn same_seed_reproduces_run_exactly() {
        let topo = Topology::grid(30);
        let cfg = SimConfig {
            record_rounds: true,
            ..SimConfig::default()
        };
        let mut rng = Rng::new(5);
        let sources = random_sources(30, 3, &mut rng);
        let a = run(&topo, Protocol::Uniform, &sources, 77, &cfg);
        let b = run(&topo, Protocol::Uniform, &sources, 77, &cfg);
        assert_eq!(a.rounds_to_completion, b.rounds_to_completion);
        assert_eq!(a.total_connections, b.total_connections);
        assert_eq!(a.rounds, b.rounds);
    }

    #[test]
    fn round_cap_stops_uncompleted_runs() {
        // Two isolated components can never finish 1-gossip.
        let topo = Topology::from_edges("split", 4, &[(0, 1), (2, 3)]);
        let cfg = SimConfig {
            max_rounds: 25,
            ..SimConfig::default()
        };
        let result = run(&topo, Protocol::Uniform, &[NodeId(0)], 3, &cfg);
        assert!(!result.completed);
        assert_eq!(result.rounds_executed, 25);
        assert_eq!(result.rounds_to_completion, None);
        assert!(result.complete_nodes < 4);
    }

    #[test]
    fn connection_accounting_is_consistent() {
        let topo = Topology::ring(16);
        let result = run(
            &topo,
            Protocol::Uniform,
            &[NodeId(0)],
            9,
            &SimConfig::default(),
        );
        assert!(result.completed);
        assert_eq!(
            result.total_connections,
            result.productive_connections + result.wasted_connections
        );
        // With a 1-message universe a productive connection informs exactly
        // one new node, so reaching 15 more nodes takes >= 15 of them; and
        // coverage at most doubles per round, so 1 -> 16 takes >= 4 rounds.
        assert!(result.productive_connections >= 15);
        assert!(result.rounds_to_completion.unwrap() >= 4);
    }

    #[test]
    fn history_is_preallocated_to_the_round_cap() {
        let cfg = SimConfig {
            max_rounds: 500,
            record_rounds: true,
        };
        assert_eq!(cfg.history_vec().capacity(), 500);
        // Pathological caps do not reserve absurd memory up front.
        let cfg = SimConfig {
            max_rounds: usize::MAX,
            record_rounds: true,
        };
        assert_eq!(cfg.history_vec().capacity(), HISTORY_PREALLOC_CAP);
    }

    #[test]
    fn sync_virtual_time_mirrors_rounds() {
        use gossip_core::time::TICKS_PER_ROUND;
        let topo = Topology::ring(16);
        let result = run(
            &topo,
            Protocol::Uniform,
            &[NodeId(0)],
            9,
            &SimConfig::default(),
        );
        assert_eq!(result.scheduler, "sync");
        assert_eq!(
            result.virtual_time,
            result.rounds_executed as u64 * TICKS_PER_ROUND
        );
        assert_eq!(
            result.virtual_time_to_completion,
            result
                .rounds_to_completion
                .map(|r| r as u64 * TICKS_PER_ROUND)
        );
    }
}
