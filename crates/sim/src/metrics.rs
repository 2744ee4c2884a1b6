//! Per-round and whole-run metrics recorded by the engine.

use gossip_membership::MembershipStats;

/// Counters for one simulated round.
///
/// Under a dynamics model, `complete_nodes` and `messages_held` count
/// **currently-alive** nodes only — dead nodes neither gossip nor gate
/// completion.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundStats {
    /// 1-based round number.
    pub round: usize,
    /// Connections formed this round.
    pub connections: usize,
    /// Connections that moved at least one new message in some direction.
    pub productive: usize,
    /// Nodes holding the full message universe at the end of the round.
    pub complete_nodes: usize,
    /// Total messages held across all nodes at the end of the round.
    pub messages_held: usize,
}

/// One sample of the churn-aware coverage curve: how many nodes were
/// alive, and how many of those held the full message universe, at a point
/// in virtual time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CoveragePoint {
    /// Virtual time of the sample, in ticks.
    pub time: u64,
    /// Nodes alive at that instant.
    pub alive: usize,
    /// Alive nodes holding the full message universe.
    pub informed_alive: usize,
}

/// Dynamics-side metrics of a run over a mutating network. `None` on
/// [`SimResult`] exactly when the run was static.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynamicsStats {
    /// Dynamics model name ("churn", "fading", "waypoint", or several of
    /// them `+`-joined).
    pub model: String,
    /// Node departures applied.
    pub departures: usize,
    /// Node rejoins applied.
    pub rejoins: usize,
    /// Edge fade-outs applied.
    pub edge_downs: usize,
    /// Edge recoveries applied.
    pub edge_ups: usize,
    /// Mobility rewires applied.
    pub rewires: usize,
    /// Open connections severed because an endpoint departed mid-transfer
    /// (event-driven scheduler only; the synchronous engine completes
    /// transfers within the round that formed them). Severed connections
    /// transfer nothing and are excluded from
    /// [`SimResult::total_connections`](crate::SimResult::total_connections).
    pub severed_connections: usize,
    /// Most nodes simultaneously alive at any instant.
    pub peak_alive: usize,
    /// Fewest nodes simultaneously alive at any instant.
    pub min_alive: usize,
    /// Nodes alive when the run ended.
    pub final_alive: usize,
    /// Samples of the alive/informed curve over the run, recorded whenever
    /// either count changes — thinned to round granularity (coarser for
    /// very long runs) so the timeline stays bounded.
    pub coverage_timeline: Vec<CoveragePoint>,
}

/// Result of a complete simulation run.
#[derive(Clone, Debug, PartialEq)]
pub struct SimResult {
    /// Topology builder name.
    pub topology: String,
    /// Protocol name.
    pub protocol: String,
    /// Name of the scheduler that produced the run ("sync" or "async").
    pub scheduler: String,
    /// Number of nodes.
    pub nodes: usize,
    /// Size of the message universe (`k` of k-gossip).
    pub messages: usize,
    /// Engine seed.
    pub seed: u64,
    /// Whether gossip completed before the round cap: every node held
    /// every message — every **currently-alive** node, under a dynamics
    /// model (a network below full strength still completes; an empty
    /// network never does).
    pub completed: bool,
    /// Round in which gossip completed, if it did.
    pub rounds_to_completion: Option<usize>,
    /// Rounds actually executed (equals the cap when `!completed`). The
    /// asynchronous scheduler reports round *equivalents*: virtual time
    /// divided by [`gossip_core::time::TICKS_PER_ROUND`], rounded up.
    pub rounds_executed: usize,
    /// Virtual time elapsed, in ticks
    /// ([`gossip_core::time::TICKS_PER_ROUND`] per synchronous round), so
    /// asynchronous completion times are comparable with round counts.
    pub virtual_time: u64,
    /// Virtual time at which gossip completed, if it did.
    pub virtual_time_to_completion: Option<u64>,
    /// Connections whose transfer ran to completion. Under the
    /// event-driven scheduler with churn, a connection severed by an
    /// endpoint's departure mid-transfer is *not* counted here (it moved
    /// nothing) — it appears in
    /// [`DynamicsStats::severed_connections`] instead, so
    /// `total == productive + wasted` always holds.
    pub total_connections: usize,
    /// Connections that transferred at least one new message.
    pub productive_connections: usize,
    /// Connections that transferred nothing (both endpoints already equal).
    pub wasted_connections: usize,
    /// Nodes holding the full universe at the end — alive ones only,
    /// under a dynamics model.
    pub complete_nodes: usize,
    /// Always 0 on the synchronous engine. On the sliced engine, failed
    /// handshakes: the acceptor was busy or no longer listening when the
    /// attempt landed, or the edge vanished in flight — a race of
    /// asynchronous timing, not a bug.
    pub dropped_proposals: u64,
    /// Churn-aware metrics; `Some` exactly when the run used a dynamics
    /// model, so static results serialize byte-identically to pre-dynamics
    /// builds.
    pub dynamics: Option<DynamicsStats>,
    /// Membership-layer metrics; `Some` exactly when the run gossiped
    /// over a discovered overlay
    /// ([`RunInputs::membership`](crate::RunInputs::membership)), so
    /// full-view results serialize byte-identically to pre-membership
    /// builds.
    pub membership: Option<MembershipStats>,
    /// Per-round history; `Some` exactly when requested in `SimConfig`, so
    /// consumers can rely on its presence as a function of the flag (it is
    /// `Some(vec![])` for a run that was already complete at round 0).
    pub rounds: Option<Vec<RoundStats>>,
}
