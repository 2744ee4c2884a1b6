//! The scheduler abstraction and the synchronous round-based scheduler.
//!
//! A [`Scheduler`] owns the *execution model*: how virtual time advances,
//! when nodes advertise and scan, and when proposed connections resolve.
//! Protocols are scheduler-agnostic — they only ever see a
//! [`NodeCtx`] neighborhood snapshot — so the same protocol runs under
//! every scheduler.
//!
//! [`SyncScheduler`] is the engine of the PODC 2017 paper: globally
//! synchronized advertise → scan → connect → transfer rounds, with batch
//! connection resolution. Its hot path is built for scale:
//!
//! - per-node gossip state lives in a [`MessageMatrix`]
//!   (struct-of-arrays), advertisements and intents in flat arrays;
//! - **all four phases** shard across `std::thread::scope` workers:
//!   advertise and scan/decide over contiguous node ranges, matching via
//!   the partitioned resolver
//!   ([`resolve_connections_sharded`](gossip_core::resolve_connections_sharded)),
//!   and transfer over the round's node-disjoint matched pairs
//!   ([`MessageMatrix::union_pairs_parallel`]);
//! - **determinism is independent of the thread count**: each node's
//!   protocol randomness comes from its own stream
//!   `Rng::stream(seed, round, node)` and each matching region from its
//!   own `(seed, round, region)` stream over a *fixed* partition
//!   ([`gossip_core::MATCH_REGIONS`] blocks, regardless of workers), and
//!   every merge happens in node order — so `threads = 1` and
//!   `threads = 64` produce byte-identical [`SimResult`]s. Round-count
//!   regressions pin this down.

use crate::dynamic::DynRun;
use crate::metrics::RoundStats;
use crate::{SimConfig, SimResult};

use std::time::{Duration, Instant};

use gossip_core::time::{SimTime, TICKS_PER_ROUND};
use gossip_core::topology::GraphView;
use gossip_core::{
    resolve_connections_sharded, Advertisement, Connection, Intent, MessageMatrix, NodeId,
    Resolution, Rng, Topology, TransferStats, MATCH_REGIONS,
};
use gossip_dynamics::DynamicsModel;
use gossip_membership::{Membership, MembershipConfig};
use gossip_protocols::{GossipProtocol, NodeCtx};
use gossip_telemetry::metrics::RegionLoad;
use gossip_telemetry::{BoundaryScope, NoopProbe, Probe, TraceEvent};

// The telemetry crate's fixed region width must mirror the engines' — the
// per-region load counters index one with the other's partition.
const _: () = assert!(MATCH_REGIONS == gossip_telemetry::metrics::REGIONS);

/// An execution model for gossip in the mobile telephone model: drives a
/// protocol over a topology and reports [`SimResult`] metrics. Identical
/// `(topology, protocol, sources, seed, config)` inputs must reproduce
/// identical results.
pub trait Scheduler {
    /// Stable scheduler name, used in CLI selection and reporting.
    fn name(&self) -> &'static str;

    /// Run one simulation under observation: message `m` starts at
    /// `sources[m]`, the run ends when every node holds every message or
    /// the `config` cap (rounds, or the equivalent virtual time) is hit,
    /// and `probe` observes every semantic event along the way. The
    /// determinism contract extends to observation: the `SimResult` is
    /// byte-identical whether the probe is enabled or not, and an enabled
    /// probe sees the identical event sequence at any thread count.
    fn run_probed(
        &self,
        topology: &Topology,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult;

    /// [`run_probed`](Self::run_probed) over a network mutating under
    /// `dynamics`: the topology starts as `topology` and changes as the
    /// model's mutation stream fires. Completion is measured over
    /// currently-alive nodes, and [`SimResult::dynamics`] reports the
    /// churn-aware metrics. Both schedulers consume the identical stream
    /// for a given seed, so sync-vs-async comparisons stay
    /// apples-to-apples.
    // The argument list *is* the determinism contract — every input that
    // shapes the run, plus the observer. Bundling them into a struct
    // would just rename the problem.
    #[allow(clippy::too_many_arguments)]
    fn run_dynamic_probed(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult;

    /// [`run_probed`](Self::run_probed) over *discovered* neighborhoods:
    /// a [`Membership`] overlay (bounded HyParView-style views with
    /// SWIM-style failure detection) sits between the underlay `topology`
    /// and the protocol, ticking at round (sync) or slice (async)
    /// boundaries, and the protocol gossips over its active views instead
    /// of the full topology. Deterministic at any thread count: the
    /// overlay only ever advances in serial engine sections.
    #[allow(clippy::too_many_arguments)]
    fn run_membership_probed(
        &self,
        topology: &Topology,
        membership: &MembershipConfig,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult;

    /// [`run_membership_probed`](Self::run_membership_probed) over a
    /// network mutating under `dynamics`: churned-out nodes linger in
    /// their peers' views until the failure detector suspects and evicts
    /// them, and rejoiners re-enter through the join step.
    #[allow(clippy::too_many_arguments)]
    fn run_dynamic_membership_probed(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        membership: &MembershipConfig,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult;

    /// [`run_probed`](Self::run_probed) without observation — the
    /// disabled probe costs one branch per round.
    fn run(
        &self,
        topology: &Topology,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> SimResult {
        self.run_probed(topology, protocol, sources, seed, config, &mut NoopProbe)
    }

    /// [`run_dynamic_probed`](Self::run_dynamic_probed) without
    /// observation.
    fn run_dynamic(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> SimResult {
        self.run_dynamic_probed(
            topology,
            dynamics,
            protocol,
            sources,
            seed,
            config,
            &mut NoopProbe,
        )
    }

    /// [`run_membership_probed`](Self::run_membership_probed) without
    /// observation.
    fn run_membership(
        &self,
        topology: &Topology,
        membership: &MembershipConfig,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> SimResult {
        self.run_membership_probed(
            topology,
            membership,
            protocol,
            sources,
            seed,
            config,
            &mut NoopProbe,
        )
    }

    /// [`run_dynamic_membership_probed`](Self::run_dynamic_membership_probed)
    /// without observation.
    #[allow(clippy::too_many_arguments)]
    fn run_dynamic_membership(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        membership: &MembershipConfig,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> SimResult {
        self.run_dynamic_membership_probed(
            topology,
            dynamics,
            membership,
            protocol,
            sources,
            seed,
            config,
            &mut NoopProbe,
        )
    }
}

/// Shared run setup: seed the per-node message matrix from `sources` and
/// build a result skeleton (handles the already-complete-at-time-zero
/// case, e.g. a single-node topology).
pub(crate) fn init_run(
    topology: &Topology,
    protocol: &dyn GossipProtocol,
    scheduler: &str,
    sources: &[NodeId],
    seed: u64,
    config: &SimConfig,
) -> (MessageMatrix, SimResult) {
    let n = topology.num_nodes();
    let k = sources.len();
    assert!(n > 0, "cannot simulate an empty topology");
    assert!(k > 0, "gossip needs at least one message");

    let mut states = MessageMatrix::new(n, k);
    for (m, &node) in sources.iter().enumerate() {
        states.insert(node.index(), m);
    }

    let complete_nodes = states.full_count();
    let result = SimResult {
        topology: topology.name().to_string(),
        protocol: protocol.name().to_string(),
        scheduler: scheduler.to_string(),
        nodes: n,
        messages: k,
        seed,
        completed: complete_nodes == n,
        rounds_to_completion: if complete_nodes == n { Some(0) } else { None },
        rounds_executed: 0,
        virtual_time: 0,
        virtual_time_to_completion: if complete_nodes == n { Some(0) } else { None },
        total_connections: 0,
        productive_connections: 0,
        wasted_connections: 0,
        complete_nodes,
        dropped_proposals: 0,
        dynamics: None,
        membership: None,
        rounds: config.record_rounds.then(|| config.history_vec()),
    };
    (states, result)
}

/// Wall-clock time spent in each phase of the synchronous round loop,
/// summed across rounds. Reported alongside (never inside) [`SimResult`]
/// — results must be a pure function of the inputs, and wall clocks are
/// anything but — so the bench harness can show *which* phase a thread
/// count is buying down.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// Phase 1: refreshing every node's advertisement tag.
    pub advertise: Duration,
    /// Phase 2: every node scans neighbor tags and commits an intent.
    pub decide: Duration,
    /// Phase 3: the partitioned matching resolver.
    pub matching: Duration,
    /// Phase 4: push-pull transfer over the matched pairs.
    pub transfer: Duration,
    /// Connections formed per matching region (by initiator), summed over
    /// rounds — the resolver's load-balance instrument. Deterministic:
    /// the partition is fixed, never a function of the thread count.
    pub connections_by_region: RegionLoad,
    /// Proposals resolved inside their own region, summed over rounds.
    pub confined_proposals: u64,
    /// Proposals deferred to the serial boundary sweep, summed over
    /// rounds. A high boundary share means the fixed partition is
    /// fighting the topology.
    pub boundary_proposals: u64,
}

/// The synchronous round-based scheduler from the PODC 2017 paper: every
/// round, all nodes advertise, scan, commit an intent, the batch matching
/// resolver forms connections, and matched pairs transfer — all against a
/// single global clock. Virtual time advances by
/// [`TICKS_PER_ROUND`] per round.
///
/// `threads` shards all four phases — advertise, scan/decide, matching,
/// transfer — over that many workers. The engine is deterministic *at any
/// thread count* (see the module docs); `threads = 1` (the default) runs
/// the identical computation serially without spawning.
#[derive(Clone, Copy, Debug)]
pub struct SyncScheduler {
    /// Worker threads for every phase of the round; clamped to at least 1.
    pub threads: usize,
}

impl Default for SyncScheduler {
    fn default() -> Self {
        SyncScheduler { threads: 1 }
    }
}

impl SyncScheduler {
    /// A scheduler sharding its round loop over `threads` workers
    /// (0 is treated as 1).
    pub fn with_threads(threads: usize) -> Self {
        SyncScheduler {
            threads: threads.max(1),
        }
    }

    /// [`run`](Scheduler::run), additionally reporting how long each
    /// phase took ([`PhaseTimings`], summed over rounds). The `SimResult`
    /// is identical to `run`'s — the timings ride alongside so benches
    /// can break the wall time down per phase without perturbing
    /// deterministic output.
    pub fn run_with_timings(
        &self,
        topology: &Topology,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
    ) -> (SimResult, PhaseTimings) {
        self.run_with_timings_probed(topology, protocol, sources, seed, config, &mut NoopProbe)
    }

    /// [`run_with_timings`](Self::run_with_timings) under observation —
    /// the full-fidelity entry point the trait methods and the bench
    /// harness both funnel through.
    pub fn run_with_timings_probed(
        &self,
        topology: &Topology,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> (SimResult, PhaseTimings) {
        let n = topology.num_nodes();
        let mut timings = PhaseTimings::default();
        let (mut states, mut result) = init_run(topology, protocol, "sync", sources, seed, config);
        if result.completed {
            return (result, timings);
        }
        let mut complete_nodes = result.complete_nodes;
        let region_block = n.div_ceil(MATCH_REGIONS.clamp(1, n));

        let mut ads: Vec<Advertisement> = vec![Advertisement::default(); n];
        let mut intents: Vec<Intent> = vec![Intent::Idle; n];

        for round in 1..=config.max_rounds {
            // Phase 1: advertise — all tags published before anyone scans.
            let t0 = Instant::now();
            advertise_phase(
                None,
                protocol,
                &states,
                &mut ads,
                round as u64,
                self.threads,
            );

            // Phase 2: every node scans and commits an intent.
            let t1 = Instant::now();
            scan_phase(
                topology,
                None,
                protocol,
                &states,
                &ads,
                &mut intents,
                seed,
                round as u64,
                self.threads,
            );

            // Phase 3: connection resolution — the partitioned parallel
            // matching over a fixed region grid.
            let t2 = Instant::now();
            let resolution = resolve_connections_sharded(
                topology,
                &intents,
                seed,
                round as u64,
                MATCH_REGIONS,
                self.threads,
            );

            // Phase 4: push-pull transfer over the (node-disjoint)
            // matched pairs. The traced path runs the identical per-pair
            // unions serially so moved messages emit in deterministic
            // order — the pairs are node-disjoint, so the totals (and the
            // matrix) cannot differ from the parallel path.
            let t3 = Instant::now();
            let transfer = if probe.enabled() {
                emit_round_events(probe, topology, &intents, &resolution, round as u64);
                traced_transfer(probe, &mut states, &resolution.connections, round as u64)
            } else {
                states.union_pairs_parallel(&resolution.connections, self.threads)
            };
            let t4 = Instant::now();

            timings.advertise += t1 - t0;
            timings.decide += t2 - t1;
            timings.matching += t3 - t2;
            timings.transfer += t4 - t3;
            for c in &resolution.connections {
                timings
                    .connections_by_region
                    .add(c.initiator.index() / region_block, 1);
            }
            timings.confined_proposals += resolution.confined_proposals;
            timings.boundary_proposals += resolution.boundary_proposals;

            complete_nodes += transfer.newly_full;
            let formed = resolution.connections.len();
            result.rounds_executed = round;
            result.total_connections += formed;
            result.productive_connections += transfer.productive;
            result.wasted_connections += formed - transfer.productive;
            result.dropped_proposals += resolution.dropped_proposals;
            if let Some(history) = &mut result.rounds {
                history.push(RoundStats {
                    round,
                    connections: formed,
                    productive: transfer.productive,
                    complete_nodes,
                    messages_held: states.total_messages(),
                });
            }

            if probe.enabled() {
                probe.record(&TraceEvent::Boundary {
                    t: round as u64 * TICKS_PER_ROUND,
                    round: round as u64,
                    scope: BoundaryScope::Round,
                });
            }

            if complete_nodes == n {
                result.completed = true;
                result.rounds_to_completion = Some(round);
                break;
            }
        }

        result.complete_nodes = complete_nodes;
        result.virtual_time = result.rounds_executed as u64 * TICKS_PER_ROUND;
        result.virtual_time_to_completion = result
            .rounds_to_completion
            .map(|r| r as u64 * TICKS_PER_ROUND);
        (result, timings)
    }
}

/// Emit one synchronous round's connection-lifecycle events: every
/// proposal in node order (each immediately followed by its `Drop` if it
/// crossed a non-edge), every formed connection in resolution order, then
/// a `Reject` for each proposer that ended the round unmatched (rebound
/// included — a proposer that connected to *any* listener succeeded).
/// Pure reads of already-resolved state: tracing cannot perturb the run.
fn emit_round_events<G: GraphView + ?Sized>(
    probe: &mut dyn Probe,
    graph: &G,
    intents: &[Intent],
    resolution: &Resolution,
    round: u64,
) {
    let t = round * TICKS_PER_ROUND;
    for (u, intent) in intents.iter().enumerate() {
        let Intent::Propose(v) = intent else { continue };
        probe.record(&TraceEvent::Propose {
            t,
            round,
            from: u as u32,
            to: v.0,
        });
        if !graph.are_neighbors(NodeId(u as u32), *v) {
            probe.record(&TraceEvent::Drop {
                t,
                round,
                from: u as u32,
                to: v.0,
            });
        }
    }
    let mut initiated = vec![false; intents.len()];
    for c in &resolution.connections {
        initiated[c.initiator.index()] = true;
        probe.record(&TraceEvent::Connect {
            t,
            round,
            initiator: c.initiator.0,
            acceptor: c.acceptor.0,
        });
    }
    for (u, intent) in intents.iter().enumerate() {
        let Intent::Propose(v) = intent else { continue };
        if !initiated[u] {
            probe.record(&TraceEvent::Reject {
                t,
                round,
                from: u as u32,
                to: v.0,
            });
        }
    }
}

/// The transfer phase under observation: the same per-pair unions as
/// [`MessageMatrix::union_pairs_parallel`], run serially so each moved
/// message emits in connection-then-ascending-message order. Identical
/// totals — the pairs are node-disjoint, so processing order is
/// irrelevant to the outcome.
fn traced_transfer(
    probe: &mut dyn Probe,
    states: &mut MessageMatrix,
    connections: &[Connection],
    round: u64,
) -> TransferStats {
    let t = round * TICKS_PER_ROUND;
    let mut total = TransferStats::default();
    let mut moved: Vec<(u32, bool)> = Vec::new();
    for c in connections {
        moved.clear();
        total +=
            states.union_pair_stats_traced(c.initiator.index(), c.acceptor.index(), &mut moved);
        for &(msg, forward) in &moved {
            let (from, to) = if forward {
                (c.initiator.0, c.acceptor.0)
            } else {
                (c.acceptor.0, c.initiator.0)
            };
            probe.record(&TraceEvent::Transfer {
                t,
                round,
                from,
                to,
                msg,
            });
        }
    }
    total
}

/// One worker's advertise pass over its node range: refresh the tag of
/// every (alive) node in `base..base + out.len()`.
fn advertise_range(
    base: usize,
    out: &mut [Advertisement],
    alive: Option<&[bool]>,
    protocol: &dyn GossipProtocol,
    states: &MessageMatrix,
    round: u64,
) {
    let Some(mask) = alive else {
        protocol.advertise_rows(states, base, round, out);
        return;
    };
    // Masked rounds stay per-row rather than growing a second batched
    // kernel: a dead node must keep its last tag — membership views may
    // still scan it until SWIM evicts the peer — so only alive rows store.
    for (i, ad) in out.iter_mut().enumerate() {
        let u = base + i;
        if mask[u] {
            *ad = protocol.advertise(states.view(u), round);
        }
    }
}

/// One worker's scan/decide pass over its node range. Every node draws
/// from its own `(seed, round, node)` stream, so the result is a pure
/// function of the inputs — independent of which worker runs it, in what
/// order, or how many workers exist.
#[allow(clippy::too_many_arguments)] // one flat hot-path call, not an API
fn decide_range<G: GraphView + ?Sized>(
    base: usize,
    out: &mut [Intent],
    graph: &G,
    alive: Option<&[bool]>,
    protocol: &dyn GossipProtocol,
    states: &MessageMatrix,
    ads: &[Advertisement],
    seed: u64,
    round: u64,
) {
    let mut ad_scratch: Vec<Advertisement> = Vec::new();
    for (i, slot) in out.iter_mut().enumerate() {
        let u = base + i;
        if !alive.is_none_or(|mask| mask[u]) {
            *slot = Intent::Idle;
            continue;
        }
        let id = NodeId(u as u32);
        let neighbors = graph.neighbors(id);
        ad_scratch.clear();
        ad_scratch.extend(neighbors.iter().map(|v| ads[v.index()]));
        let ctx = NodeCtx {
            id,
            salt: round,
            messages: states.view(u),
            own_ad: ads[u],
            neighbors,
            neighbor_ads: &ad_scratch,
        };
        let mut rng = Rng::stream(seed, round, u as u64);
        *slot = protocol.decide(&ctx, &mut rng);
    }
}

/// Phase 1 of a round — refresh every tag — sharded over `threads`
/// workers in contiguous node ranges. Must complete before anyone scans:
/// all tags of round `r` are published before any node reads one.
fn advertise_phase(
    alive: Option<&[bool]>,
    protocol: &dyn GossipProtocol,
    states: &MessageMatrix,
    ads: &mut [Advertisement],
    round: u64,
    threads: usize,
) {
    let n = ads.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        advertise_range(0, ads, alive, protocol, states, round);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (w, ads_chunk) in ads.chunks_mut(chunk).enumerate() {
            s.spawn(move || advertise_range(w * chunk, ads_chunk, alive, protocol, states, round));
        }
    });
}

/// Phase 2 of a round — every node scans the published tags and commits
/// an intent — sharded over `threads` workers in contiguous node ranges.
/// Intents land in node-indexed slots, which *is* the deterministic
/// node-order merge.
#[allow(clippy::too_many_arguments)]
fn scan_phase<G: GraphView + Sync + ?Sized>(
    graph: &G,
    alive: Option<&[bool]>,
    protocol: &dyn GossipProtocol,
    states: &MessageMatrix,
    ads: &[Advertisement],
    intents: &mut [Intent],
    seed: u64,
    round: u64,
    threads: usize,
) {
    let n = intents.len();
    let threads = threads.clamp(1, n.max(1));
    if threads == 1 {
        decide_range(0, intents, graph, alive, protocol, states, ads, seed, round);
        return;
    }
    let chunk = n.div_ceil(threads);
    std::thread::scope(|s| {
        for (w, intents_chunk) in intents.chunks_mut(chunk).enumerate() {
            s.spawn(move || {
                decide_range(
                    w * chunk,
                    intents_chunk,
                    graph,
                    alive,
                    protocol,
                    states,
                    ads,
                    seed,
                    round,
                )
            });
        }
    });
}

impl Scheduler for SyncScheduler {
    fn name(&self) -> &'static str {
        "sync"
    }

    fn run_probed(
        &self,
        topology: &Topology,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult {
        self.run_with_timings_probed(topology, protocol, sources, seed, config, probe)
            .0
    }

    /// The dynamic-topology variant of the round loop. Mutations apply at
    /// round boundaries: before round `r` runs, every pending mutation
    /// with time in round `r`'s window `[(r-1)·TPR, r·TPR)` takes effect,
    /// so a departure "during" a round is visible for the whole round —
    /// the natural discretization of the continuous-time stream the
    /// asynchronous scheduler interleaves exactly. Within a round the
    /// graph is frozen, so scan, intent, and matching stay coherent — and
    /// the sharded decide phase reads it concurrently exactly like the
    /// static engine, skipping dead nodes via the alive mask.
    fn run_dynamic_probed(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult {
        let n = topology.num_nodes();
        let (mut states, mut result) = init_run(topology, protocol, "sync", sources, seed, config);
        let mut dynr = DynRun::new(topology, dynamics, seed, &states);
        if result.completed {
            result.dynamics = Some(dynr.finish(SimTime::ZERO));
            return result;
        }
        let mut ads: Vec<Advertisement> = vec![Advertisement::default(); n];
        let mut intents: Vec<Intent> = vec![Intent::Idle; n];

        for round in 1..=config.max_rounds {
            let horizon = SimTime(round as u64 * TICKS_PER_ROUND);
            let mutated = if probe.enabled() {
                dynr.drain_until_probed(horizon, &mut states, sources, probe, round as u64)
            } else {
                dynr.drain_until(horizon, &mut states, sources)
            };
            if mutated && dynr.complete() {
                // Mutations alone completed gossip (the last uninformed
                // node departed, or an informed one rejoined an already-
                // covered network) — at the boundary closing round r-1.
                result.completed = true;
                result.rounds_to_completion = Some(round - 1);
                break;
            }

            // Phases 1+2 over alive nodes only: dead nodes neither
            // advertise nor scan, and active neighbor views exclude them.
            let alive = Some(dynr.topo.alive_mask());
            advertise_phase(
                alive,
                protocol,
                &states,
                &mut ads,
                round as u64,
                self.threads,
            );
            scan_phase(
                &dynr.topo,
                alive,
                protocol,
                &states,
                &ads,
                &mut intents,
                seed,
                round as u64,
                self.threads,
            );

            // Phases 3+4 against the active graph view — the identical
            // sharded resolver and transfer as the static loop. Both
            // endpoints of every pair are alive: dead nodes cannot match.
            let resolution = resolve_connections_sharded(
                &dynr.topo,
                &intents,
                seed,
                round as u64,
                MATCH_REGIONS,
                self.threads,
            );
            let transfer = if probe.enabled() {
                emit_round_events(probe, &dynr.topo, &intents, &resolution, round as u64);
                traced_transfer(probe, &mut states, &resolution.connections, round as u64)
            } else {
                states.union_pairs_parallel(&resolution.connections, self.threads)
            };
            dynr.alive_informed += transfer.newly_full;
            dynr.alive_messages += transfer.moved;

            let formed = resolution.connections.len();
            result.rounds_executed = round;
            result.total_connections += formed;
            result.productive_connections += transfer.productive;
            result.wasted_connections += formed - transfer.productive;
            result.dropped_proposals += resolution.dropped_proposals;
            dynr.record(horizon);
            if let Some(history) = &mut result.rounds {
                history.push(RoundStats {
                    round,
                    connections: formed,
                    productive: transfer.productive,
                    complete_nodes: dynr.alive_informed,
                    messages_held: dynr.alive_messages,
                });
            }

            if probe.enabled() {
                probe.record(&TraceEvent::Boundary {
                    t: round as u64 * TICKS_PER_ROUND,
                    round: round as u64,
                    scope: BoundaryScope::Round,
                });
            }

            if dynr.complete() {
                result.completed = true;
                result.rounds_to_completion = Some(round);
                break;
            }
        }

        result.complete_nodes = dynr.alive_informed;
        result.virtual_time = result.rounds_executed as u64 * TICKS_PER_ROUND;
        result.virtual_time_to_completion = result
            .rounds_to_completion
            .map(|r| r as u64 * TICKS_PER_ROUND);
        result.dynamics = Some(dynr.finish(SimTime(result.virtual_time)));
        result
    }

    /// The membership variant of the static round loop: the overlay ticks
    /// serially at the top of every round (join → shuffle/promote → probe
    /// → evict, one `(seed, round, MEMBERSHIP_STREAM)` stream walked in
    /// node order), then the identical sharded phases run with the
    /// overlay's active views as the graph. Scan, matching, and event
    /// emission all read the same frozen views, so the round is coherent
    /// and deterministic at any thread count.
    fn run_membership_probed(
        &self,
        topology: &Topology,
        membership: &MembershipConfig,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult {
        let n = topology.num_nodes();
        let (mut states, mut result) = init_run(topology, protocol, "sync", sources, seed, config);
        let mut mem = Membership::new(n, *membership);
        if result.completed {
            result.membership = Some(mem.finish(None));
            return result;
        }
        let mut complete_nodes = result.complete_nodes;
        let mut ads: Vec<Advertisement> = vec![Advertisement::default(); n];
        let mut intents: Vec<Intent> = vec![Intent::Idle; n];

        for round in 1..=config.max_rounds {
            mem.tick(topology, None, seed, round as u64, probe);

            advertise_phase(
                None,
                protocol,
                &states,
                &mut ads,
                round as u64,
                self.threads,
            );
            scan_phase(
                &mem,
                None,
                protocol,
                &states,
                &ads,
                &mut intents,
                seed,
                round as u64,
                self.threads,
            );
            let resolution = resolve_connections_sharded(
                &mem,
                &intents,
                seed,
                round as u64,
                MATCH_REGIONS,
                self.threads,
            );
            let transfer = if probe.enabled() {
                emit_round_events(probe, &mem, &intents, &resolution, round as u64);
                traced_transfer(probe, &mut states, &resolution.connections, round as u64)
            } else {
                states.union_pairs_parallel(&resolution.connections, self.threads)
            };

            complete_nodes += transfer.newly_full;
            let formed = resolution.connections.len();
            result.rounds_executed = round;
            result.total_connections += formed;
            result.productive_connections += transfer.productive;
            result.wasted_connections += formed - transfer.productive;
            result.dropped_proposals += resolution.dropped_proposals;
            if let Some(history) = &mut result.rounds {
                history.push(RoundStats {
                    round,
                    connections: formed,
                    productive: transfer.productive,
                    complete_nodes,
                    messages_held: states.total_messages(),
                });
            }

            if probe.enabled() {
                probe.record(&TraceEvent::Boundary {
                    t: round as u64 * TICKS_PER_ROUND,
                    round: round as u64,
                    scope: BoundaryScope::Round,
                });
            }

            if complete_nodes == n {
                result.completed = true;
                result.rounds_to_completion = Some(round);
                break;
            }
        }

        result.complete_nodes = complete_nodes;
        result.virtual_time = result.rounds_executed as u64 * TICKS_PER_ROUND;
        result.virtual_time_to_completion = result
            .rounds_to_completion
            .map(|r| r as u64 * TICKS_PER_ROUND);
        result.membership = Some(mem.finish(None));
        result
    }

    /// Membership over a mutating network: mutations drain at the round
    /// boundary first (fixing the alive set and underlay for the round),
    /// then the overlay ticks against them — so a departure is visible to
    /// the failure detector the round it happens, and a rejoiner can
    /// re-join the same round it returns.
    fn run_dynamic_membership_probed(
        &self,
        topology: &Topology,
        dynamics: &dyn DynamicsModel,
        membership: &MembershipConfig,
        protocol: &dyn GossipProtocol,
        sources: &[NodeId],
        seed: u64,
        config: &SimConfig,
        probe: &mut dyn Probe,
    ) -> SimResult {
        let n = topology.num_nodes();
        let (mut states, mut result) = init_run(topology, protocol, "sync", sources, seed, config);
        let mut dynr = DynRun::new(topology, dynamics, seed, &states);
        let mut mem = Membership::new(n, *membership);
        if result.completed {
            result.membership = Some(mem.finish(Some(dynr.topo.alive_mask())));
            result.dynamics = Some(dynr.finish(SimTime::ZERO));
            return result;
        }
        let mut ads: Vec<Advertisement> = vec![Advertisement::default(); n];
        let mut intents: Vec<Intent> = vec![Intent::Idle; n];

        for round in 1..=config.max_rounds {
            let horizon = SimTime(round as u64 * TICKS_PER_ROUND);
            let mutated = if probe.enabled() {
                dynr.drain_until_probed(horizon, &mut states, sources, probe, round as u64)
            } else {
                dynr.drain_until(horizon, &mut states, sources)
            };
            if mutated && dynr.complete() {
                result.completed = true;
                result.rounds_to_completion = Some(round - 1);
                break;
            }

            let alive = Some(dynr.topo.alive_mask());
            mem.tick(&dynr.topo, alive, seed, round as u64, probe);

            advertise_phase(
                alive,
                protocol,
                &states,
                &mut ads,
                round as u64,
                self.threads,
            );
            scan_phase(
                &mem,
                alive,
                protocol,
                &states,
                &ads,
                &mut intents,
                seed,
                round as u64,
                self.threads,
            );
            let resolution = resolve_connections_sharded(
                &mem,
                &intents,
                seed,
                round as u64,
                MATCH_REGIONS,
                self.threads,
            );
            let transfer = if probe.enabled() {
                emit_round_events(probe, &mem, &intents, &resolution, round as u64);
                traced_transfer(probe, &mut states, &resolution.connections, round as u64)
            } else {
                states.union_pairs_parallel(&resolution.connections, self.threads)
            };
            dynr.alive_informed += transfer.newly_full;
            dynr.alive_messages += transfer.moved;

            let formed = resolution.connections.len();
            result.rounds_executed = round;
            result.total_connections += formed;
            result.productive_connections += transfer.productive;
            result.wasted_connections += formed - transfer.productive;
            result.dropped_proposals += resolution.dropped_proposals;
            dynr.record(horizon);
            if let Some(history) = &mut result.rounds {
                history.push(RoundStats {
                    round,
                    connections: formed,
                    productive: transfer.productive,
                    complete_nodes: dynr.alive_informed,
                    messages_held: dynr.alive_messages,
                });
            }

            if probe.enabled() {
                probe.record(&TraceEvent::Boundary {
                    t: round as u64 * TICKS_PER_ROUND,
                    round: round as u64,
                    scope: BoundaryScope::Round,
                });
            }

            if dynr.complete() {
                result.completed = true;
                result.rounds_to_completion = Some(round);
                break;
            }
        }

        result.complete_nodes = dynr.alive_informed;
        result.virtual_time = result.rounds_executed as u64 * TICKS_PER_ROUND;
        result.virtual_time_to_completion = result
            .rounds_to_completion
            .map(|r| r as u64 * TICKS_PER_ROUND);
        result.membership = Some(mem.finish(Some(dynr.topo.alive_mask())));
        result.dynamics = Some(dynr.finish(SimTime(result.virtual_time)));
        result
    }
}
