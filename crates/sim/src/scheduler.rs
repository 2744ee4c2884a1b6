//! The [`Scheduler`] choice and the synchronous round-based engine.
//!
//! A [`Scheduler`] names the *execution model*: how virtual time advances,
//! when nodes advertise and scan, and when proposed connections resolve.
//! Protocols are scheduler-agnostic — they only ever see a
//! [`NodeCtx`] neighborhood snapshot — so the same protocol runs under
//! either variant. There is one entry point,
//! [`run_timed`](Scheduler::run_timed)`(`[`RunInputs`]`, &mut dyn Probe)`
//! ([`run`](Scheduler::run) drops its clocks): a mutating network and a
//! membership overlay are optional *inputs*, not separate methods, and
//! each engine serves every combination from one loop.
//!
//! [`Scheduler::Sync`] is the engine of the PODC 2017 paper: globally
//! synchronized advertise → scan → connect → transfer rounds, with batch
//! connection resolution. Its hot path is built for scale:
//!
//! - per-node gossip state lives in a [`MessageMatrix`]
//!   (struct-of-arrays), advertisements and intents in flat arrays;
//! - **three phases** fork through [`gossip_core::shard::for_each`]:
//!   advertise and scan/decide over contiguous node ranges, and matching
//!   via the partitioned resolver
//!   ([`resolve_connections_sharded`](gossip_core::resolve_connections_sharded));
//!   the transfer unions the matched pairs serially
//!   ([`MessageMatrix::union_pairs`], ARCHITECTURE.md's *Transfer*) —
//!   probed or not: a probe itemizes every pair's transfer first
//!   ([`MsgView::for_each_transfer`](gossip_core::MsgView::for_each_transfer)),
//!   and the same union runs after;
//! - **determinism is independent of the thread count**: each node's
//!   protocol randomness comes from its own stream
//!   `Rng::stream(seed, round, node)` and each matching region from its
//!   own `(seed, round, region)` stream over the fixed
//!   [`Partition`](gossip_core::Partition), and every merge happens in
//!   node order — so `threads = 1` and `threads = 64` produce
//!   byte-identical [`SimResult`]s. Round-count regressions pin this down;
//! - **absent layers cost nothing**: the round loop holds an `Underlay`
//!   (the frozen [`Topology`], or the `DynRun` it became) and an
//!   `Option<Membership>`, and its phase step is monomorphised over
//!   [`GraphView`] — so a static run reads the frozen [`Topology`]
//!   directly, with no alive mask, rather than paying for an always-on
//!   `DynamicTopology` (measured at +47 % peak RSS on the 131 072-node
//!   ring benchmark workload), and a dynamic one holds no static copy.

use crate::dynamic::{Coverage, Underlay};
use crate::metrics::RoundStats;
use crate::sliced::{run_sliced, SliceTimings};
use crate::{SimConfig, SimResult};

use std::time::{Duration, Instant};

use gossip_core::time::{SimTime, TimingConfig, TICKS_PER_ROUND};
use gossip_core::topology::GraphView;
use gossip_core::{
    resolve_connections_sharded, shard, Advertisement, Intent, MessageMatrix, NodeId, Partition,
    Resolution, Rng, Topology, TransferStats, MATCH_REGIONS,
};
use gossip_dynamics::DynamicsModel;
use gossip_membership::{Membership, MembershipConfig};
use gossip_protocols::{NodeCtx, Protocol, Tags};
use gossip_telemetry::metrics::RegionLoad;
use gossip_telemetry::{EventKind, Probe, TraceEvent};

/// Everything that shapes one run — the determinism contract in one
/// place: identical inputs reproduce identical [`SimResult`]s under a
/// given scheduler.
#[derive(Clone)]
pub struct RunInputs<'a> {
    /// The (initial) underlay graph, owned by the run: a static run reads
    /// it as is, a dynamic one converts it into its mutating graph, so
    /// either holds one adjacency.
    pub topology: Topology,
    pub protocol: Protocol,
    /// Message `m` starts at `sources[m]`.
    pub sources: &'a [NodeId],
    pub seed: u64,
    pub config: SimConfig,
    /// `Some`: the network mutates as the model's stream fires — at round
    /// boundaries under the synchronous scheduler, at slice starts under
    /// the asynchronous one; both consume the identical stream for a
    /// given seed. Completion is then measured over currently-alive
    /// nodes, and [`SimResult::dynamics`] reports the churn-aware
    /// metrics. `None` is the frozen graph, at no cost: no
    /// `DynamicTopology` is built and no alive mask consulted.
    pub dynamics: Option<&'a dyn DynamicsModel>,
    /// `Some`: the protocol gossips over *discovered* neighborhoods — a
    /// [`Membership`] overlay (bounded HyParView-style views with
    /// SWIM-style failure detection) between the underlay and the
    /// protocol, ticked serially at round (sync) or slice (async)
    /// boundaries, after that boundary's mutations: a departure is
    /// visible to the failure detector the round it happens, and a
    /// rejoiner can re-join the round it returns. `None` gossips over
    /// the full neighborhoods.
    pub membership: Option<&'a MembershipConfig>,
}

impl<'a> RunInputs<'a> {
    /// Inputs for a run over the frozen `topology` with full
    /// neighborhoods; set `dynamics` / `membership` by struct update.
    pub fn new(
        topology: Topology,
        protocol: Protocol,
        sources: &'a [NodeId],
        seed: u64,
        config: SimConfig,
    ) -> Self {
        RunInputs {
            topology,
            protocol,
            sources,
            seed,
            config,
            dynamics: None,
            membership: None,
        }
    }
}

/// An execution model for gossip in the mobile telephone model: drives a
/// protocol over a topology and reports [`SimResult`] metrics. `threads`
/// workers (0 counts as 1) never change a result, only throughput; the
/// engine runs the count it is given, so front-ends clamp it first
/// ([`effective_threads`](Self::effective_threads)).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Scheduler {
    /// The synchronized rounds of the PODC 2017 paper (the module docs),
    /// virtual time advancing [`TICKS_PER_ROUND`] per round.
    Sync { threads: usize },
    /// The asynchronous model (Newport, Weaver & Zheng 2021): each node
    /// acts on its own drifted clock — refresh its tag, scan neighbors'
    /// possibly stale tags, commit an intent; a proposal reaches its
    /// target after a sampled latency and resolves against the target's
    /// state then, and a connection holds both ends busy for a sampled
    /// transfer latency. `timing` holds those distributions; all draws
    /// are seeded and events order by `(time, seq)`, so runs reproduce.
    /// `max_rounds` caps virtual time at `max_rounds ×`
    /// [`TICKS_PER_ROUND`], and round counts (and [`RoundStats`] epochs)
    /// are round equivalents of virtual time.
    Async {
        timing: TimingConfig,
        threads: usize,
    },
}

impl Scheduler {
    /// Canonical names, in the order help text lists them.
    pub const NAMES: &'static [&'static str] = &["sync", "async"];

    /// The canonical name, used in CLI selection and reporting.
    pub fn name(&self) -> &'static str {
        match self {
            Scheduler::Sync { .. } => "sync",
            Scheduler::Async { .. } => "async",
        }
    }

    /// Worker threads requested, before the [`effective_threads`] clamp.
    pub fn threads(&self) -> usize {
        match self {
            Scheduler::Sync { threads } | Scheduler::Async { threads, .. } => *threads,
        }
    }

    /// Worker threads after the [`effective_threads`] clamp.
    pub fn effective_threads(&self) -> usize {
        effective_threads("--threads", self.threads()).0
    }

    /// The async timing model; `None` under the sync scheduler.
    pub fn timing(&self) -> Option<&TimingConfig> {
        match self {
            Scheduler::Sync { .. } => None,
            Scheduler::Async { timing, .. } => Some(timing),
        }
    }

    /// Run one simulation under observation: the run ends when every
    /// (alive) node holds every message or the `config` cap (rounds, or
    /// the equivalent virtual time) is hit, and `probe` observes every
    /// semantic event along the way. The determinism contract extends to
    /// observation: the `SimResult` is byte-identical whether the probe
    /// is enabled or not ([`NoopProbe`](gossip_telemetry::NoopProbe)
    /// costs one branch per round), and an enabled probe sees the
    /// identical event sequence at any thread count. The engine's own
    /// clocks ride alongside the result, never inside it: results are a
    /// pure function of the inputs, and wall clocks are anything but.
    pub fn run_timed(
        &self,
        inputs: RunInputs<'_>,
        probe: &mut dyn Probe,
    ) -> (SimResult, EngineTimings) {
        match self {
            Scheduler::Sync { threads } => run_sync(*threads, inputs, probe),
            Scheduler::Async { timing, threads } => run_sliced(timing, *threads, inputs, probe),
        }
    }

    /// [`run_timed`](Self::run_timed) without the clocks.
    pub fn run(&self, inputs: RunInputs<'_>, probe: &mut dyn Probe) -> SimResult {
        self.run_timed(inputs, probe).0
    }
}

/// Clamp a requested thread count — a run's `--threads`, or a grid's
/// `--cores` — to the machine's available parallelism. Returns the
/// effective count and, when clamping occurred, a warning naming `flag`.
/// Results never depend on the clamp — the engines and the grid pool are
/// deterministic at any thread count — only throughput does.
pub fn effective_threads(flag: &str, requested: usize) -> (usize, Option<String>) {
    let available = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if requested > available {
        (
            available,
            Some(format!(
                "{flag} {requested} exceeds the machine's available parallelism; \
                 capping at {available} (results are identical, only throughput changes)"
            )),
        )
    } else {
        (requested, None)
    }
}

/// Where a run's wall time went, by engine, in the unit `bench` prints:
/// phase times are `f64` milliseconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EngineTimings {
    /// The sharded synchronous round loop.
    Sync(PhaseTimings),
    /// The time-sliced asynchronous event loop.
    Async(SliceTimings),
}

impl EngineTimings {
    /// How the engine's fixed 64-region partition was loaded: connections
    /// per region (sync), events per region (async).
    pub fn region_load(&self) -> &RegionLoad {
        match self {
            EngineTimings::Sync(p) => &p.connections_by_region,
            EngineTimings::Async(s) => &s.events_by_region,
        }
    }
}

/// A clock reading in the timings' unit.
pub(crate) fn ms(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e3
}

/// Shared run setup: seed the per-node message matrix from the sources,
/// count the initial coverage, and build a result skeleton (handles the
/// already-complete-at-time-zero case, e.g. a single-node topology).
pub(crate) fn init_run(
    inputs: &RunInputs<'_>,
    scheduler: &str,
) -> (MessageMatrix, Coverage, SimResult) {
    let n = inputs.topology.num_nodes();
    let k = inputs.sources.len();
    assert!(n > 0, "cannot simulate an empty topology");
    assert!(k > 0, "gossip needs at least one message");

    let mut states = MessageMatrix::new(n, k);
    for (m, &node) in inputs.sources.iter().enumerate() {
        states.insert(node.index(), m);
    }

    let cover = Coverage {
        informed: states.full_count(),
        held: states.total_messages(),
    };
    let complete_nodes = cover.informed;
    let result = SimResult {
        topology: inputs.topology.name().to_string(),
        protocol: inputs.protocol.name().to_string(),
        scheduler: scheduler.to_string(),
        nodes: n,
        messages: k,
        seed: inputs.seed,
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
        rounds: inputs
            .config
            .record_rounds
            .then(|| inputs.config.history_vec()),
    };
    (states, cover, result)
}

/// Shared run teardown, once `result.virtual_time` is final: the closing
/// coverage and each optional layer's stats.
pub(crate) fn finish_run(
    result: &mut SimResult,
    cover: &Coverage,
    under: Underlay,
    mem: Option<Membership>,
) {
    let dynr = match under {
        Underlay::Mutating(d) => Some(*d),
        Underlay::Frozen(_) => None,
    };
    result.complete_nodes = cover.informed;
    result.membership = mem.map(|m| m.finish(dynr.as_ref().map(|d| d.topo.alive_mask())));
    result.dynamics = dynr.map(|d| d.finish(SimTime(result.virtual_time), cover));
}

/// The connection and history tally both engines count through: run
/// totals, coverage, and the optional [`RoundStats`] rows. A connection
/// at time `t` belongs to row `ceil(t / TICKS_PER_ROUND)`, as in
/// [`SimTime::round_equivalent`]: the sync engine counts round `r`, then
/// closes row `r`; the sliced engine closes the rows before an event's.
#[derive(Default)]
pub(crate) struct Tally {
    /// Rows already closed; the open row is number `closed + 1`.
    closed: usize,
    /// Connections counted in the open row so far.
    connections: usize,
    /// Productive connections counted in the open row so far.
    productive: usize,
}

impl Tally {
    /// Count `formed` connections whose transfers moved `transfer`.
    pub fn count(
        &mut self,
        result: &mut SimResult,
        cover: &mut Coverage,
        formed: usize,
        transfer: TransferStats,
    ) {
        cover.informed += transfer.newly_full;
        cover.held += transfer.moved;
        result.total_connections += formed;
        result.productive_connections += transfer.productive;
        result.wasted_connections += formed - transfer.productive;
        self.connections += formed;
        self.productive += transfer.productive;
    }

    /// Close and record every row below `row`, leaving `row` open; rows
    /// stay dense and 1-based. A no-op when the run keeps no history.
    pub fn close_rows_below(&mut self, result: &mut SimResult, row: usize, cover: &Coverage) {
        let Some(history) = &mut result.rounds else {
            return;
        };
        while self.closed + 1 < row {
            history.push(RoundStats {
                round: self.closed + 1,
                connections: self.connections,
                productive: self.productive,
                complete_nodes: cover.informed,
                messages_held: cover.held,
            });
            self.connections = 0;
            self.productive = 0;
            self.closed += 1;
        }
    }
}

/// Tick the overlay at a boundary (a sync round, an async slice pass)
/// against the underlay that boundary's mutations left: the active view
/// of a mutating one, with its alive mask, else the frozen topology.
pub(crate) fn tick_membership(
    m: &mut Membership,
    under: &Underlay,
    seed: u64,
    tick: u64,
    probe: &mut dyn Probe,
) {
    match under {
        Underlay::Mutating(d) => m.tick(&d.topo, Some(d.topo.alive_mask()), seed, tick, probe),
        Underlay::Frozen(t) => m.tick(t, None, seed, tick, probe),
    }
}

/// Wall-clock milliseconds spent in each phase of the synchronous round
/// loop, summed across rounds, so `bench` can show *which* phase a thread
/// count is buying down.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseTimings {
    /// Phase 1: refreshing every node's advertisement tag.
    pub advertise: f64,
    /// Phase 2: every node scans neighbor tags and commits an intent.
    pub decide: f64,
    /// Phase 3: the partitioned matching resolver.
    pub matching: f64,
    /// Phase 4: push-pull transfer over the matched pairs.
    pub transfer: f64,
    /// The round-boundary mutation drain (`DynRun::drain_until`: stream
    /// pops, applies and the topology's settle). Zero on a static run.
    pub drain: f64,
    /// The drain's `DynamicTopology::settle`, also counted in `drain`.
    pub settle: f64,
    /// `Membership::tick`. Zero without an overlay.
    pub membership: f64,
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

/// The round loop behind [`Scheduler::Sync`], with its per-phase clocks
/// ([`PhaseTimings`], summed over rounds).
///
/// Every round: drain the mutations due in its window
/// `[(r-1)·TPR, r·TPR)` (so a departure "during" a round is visible
/// for the whole round — the natural discretization of the
/// continuous-time stream the asynchronous scheduler interleaves by
/// slice), tick the membership overlay against the settled underlay,
/// then run the four phases over a graph that stays frozen for the
/// round, so scan, intent, and matching are coherent. Static inputs
/// skip the first two steps entirely: the phase step is monomorphised
/// per graph type, so a frozen [`Topology`] is read directly, with no
/// alive mask.
fn run_sync(
    threads: usize,
    inputs: RunInputs<'_>,
    probe: &mut dyn Probe,
) -> (SimResult, EngineTimings) {
    let (states, mut cover, mut result) = init_run(&inputs, "sync");
    let RunInputs {
        topology,
        protocol,
        sources,
        seed,
        config,
        dynamics,
        membership,
    } = inputs;
    let n = topology.num_nodes();
    let mut under = Underlay::new(topology, dynamics, seed, &cover);
    let mut mem = membership.map(|cfg| Membership::new(n, *cfg));
    let mut phases = RoundPhases {
        protocol,
        seed,
        threads,
        states,
        ads: vec![Advertisement::default(); n],
        intents: vec![Intent::Idle; n],
        partition: Partition::of(n),
        timings: PhaseTimings::default(),
    };
    let mut tally = Tally::default();

    // Already complete at time zero (a single node, say): no round runs.
    if !result.completed {
        for round in 1..=config.max_rounds {
            let horizon = SimTime(round as u64 * TICKS_PER_ROUND);
            if let Some(d) = under.dynr_mut() {
                let draining = Instant::now();
                let drained = d.drain_until(
                    horizon,
                    &mut phases.states,
                    sources,
                    &mut cover,
                    probe,
                    |_| round as u64,
                    |_, _, _| {},
                );
                phases.timings.drain += ms(draining.elapsed());
                if drained.is_some() && cover.complete(d.topo.alive_count()) {
                    // Mutations alone completed gossip (the last uninformed
                    // node departed, or an informed one rejoined an already-
                    // covered network) — at the boundary closing round r-1.
                    // Only a drained one can: the last boundary found gossip
                    // incomplete, and only applied mutations move `cover`.
                    result.completed = true;
                    result.rounds_to_completion = Some(round - 1);
                    break;
                }
            }

            // Dead nodes neither advertise nor scan, active neighbor views
            // exclude them, and they cannot match — so both endpoints of
            // every transfer are alive and `cover` stays alive-only.
            let alive = under.dynr().map(|d| d.topo.alive_mask());
            if let Some(m) = mem.as_mut() {
                let ticking = Instant::now();
                tick_membership(m, &under, seed, round as u64, probe);
                phases.timings.membership += ms(ticking.elapsed());
            }
            let (resolution, transfer) = match (&mem, &under) {
                (Some(m), _) => phases.step(m, alive, round as u64, probe),
                (None, Underlay::Mutating(d)) => phases.step(&d.topo, alive, round as u64, probe),
                (None, Underlay::Frozen(t)) => phases.step(t, None, round as u64, probe),
            };

            let formed = resolution.connections.len();
            tally.count(&mut result, &mut cover, formed, transfer);
            tally.close_rows_below(&mut result, round + 1, &cover);
            result.rounds_executed = round;
            result.dropped_proposals += resolution.dropped_proposals;
            if let Some(d) = under.dynr_mut() {
                d.record(horizon, &cover);
            }

            if probe.enabled() {
                let (t, round) = (horizon.ticks(), round as u64);
                probe.record(&TraceEvent::new(EventKind::Round, t, round, &[]));
            }

            if cover.complete(under.dynr().map_or(n, |d| d.topo.alive_count())) {
                result.completed = true;
                result.rounds_to_completion = Some(round);
                break;
            }
        }
    }

    result.virtual_time = result.rounds_executed as u64 * TICKS_PER_ROUND;
    result.virtual_time_to_completion = result
        .rounds_to_completion
        .map(|r| r as u64 * TICKS_PER_ROUND);
    phases.timings.settle = under.dynr().map_or(0.0, |d| d.settle_ms);
    finish_run(&mut result, &cover, under, mem);
    (result, EngineTimings::Sync(phases.timings))
}

/// What every round's phases share: the run's constants, the per-node
/// buffers, and the phase clocks.
struct RoundPhases {
    protocol: Protocol,
    seed: u64,
    threads: usize,
    states: MessageMatrix,
    ads: Vec<Advertisement>,
    intents: Vec<Intent>,
    /// The matcher's regions, for the per-region load tally.
    partition: Partition,
    timings: PhaseTimings,
}

impl RoundPhases {
    /// One round's advertise → scan → connect → transfer over `graph`,
    /// the same sharded phases whatever the graph is — the frozen
    /// underlay, the active view of a mutating one (`alive` masks its
    /// dead nodes), or a membership overlay. Generic rather than `dyn` so
    /// each graph type keeps its own inlined neighbor reads.
    fn step<G: GraphView + Sync + ?Sized>(
        &mut self,
        graph: &G,
        alive: Option<&[bool]>,
        round: u64,
        probe: &mut dyn Probe,
    ) -> (Resolution, TransferStats) {
        let (protocol, states, seed, threads) =
            (self.protocol, &self.states, self.seed, self.threads);
        // Phases 1 and 2 shard over contiguous node ranges, one per worker;
        // node-indexed output slots *are* the merge in node order.
        let range = shard::per_worker(self.ads.len(), threads);

        // Phase 1: advertise — all tags published before anyone scans.
        let t0 = Instant::now();
        let mut ranges: Vec<_> = self.ads.chunks_mut(range).enumerate().collect();
        shard::for_each(threads, &mut ranges, |(w, out)| {
            advertise_range(*w * range, out, alive, protocol, states, round)
        });

        // Phase 2: every node scans and commits an intent.
        let t1 = Instant::now();
        let ads = &self.ads;
        let mut ranges: Vec<_> = self.intents.chunks_mut(range).enumerate().collect();
        shard::for_each(threads, &mut ranges, |(w, out)| {
            decide_range(
                *w * range,
                out,
                graph,
                alive,
                protocol,
                states,
                ads,
                seed,
                round,
            )
        });

        // Phase 3: connection resolution — the partitioned parallel
        // matching over a fixed region grid.
        let t2 = Instant::now();
        let resolution =
            resolve_connections_sharded(graph, &self.intents, seed, round, MATCH_REGIONS, threads);

        // Phase 4: push-pull transfer over the (node-disjoint) matched
        // pairs; a probe reads the round off the rows before the union.
        let t3 = Instant::now();
        if probe.enabled() {
            emit_round_events(probe, graph, &self.intents, &resolution, states, round);
        }
        let transfer = self.states.union_pairs(&resolution.connections);
        let t4 = Instant::now();

        let timings = &mut self.timings;
        timings.advertise += ms(t1 - t0);
        timings.decide += ms(t2 - t1);
        timings.matching += ms(t3 - t2);
        timings.transfer += ms(t4 - t3);
        for c in &resolution.connections {
            timings
                .connections_by_region
                .add(self.partition.region_of(c.initiator.index()), 1);
        }
        timings.confined_proposals += resolution.confined_proposals;
        timings.boundary_proposals += resolution.boundary_proposals;
        (resolution, transfer)
    }
}

/// Emit one synchronous round's events: every proposal in node order
/// (each immediately followed by its `Drop` if it crossed a non-edge),
/// every formed connection in resolution order, a `Reject` for each
/// proposer that ended the round unmatched (rebound included — a proposer
/// that connected to *any* listener succeeded), then every message each
/// connection will move, connection by connection in ascending message
/// order. Pure reads of already-resolved state, taken before the union:
/// the pairs are node-disjoint, so reading them all first is reading each
/// just before its own union, and tracing cannot perturb the run.
fn emit_round_events<G: GraphView + ?Sized>(
    probe: &mut dyn Probe,
    graph: &G,
    intents: &[Intent],
    resolution: &Resolution,
    states: &MessageMatrix,
    round: u64,
) {
    let t = round * TICKS_PER_ROUND;
    let mut emit = |kind, ids: &[u32]| {
        probe.record(&TraceEvent::new(kind, t, round, ids));
    };
    for (u, intent) in intents.iter().enumerate() {
        let Intent::Propose(v) = intent else { continue };
        emit(EventKind::Propose, &[u as u32, v.0]);
        if !graph.are_neighbors(NodeId(u as u32), *v) {
            emit(EventKind::Drop, &[u as u32, v.0]);
        }
    }
    let mut initiated = vec![false; intents.len()];
    for c in &resolution.connections {
        initiated[c.initiator.index()] = true;
        emit(EventKind::Connect, &[c.initiator.0, c.acceptor.0]);
    }
    for (u, intent) in intents.iter().enumerate() {
        let Intent::Propose(v) = intent else { continue };
        if !initiated[u] {
            emit(EventKind::Reject, &[u as u32, v.0]);
        }
    }
    for c in &resolution.connections {
        let (i, j) = (c.initiator, c.acceptor);
        states.view(i.index()).for_each_transfer(
            i.0,
            &states.view(j.index()),
            j.0,
            |from, to, msg| emit(EventKind::Transfer, &[from, to, msg]),
        );
    }
}

/// One worker's advertise pass over its node range: refresh the tag of
/// every (alive) node in `base..base + out.len()`. A dead node keeps its
/// last tag — membership views may still scan it until SWIM evicts the
/// peer — so only alive rows store.
fn advertise_range(
    base: usize,
    out: &mut [Advertisement],
    alive: Option<&[bool]>,
    protocol: Protocol,
    states: &MessageMatrix,
    round: u64,
) {
    for (i, ad) in out.iter_mut().enumerate() {
        let u = base + i;
        if alive.is_none_or(|mask| mask[u]) {
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
    protocol: Protocol,
    states: &MessageMatrix,
    ads: &[Advertisement],
    seed: u64,
    round: u64,
) {
    for (i, slot) in out.iter_mut().enumerate() {
        let u = base + i;
        if !alive.is_none_or(|mask| mask[u]) {
            *slot = Intent::Idle;
            continue;
        }
        let id = NodeId(u as u32);
        let ctx = NodeCtx {
            id,
            salt: round,
            messages: states.view(u),
            own_ad: ads[u],
            neighbors: graph.neighbors(id),
            tags: Tags::all(ads),
        };
        let mut rng = Rng::stream(seed, round, u as u64);
        *slot = protocol.decide(&ctx, &mut rng);
    }
}
