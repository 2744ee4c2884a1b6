//! The time-sliced parallel event engine behind [`Scheduler::Async`](crate::Scheduler::Async).
//!
//! A single event heap would execute every event in exact global
//! `(time, seq)` order — inherently sequential. This module trades that
//! total order for a *deterministic partial order* that parallelizes,
//! mirroring the design of the sharded matching resolver
//! (`resolve_connections_sharded`):
//!
//! - **Fixed partition.** Nodes are split into the regions of
//!   [`Partition::of`]`(n)` and virtual time into slices of
//!   [`SLICE_TICKS`] ticks. Neither is a function of the thread count, so
//!   every RNG draw below is partition-stable and the executed event
//!   sequence is byte-identical at any `threads`.
//! - **Per-region queues.** Each region owns a queue of the events it is
//!   responsible for: `Act(u)` belongs to `region(u)`,
//!   `Attempt { from, .. }` to `region(from)`, `Finish { initiator, .. }`
//!   to `region(initiator)`. Every event a region *pushes* lands in its
//!   own queue, so region queues never race. The queue is a
//!   [`TickQueue`] of 8 one-slice buckets: it pops in `(time, seq)`
//!   order, `seq` counting the region's pushes, mostly without comparing.
//!   A queued event is 20 bytes, its [`Ev`] packed into 16.
//! - **Slice passes.** Each pass picks a monotonically increasing slice
//!   index, then workers drain their regions' events up to the slice's
//!   last tick in local `(time, seq)` order, drawing from the per-pass stream
//!   `Rng::stream(seed, pass, SLICE_REGION_STREAM_BASE + region)`. Events
//!   whose *effects* would cross a region boundary — an `Attempt` whose
//!   acceptor lives in another region, a `Finish` whose endpoints
//!   straddle regions — are **deferred** untouched (no RNG consumed) to
//!   a serial **boundary sweep** at the slice edge, which executes them
//!   in `(time, region)` order against the `whole()` matcher and matrix
//!   chunks with its own stream `Rng::stream(seed, pass, SWEEP_STREAM)`.
//! - **One handler, one replay.** A worker and the sweep execute an
//!   `Attempt` or `Finish` through the same handler ([`Chunks::connect`]),
//!   which logs its effects as entries. One [`replay`] accounts an entry
//!   (drop and connection counters, completion detection, per-epoch
//!   history rows, trace events): after the fork joins it runs over the
//!   region logs merged in `(time, region)` order, and the sweep runs it
//!   over each event's entries before the next event. `SimResult`
//!   assembly is one deterministic sequence whichever worker did what.
//!
//! There is **one pass loop** ([`run_sliced`]) for every kind of input.
//! Dynamics keep slice granularity: phase 0 applies all mutations due
//! inside a slice serially at the *start* of the pass, before any of the
//! slice's events execute, through `Run::boundary` — the boundary the
//! synchronous scheduler crosses at its round starts. Its `applied` hook
//! untangles a departed node (severing its connection), restarts the
//! survivor's or rejoiner's act chain (stream
//! `Rng::stream(seed, pass, MUTATE_STREAM)`) and bumps the departed
//! node's generation. Deaths therefore precede every union of the slice,
//! and generation stamps lazily discard the dead node's queued events
//! when they pop. A static run is
//! the same loop with no `DynRun` to drain: the stamps stay zero, the
//! graph is the frozen `Topology`, and nothing dynamic is allocated.
//!
//! Relaxations vs. a globally time-ordered loop (all deterministic,
//! argued in ARCHITECTURE.md): events in different regions within a
//! slice interleave by region rather than globally by time; cross-region
//! scans read a start-of-slice advertisement snapshot; an event a sweep
//! schedules *inside* the current slice executes in the next pass.

use crate::run::{Graph, Run};
use crate::scheduler::{ms, EngineTimings, RunInputs};
use crate::SimResult;

use std::time::Instant;

use gossip_core::rng::{MUTATE_STREAM, SLICE_REGION_STREAM_BASE, SWEEP_STREAM};
use gossip_core::time::{SimTime, TimingConfig, TICKS_PER_ROUND};
use gossip_core::{
    append_by_tick, shard, Advertisement, IncrementalMatcher, Intent, MatcherChunk, MatrixChunk,
    NodeId, Partition, PeerState, Rng, TickQueue, TransferStats,
};
use gossip_dynamics::MutationKind;
use gossip_protocols::{NodeCtx, Protocol, Tags};
use gossip_telemetry::metrics::RegionLoad;
use gossip_telemetry::{EventKind, Probe, TraceEvent};

/// Width of one virtual-time slice. One nominal act period: long enough
/// that most act→attempt→finish chains stay inside a slice, short enough
/// that the advertisement snapshot cross-region scans read stays fresh.
pub const SLICE_TICKS: u64 = TICKS_PER_ROUND;

/// Wall-clock milliseconds of a sliced run by phase, for `bench`.
/// `execute` is the parallel region phase; `merge` the serial log merge +
/// accounting replay; `sweep` every other serial step of a slice.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct SliceTimings {
    /// Parallel region execution.
    pub execute: f64,
    /// Log merge + serial accounting replay.
    pub merge: f64,
    /// Serial boundary sweep, plus the start-of-slice mutation drain on
    /// dynamic runs and the membership tick under an overlay.
    pub sweep: f64,
    /// The drain's `DynamicTopology::settle`, also counted in `sweep`.
    pub settle: f64,
    /// Events executed (region pops + sweep executions; deferred events
    /// count once, where they execute).
    pub events: u64,
    /// Slice passes taken.
    pub slices: u64,
    /// `events` per second of the run's wall time, setup included — the
    /// async analogue of rounds/sec.
    pub events_per_sec: f64,
    /// Events popped per fixed region during the parallel phase (sweep
    /// executions are serial and excluded) — the load-balance signal for
    /// `bench`.
    pub events_by_region: RegionLoad,
}

/// The one event vocabulary of the sliced engine; static runs carry
/// all-zero generation stamps (no node ever dies, so the checks are
/// vacuously true) and share every code path with dynamic runs. Queues
/// keep events [`Packed`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ev {
    /// A node's act cycle, valid for one incarnation of the node.
    Act(NodeId, u32),
    /// `from`'s proposal arrives at `to` after connection-setup latency.
    Attempt { from: NodeId, to: NodeId, gen: u32 },
    /// The transfer over a formed connection completes.
    Finish {
        initiator: NodeId,
        acceptor: NodeId,
        gen_i: u32,
        gen_a: u32,
    },
}

impl Ev {
    /// The node whose region queues the event.
    fn owner(self) -> NodeId {
        match self {
            Ev::Act(u, _) | Ev::Attempt { from: u, .. } | Ev::Finish { initiator: u, .. } => u,
        }
    }

    /// The event in 16 bytes: the variant rides in the top two bits of
    /// the owner's id, which the matcher keeps below `2^30`
    /// ([`IncrementalMatcher::new`] asserts it in every build).
    fn pack(self) -> Packed {
        let (kind, owner, peer, gen, peer_gen) = match self {
            Ev::Act(u, gen) => (0, u, NodeId(0), gen, 0),
            Ev::Attempt { from, to, gen } => (1, from, to, gen, 0),
            Ev::Finish {
                initiator,
                acceptor,
                gen_i,
                gen_a,
            } => (2, initiator, acceptor, gen_i, gen_a),
        };
        Packed([kind << Packed::KIND_SHIFT | owner.0, peer.0, gen, peer_gen])
    }
}

/// An [`Ev`] in four words: the variant and the owner, the other node,
/// and the stamps of the owner and of the other node.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Packed([u32; 4]);

impl Packed {
    const KIND_SHIFT: u32 = 30;
    /// The owner's bits of the first word.
    const OWNER: u32 = (1 << Self::KIND_SHIFT) - 1;

    fn ev(self) -> Ev {
        let [word, peer, gen, peer_gen] = self.0;
        let owner = NodeId(word & Self::OWNER);
        match word >> Self::KIND_SHIFT {
            0 => Ev::Act(owner, gen),
            1 => Ev::Attempt {
                from: owner,
                to: NodeId(peer),
                gen,
            },
            _ => Ev::Finish {
                initiator: owner,
                acceptor: NodeId(peer),
                gen_i: gen,
                gen_a: peer_gen,
            },
        }
    }

    /// Overwrite every stamp this event carries for `node` with `stamp`.
    fn restamp(&mut self, node: NodeId, stamp: u32) {
        let ev = self.ev();
        let [_, peer, gen, peer_gen] = &mut self.0;
        if ev.owner() == node {
            *gen = stamp;
        }
        if matches!(ev, Ev::Finish { .. }) && *peer == node.0 {
            *peer_gen = stamp;
        }
    }
}

/// An event at its time: what the deferred lists hold. Its place in them
/// is its scheduling order.
#[derive(Clone, Copy, Debug)]
struct Timed {
    time: SimTime,
    event: Packed,
}

// One record per queued event: a 10^6-node run queues about one per node.
const _: () = assert!(std::mem::size_of::<Packed>() == 16);
const _: () = assert!(std::mem::size_of::<Timed>() <= 24);

/// What a worker or the sweep logs for [`replay`] to account. The first
/// two variants carry the run's accounting and are always logged; the
/// third exists purely for tracing and is logged only when a probe is
/// enabled, so the replay can emit the region phase's trace events in one
/// deterministic global order without the workers ever touching the
/// probe.
#[derive(Clone, Copy, Debug)]
enum EntryKind {
    /// A transfer completed: how many messages moved into the two rows
    /// (a row's count is a `u32`, and so is their sum: see
    /// `MessageMatrix`'s union), and how many endpoints (0–2) newly hold
    /// the full universe.
    Finish { moved: u32, newly_full: u8 },
    /// An attempt was rejected (busy acceptor, or a vanished edge on
    /// dynamic runs).
    Drop,
    /// Trace-only: the kind and ids of the [`TraceEvent`] to replay — a
    /// proposal, a connect, a reject (logged right after its `Drop`), or
    /// one message crossing a completed connection. A connection's
    /// transfers are logged *before* its `Finish` entry, so they replay
    /// ahead of the completion check they might trigger.
    Trace(EventKind, [u32; 3]),
}

/// One replay-log record, ordered by `(time, region)` at merge.
#[derive(Clone, Copy, Debug)]
struct Entry {
    time: u64,
    kind: EntryKind,
}

// Every finished or failed attempt moves an entry through the region log
// and the merge, traced or not: the trace-only variant must not widen it.
const _: () = assert!(std::mem::size_of::<Entry>() <= 24);

/// The trace event of `kind` at `now`, in the round-equivalent `now`
/// falls in.
fn event_at(kind: EventKind, now: SimTime, ids: &[u32]) -> TraceEvent {
    TraceEvent::new(kind, now.ticks(), now.round_equivalent() as u64, ids)
}

/// Tick spans the serial phases lay out by one counting pass. A pass's
/// merged logs and deferred events mostly fall in its own slice, but
/// chains the sweeps keep scheduling back into executed windows trail a
/// few slices behind (spans of 2-4 slices are routine on a busy grid).
const SERIAL_TICK_SPAN: u64 = 8 * SLICE_TICKS;

/// Slices past the horizon that own a bucket of a region's queue. A
/// refresh interval is below `4 * SLICE_TICKS` for every valid drift and
/// jitter, so with latencies of a few slices nothing lands beyond the
/// ring; what does (huge `max_latency`, times saturated at `u64::MAX`)
/// waits in the queue's far heap and costs no bucket per intervening
/// slice.
const RING_SLICES: usize = 8;

/// Per-region state that persists across slices: the event queue and
/// reusable deferred/log/scratch buffers (allocated once, drained every
/// pass).
#[derive(Default)]
struct RegionScratch {
    /// The region's events, all at rank 0: pops in `(time, push order)`.
    queue: TickQueue<Packed, RING_SLICES>,
    deferred: Vec<Timed>,
    log: Vec<Entry>,
    events: u64,
    last_time: u64,
}

impl RegionScratch {
    /// Record that an event executed (or was discarded as stale) here.
    fn note(&mut self, now: SimTime) {
        self.events += 1;
        self.last_time = self.last_time.max(now.ticks());
    }
}

/// Read-only context shared by every worker of one slice pass and by its
/// boundary sweep. The graphs are not in it ([`Graph`]): they may borrow
/// the run's `DynRun`, which the sweep's replays write to between events.
struct SliceCtx<'a> {
    protocol: Protocol,
    timing: &'a TimingConfig,
    drift: &'a [f64],
    /// Start-of-slice advertisement snapshot, read for *cross-region*
    /// neighbors (in-region neighbors read the live array). Empty, like
    /// the live array, under a protocol that reads no tags.
    ads_snap: &'a [Advertisement],
    gens: &'a [u32],
    seed: u64,
    pass: u64,
    /// Inclusive pop bound: `min(the slice's last tick, max_time)`.
    last: SimTime,
    part: Partition,
    /// Hoisted `probe.enabled()`: the handler logs the trace-only entries
    /// (and itemizes transfers) only when a probe will consume them.
    tracing: bool,
}

/// The chunks of the per-node arrays a connection event touches, all over
/// one node range: a region's, or every node's in the boundary sweep.
struct Chunks<'a> {
    matcher: MatcherChunk<'a>,
    states: MatrixChunk<'a>,
}

impl Chunks<'_> {
    /// Execute a live `Attempt` or `Finish` at `now` whose endpoints both
    /// lie in these chunks — the one handshake path, run by a region worker
    /// on its region's chunks and by the boundary sweep on the `whole()`
    /// ones. Effects go to `log` as [`Entry`] records for [`replay`]; the
    /// follow-up event its owner schedules is returned.
    ///
    /// On a static underlay (`graph.frozen`) every proposal crosses one of
    /// its edges (a membership overlay's views are subgraphs of it), which
    /// debug builds assert. Under dynamics an edge may vanish while a
    /// proposal is in flight; the *connect* check consults the current
    /// gossip graph, so a target that died, an edge that faded, a peer that
    /// moved away or an evicted view edge fails the attempt naturally.
    // Forced into both callers: out of line, the serial sweep ran ~40 %
    // slower on a 14 400-node async grid.
    #[inline(always)]
    fn connect(
        &mut self,
        ctx: &SliceCtx<'_>,
        graph: Graph<'_>,
        now: SimTime,
        ev: Ev,
        rng: &mut Rng,
        log: &mut Vec<Entry>,
    ) -> (SimTime, Ev) {
        let at = |kind| Entry {
            time: now.ticks(),
            kind,
        };
        match ev {
            Ev::Attempt { from, to, gen } => {
                // Debug only: in release the lookup took the sweep of
                // `async-grid-uniform` from 21.1 to 22.9 ms (15 pairs).
                debug_assert!(
                    graph.frozen.is_none_or(|t| t.are_neighbors(from, to)),
                    "protocol proposed {from} -> {to} across a non-edge"
                );
                if self.matcher.try_connect(graph.gossip, from, to) {
                    if ctx.tracing {
                        log.push(at(EntryKind::Trace(EventKind::Connect, [from.0, to.0, 0])));
                    }
                    let finish = Ev::Finish {
                        initiator: from,
                        acceptor: to,
                        gen_i: gen,
                        gen_a: ctx.gens[to.index()],
                    };
                    (now.after(ctx.timing.latency(rng)), finish)
                } else {
                    self.matcher.cancel(from);
                    log.push(at(EntryKind::Drop));
                    if ctx.tracing {
                        log.push(at(EntryKind::Trace(EventKind::Reject, [from.0, to.0, 0])));
                    }
                    let delay = ctx.timing.refresh_interval(ctx.drift[from.index()], rng);
                    (now.after(delay), Ev::Act(from, gen))
                }
            }
            Ev::Finish {
                initiator,
                acceptor,
                gen_i,
                ..
            } => {
                let (i, j) = (initiator.index(), acceptor.index());
                if ctx.tracing {
                    // Itemize the moved messages before the union, so the
                    // replay emits per-message transfer events ahead of
                    // this `Finish`.
                    let (row_i, row_j) = (self.states.view(i), self.states.view(j));
                    row_i.for_each_transfer(initiator.0, &row_j, acceptor.0, |from, to, msg| {
                        log.push(at(EntryKind::Trace(EventKind::Transfer, [from, to, msg])))
                    });
                }
                let stats = self.states.union_pair_stats(i, j);
                // The union counts `moved` in a `u32` and fills at most
                // both ends: neither conversion truncates.
                log.push(at(EntryKind::Finish {
                    moved: stats.moved as u32,
                    newly_full: stats.newly_full as u8,
                }));
                self.matcher.release(initiator, acceptor);
                let delay = ctx.timing.refresh_interval(ctx.drift[i], rng);
                (now.after(delay), Ev::Act(initiator, gen_i))
            }
            Ev::Act(..) => unreachable!("an act is not a connection event"),
        }
    }
}

/// The disjoint mutable state a worker owns for one region: its scratch,
/// its advertisements (none under a protocol that reads no tags) and the
/// region's [`Chunks`].
struct RegionTask<'a> {
    scratch: &'a mut RegionScratch,
    ads: &'a mut [Advertisement],
    chunks: Chunks<'a>,
}

/// Drain one region's events up to the pass's bound. Everything a region
/// event *touches* is in-region (acts touch only their node; attempts
/// and finishes with a cross-region peer are deferred before consuming
/// any randomness), so workers on different regions never observe each
/// other.
fn run_region(ctx: &SliceCtx<'_>, graph: Graph<'_>, task: &mut RegionTask<'_>) {
    let RegionTask {
        scratch,
        ads,
        chunks,
    } = task;
    // The nodes every chunk of the task spans: ownership is a range check.
    let owned = chunks.matcher.nodes();
    let base = owned.start;
    let r = ctx.part.region_of(base);
    let mut rng = Rng::stream(ctx.seed, ctx.pass, SLICE_REGION_STREAM_BASE + r as u64);
    let gens = ctx.gens;
    while let Some((now, _, event)) = scratch.queue.pop(ctx.last) {
        let ev = event.ev();
        // Whether every node the event names is the incarnation it was
        // scheduled for, and the other node it touches.
        let (live, peer) = match ev {
            Ev::Act(u, gen) => (gen == gens[u.index()], u),
            Ev::Attempt { from, to, gen } => (gen == gens[from.index()], to),
            Ev::Finish {
                initiator,
                acceptor,
                gen_i,
                gen_a,
            } => {
                let live = gen_i == gens[initiator.index()] && gen_a == gens[acceptor.index()];
                (live, acceptor)
            }
        };
        if live && !owned.contains(&peer.index()) {
            // Cross-region peer: defer to the boundary sweep before
            // consuming any randomness.
            scratch.deferred.push(Timed { time: now, event });
            continue;
        }
        scratch.note(now);
        if !live {
            continue; // a death since it was scheduled orphaned it
        }
        let Ev::Act(u, gen) = ev else {
            let (at, next) = chunks.connect(ctx, graph, now, ev, &mut rng, &mut scratch.log);
            scratch.queue.push(at, 0, next.pack());
            continue;
        };
        let ui = u.index();
        match chunks.matcher.state(u) {
            PeerState::Connected { .. } => {
                // Captured as a listener mid-connection: keep the act
                // chain alive and re-decide later.
                let delay = ctx.timing.refresh_interval(ctx.drift[ui], &mut rng);
                scratch
                    .queue
                    .push(now.after(delay), 0, Ev::Act(u, gen).pack());
            }
            // A node's chain holds one event at a time, and while it
            // proposes that event is its Attempt.
            PeerState::Proposing => unreachable!("act event fired for a proposing node"),
            state => {
                if state == PeerState::Listening {
                    chunks.matcher.cancel(u);
                }
                let epoch = now.epoch();
                let own_ad = match ctx.protocol.reads_tags() {
                    true => {
                        let ad = ctx.protocol.advertise(chunks.states.view(ui), epoch);
                        ads[ui - base] = ad;
                        ad
                    }
                    false => Advertisement::default(),
                };
                let node_ctx = NodeCtx {
                    id: u,
                    salt: epoch,
                    messages: chunks.states.view(ui),
                    own_ad,
                    neighbors: graph.gossip.neighbors(u),
                    tags: Tags::split(ads, base, ctx.ads_snap),
                };
                match ctx.protocol.decide(&node_ctx, &mut rng) {
                    Intent::Propose(v) => {
                        chunks.matcher.propose(u);
                        if ctx.tracing {
                            scratch.log.push(Entry {
                                time: now.ticks(),
                                kind: EntryKind::Trace(EventKind::Propose, [u.0, v.0, 0]),
                            });
                        }
                        let delay = ctx.timing.latency(&mut rng);
                        let attempt = Ev::Attempt {
                            from: u,
                            to: v,
                            gen,
                        };
                        scratch.queue.push(now.after(delay), 0, attempt.pack());
                    }
                    intent => {
                        if intent == Intent::Listen {
                            chunks.matcher.listen(u);
                        }
                        let delay = ctx.timing.refresh_interval(ctx.drift[ui], &mut rng);
                        scratch
                            .queue
                            .push(now.after(delay), 0, Ev::Act(u, gen).pack());
                    }
                }
            }
        }
    }
}

/// Account one logged effect at its place in the serial order — the merge
/// replays every region-log entry, the sweep each entry its events log:
/// flush the history rows before it, count a drop or a finished transfer,
/// emit its trace event, and, after a transfer, sample the coverage
/// timeline and say whether gossip just completed (stamping the time).
// Forced into both callers, like `Chunks::connect`: out of line, the
// merge ran ~20 % slower.
#[inline(always)]
fn replay(e: &Entry, run: &mut Run<'_>, probe: &mut dyn Probe) -> bool {
    let now = SimTime(e.time);
    match e.kind {
        EntryKind::Trace(kind, ids) => probe.record(&TraceEvent {
            t: e.time,
            round: now.round_equivalent() as u64,
            kind,
            ids,
        }),
        EntryKind::Drop => {
            run.close_rows_below(now.round_equivalent().max(1));
            run.result.dropped_proposals += 1;
        }
        EntryKind::Finish { moved, newly_full } => {
            run.close_rows_below(now.round_equivalent().max(1));
            let transfer = TransferStats {
                moved: moved as usize,
                productive: (moved > 0) as usize,
                newly_full: newly_full as usize,
            };
            run.count(1, transfer);
            if run.covered(now) {
                run.complete(now.round_equivalent(), e.time);
                return true;
            }
        }
    }
    false
}

/// Start `node`'s next incarnation: every event queued against an earlier
/// one turns stale. Stamps are `u32`, and a node may depart more than
/// 2^32 times in a long churned run while an event of an old incarnation
/// waits (latencies are unbounded), so a wrap is rebased rather than
/// allowed to alias: the stamp skips 0, and every queued stamp of the
/// node — all stale, as it is departing — becomes 0, which no incarnation
/// after the first ever has again. Between wraps a stale stamp differs
/// from the current one, and a wrap rewrites it before it could match.
fn next_incarnation(gens: &mut [u32], scratches: &mut [RegionScratch], node: NodeId) {
    let gen = &mut gens[node.index()];
    *gen = match gen.checked_add(1) {
        Some(next) => next,
        None => {
            for s in scratches.iter_mut() {
                // Mutations apply between passes, with nothing deferred.
                assert!(s.deferred.is_empty(), "a stamp wrap mid-pass");
                s.queue.for_each_mut(|ev| ev.restamp(node, 0));
            }
            1
        }
    };
}

/// The sliced engine: the one pass loop behind
/// [`Scheduler::Async`](crate::Scheduler::Async). Byte-identical to itself
/// at any `threads`; see the module docs for the determinism argument.
///
/// Each slice starts at the run's boundary (phase 0: the slice's
/// mutations, then the overlay's tick, as at a sync round's start); the
/// event phases then run over the gossip graph with generation-stamp
/// checks in play. On static inputs phase 0 does nothing, no timeline is
/// sampled and the stamps stay all-zero.
///
/// Tracing rides the replay: the handler logs trace-only entries (never
/// touching the probe or any RNG), and the run's boundary and [`replay`]
/// are the only places `probe.record` is called, so the emitted stream is
/// one deterministic global order at any thread count.
pub(crate) fn run_sliced(
    timing: &TimingConfig,
    threads: usize,
    inputs: RunInputs<'_>,
    probe: &mut dyn Probe,
) -> (SimResult, EngineTimings) {
    let started = Instant::now();
    timing
        .validate()
        .unwrap_or_else(|e| panic!("invalid timing config: {e}"));
    let (mut states, mut run) = Run::open(inputs, "async");
    let (protocol, seed, n) = (run.protocol, run.seed, run.result.nodes);
    let mut rng = Rng::new(seed);
    let mut timings = SliceTimings::default();

    let max_time = (run.max_rounds as u64).saturating_mul(TICKS_PER_ROUND);
    let drift: Vec<f64> = (0..n).map(|_| timing.drift_factor(&mut rng)).collect();
    // Every node publishes an initial epoch-0 tag before anyone scans —
    // under a protocol that reads tags; any other keeps none.
    let mut ads: Vec<_> = match protocol.reads_tags() {
        true => (0..n)
            .map(|u| protocol.advertise(states.view(u), 0))
            .collect(),
        false => Vec::new(),
    };
    let mut ads_snap = ads.clone();
    let mut matcher = IncrementalMatcher::new(n);
    // A node's incarnation number; death bumps it, orphaning every event
    // queued against the old incarnation. All-zero on static runs.
    let mut gens: Vec<u32> = vec![0; n];

    let part = Partition::of(n);
    let mut scratches: Vec<RegionScratch> = (0..part.regions)
        .map(|_| RegionScratch::default())
        .collect();

    // Stagger initial act cycles uniformly over the first nominal period,
    // so the network does not start phase-locked.
    for u in 0..n {
        let offset = rng.gen_range(TICKS_PER_ROUND as usize) as u64;
        scratches[part.region_of(u)].queue.push(
            SimTime(offset),
            0,
            Ev::Act(NodeId(u as u32), 0).pack(),
        );
    }

    let mut merged: Vec<Entry> = Vec::new();
    let mut sweep_q: Vec<Timed> = Vec::new();
    let mut sweep_log: Vec<Entry> = Vec::new();
    let mut sweep_events: u64 = 0;
    let mut last_time: u64 = 0;
    let mut prev_pass: Option<u64> = None;
    let tracing = probe.enabled();

    let now_ticks: u64 = 'run: loop {
        if run.result.completed {
            // Already complete at time zero (a single node, say).
            break 'run 0;
        }
        let next = scratches
            .iter()
            .filter_map(|s| s.queue.earliest())
            .chain(run.next_mutation())
            .min()
            .map(SimTime::ticks);
        let Some(next_t) = next else {
            break 'run last_time;
        };
        if next_t > max_time {
            break 'run max_time;
        }
        // Monotonic pass index: each (pass, region) stream is used at
        // most once even when a sweep schedules events back inside an
        // already-executed slice window (they run in the next pass).
        let pass = prev_pass.map_or(next_t / SLICE_TICKS, |p| (p + 1).max(next_t / SLICE_TICKS));
        prev_pass = Some(pass);
        timings.slices += 1;
        let start = pass.saturating_mul(SLICE_TICKS);
        let last = SimTime(start.saturating_add(SLICE_TICKS - 1).min(max_time));
        if tracing {
            probe.record(&TraceEvent::new(EventKind::Slice, start, pass, &[]));
        }

        // Phase 0 (serial): apply every mutation due inside this slice
        // before any of its events execute, so deaths precede the slice's
        // unions both physically and in the accounting; then tick the
        // overlay, so the failure detector sees a departure the very slice
        // it happens, a rejoiner can re-join immediately, and the whole
        // slice executes against frozen views.
        let mut rng_mut = Rng::stream(seed, pass, MUTATE_STREAM);
        let mut untangle = matcher.whole();
        let drained = run.boundary(
            last,
            pass,
            |t| t.round_equivalent() as u64,
            &mut states,
            probe,
            |mutation, stats, probe| {
                let mtime = mutation.time;
                let restart = match mutation.kind {
                    MutationKind::Depart(u) => {
                        // Untangle the departed node. A survivor that
                        // initiated had its act chain parked on the Finish
                        // event dying with this connection.
                        let survivor = match untangle.state(u) {
                            PeerState::Free => None,
                            PeerState::Listening | PeerState::Proposing => {
                                untangle.cancel(u);
                                None
                            }
                            PeerState::Connected {
                                partner: v,
                                initiated,
                            } => {
                                untangle.release(u, v);
                                stats.severed_connections += 1;
                                if probe.enabled() {
                                    let ids = [u.0, v.0];
                                    probe.record(&event_at(EventKind::Sever, mtime, &ids));
                                }
                                (!initiated).then_some(v)
                            }
                        };
                        next_incarnation(&mut gens, &mut scratches, u);
                        survivor
                    }
                    // The revived node starts a fresh act chain.
                    MutationKind::Rejoin { node, .. } => Some(node),
                    _ => None,
                };
                if let Some(v) = restart {
                    let delay = timing.refresh_interval(drift[v.index()], &mut rng_mut);
                    scratches[part.region_of(v.index())].queue.push(
                        mtime.after(delay),
                        0,
                        Ev::Act(v, gens[v.index()]).pack(),
                    );
                }
            },
        );
        if let Some(t) = drained {
            // Mutations alone completed gossip.
            run.complete(t.round_equivalent(), t.ticks());
            break 'run t.ticks();
        }

        // Phase A: parallel region execution over the gossip graph,
        // against a start-of-slice advertisement snapshot (an empty copy
        // under a protocol that reads no tags).
        let t0 = Instant::now();
        ads_snap.copy_from_slice(&ads);
        let ctx = SliceCtx {
            protocol,
            timing,
            drift: &drift,
            ads_snap: &ads_snap,
            gens: &gens,
            seed,
            pass,
            last,
            part,
            tracing,
        };
        {
            // One task per region: its scratch and its disjoint chunk of
            // every per-node array. The tags are not zipped in: an empty
            // array has no chunks, and would yield no tasks.
            let mut ad_chunks = ads.chunks_mut(part.block);
            let mut tasks: Vec<RegionTask<'_>> = scratches
                .iter_mut()
                .zip(matcher.region_chunks(part.block))
                .zip(states.region_chunks(part.block))
                .map(|((scratch, matcher), states)| RegionTask {
                    scratch,
                    ads: ad_chunks.next().unwrap_or_default(),
                    chunks: Chunks { matcher, states },
                })
                .collect();
            let graph = run.graph();
            shard::for_each(threads, &mut tasks, |task| run_region(&ctx, graph, task));
        }
        timings.execute += ms(t0.elapsed());

        // Phase B: merge region logs in (time, region) order and replay
        // them serially. On dynamic runs both endpoints of every logged
        // transfer were alive for the whole slice (deaths applied in phase
        // 0 bumped generations, so their events discarded), which keeps
        // `cover` alive-only.
        let t1 = Instant::now();
        merged.clear();
        // Region logs are individually time-sorted; a stable order keyed
        // on time alone keeps region order as the tie-break.
        append_by_tick(
            scratches.iter().flat_map(|s| s.log.iter()),
            &mut merged,
            SERIAL_TICK_SPAN,
            |e| e.time,
        );
        for s in scratches.iter_mut() {
            last_time = last_time.max(s.last_time);
            s.log.clear();
        }
        for e in merged.iter() {
            if replay(e, &mut run, probe) {
                timings.merge += ms(t1.elapsed());
                break 'run e.time;
            }
        }
        timings.merge += ms(t1.elapsed());

        // Phase C: serial boundary sweep over the deferred cross-region
        // events, in (time, region) order, through the same handler on the
        // `whole()` chunks; each event's entries replay before the next
        // event runs.
        let t2 = Instant::now();
        sweep_q.clear();
        append_by_tick(
            scratches.iter().flat_map(|s| s.deferred.iter()),
            &mut sweep_q,
            SERIAL_TICK_SPAN,
            |ev| ev.time.ticks(),
        );
        for s in scratches.iter_mut() {
            s.deferred.clear();
        }
        let mut rng_sweep = Rng::stream(seed, pass, SWEEP_STREAM);
        let mut whole = Chunks {
            matcher: matcher.whole(),
            states: states.whole(),
        };
        for ev in sweep_q.iter() {
            let now = ev.time;
            last_time = last_time.max(now.ticks());
            sweep_events += 1;
            run.close_rows_below(now.round_equivalent().max(1));
            let (at, next) = whole.connect(
                &ctx,
                run.graph(),
                now,
                ev.event.ev(),
                &mut rng_sweep,
                &mut sweep_log,
            );
            scratches[part.region_of(next.owner().index())]
                .queue
                .push(at, 0, next.pack());
            for e in sweep_log.drain(..) {
                if replay(&e, &mut run, probe) {
                    timings.sweep += ms(t2.elapsed());
                    break 'run e.time;
                }
            }
        }
        timings.sweep += ms(t2.elapsed());
    };

    run.result.virtual_time = now_ticks.min(max_time);
    run.result.rounds_executed = SimTime(run.result.virtual_time)
        .round_equivalent()
        .min(run.max_rounds);
    timings.sweep += run.clocks.drain + run.clocks.membership;
    timings.settle = run.clocks.settle;
    let result = run.finish();
    timings.events = scratches.iter().map(|s| s.events).sum::<u64>() + sweep_events;
    for (r, s) in scratches.iter().enumerate() {
        timings.events_by_region.add(r, s.events);
    }
    timings.events_per_sec = timings.events as f64 / started.elapsed().as_secs_f64().max(1e-9);
    (result, EngineTimings::Async(timings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_ownership_by_range_equals_the_block_division() {
        // `run_region`'s range over the chunks a pass carves must
        // agree with `id / block == r` at both edges of every region.
        for n in [1usize, 63, 64, 65, 1000, 14_400, 1_000_001] {
            let block = Partition::of(n).block;
            for (r, chunk) in vec![(); n].chunks(block).enumerate() {
                let base = r * block;
                let owned = base..base + chunk.len();
                let edges = [base.wrapping_sub(1), base, owned.end - 1, owned.end];
                for id in edges.into_iter().filter(|&id| id < n) {
                    assert_eq!(owned.contains(&id), id / block == r, "n {n} r {r} id {id}");
                }
            }
        }
    }

    #[test]
    fn a_wrapping_stamp_rebases_the_nodes_queued_events() {
        let (u, v) = (NodeId(0), NodeId(2));
        // Events naming `u` at its current and an older stamp, and one of
        // `v`'s; one far in the heap. Regions are two nodes wide.
        let queued = |now, older| {
            let finish = Ev::Finish {
                initiator: v,
                acceptor: u,
                gen_i: 9,
                gen_a: now,
            };
            [
                (5, Ev::Act(u, now)),
                (
                    3 * SLICE_TICKS,
                    Ev::Attempt {
                        from: u,
                        to: NodeId(1),
                        gen: older,
                    },
                ),
                (SLICE_TICKS + 1, finish),
                (u64::MAX - 1, Ev::Act(v, 9)),
            ]
        };
        for (gen, next, stale) in [(3, 4, (3, 2)), (u32::MAX, 1, (0, 0))] {
            let mut gens = vec![gen, 0, 9];
            let mut scratches: Vec<RegionScratch> = (0..2).map(|_| Default::default()).collect();
            for (t, ev) in queued(gen, gen - 1) {
                scratches[ev.owner().index() / 2]
                    .queue
                    .push(SimTime(t), 0, ev.pack());
            }
            next_incarnation(&mut gens, &mut scratches, u);
            assert_eq!(gens, [next, 0, 9]);
            // On a wrap every stamp of `u` becomes the 0 no later
            // incarnation takes; `v`'s stay put.
            let mut want = queued(stale.0, stale.1);
            want.sort_by_key(|&(t, ev)| (ev.owner().index() / 2, t));
            let got: Vec<(u64, Ev)> = scratches
                .iter_mut()
                .flat_map(|s| std::iter::from_fn(|| s.queue.pop(SimTime(u64::MAX))))
                .map(|(time, _, event)| (time.ticks(), event.ev()))
                .collect();
            assert_eq!(got, want, "gen {gen}");
        }
    }
}
