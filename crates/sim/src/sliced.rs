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
//!   own queue, so region queues never race. The queue pops in
//!   `(time, seq)` order without comparing its way there: a pass only
//!   ever pops below its slice end and `seq` grows with every push, so
//!   an event is appended to the bucket of the slice it falls in, and a
//!   bucket is put in tick order by one stable counting pass when a
//!   pass reaches its slice — equal ticks keep push order, which is
//!   `seq` order. Only events scheduled *below* the opened horizon (an
//!   attempt or finish inside the running slice, a sweep scheduling back
//!   into an executed window) or beyond a short ring of upcoming slices
//!   (huge latencies, saturated times) sit in a small binary heap that
//!   each pop compares against the head of the opened run.
//! - **Slice passes.** Each pass picks a monotonically increasing slice
//!   index, then workers drain their regions' events below the slice end
//!   in local `(time, seq)` order, drawing from the per-pass stream
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
//! slice's events execute, through `DynRun::drain_until` — the drain the
//! synchronous scheduler runs at its round boundaries. Its `applied` hook
//! untangles a departed node (severing its connection), restarts the
//! survivor's or rejoiner's act chain (stream
//! `Rng::stream(seed, pass, MUTATE_STREAM)`) and bumps the departed
//! node's generation. Deaths therefore precede every union of the slice,
//! and generation stamps lazily discard the dead node's queued events
//! when they pop. A static run is
//! the same loop with no `DynRun` to drain: the stamps stay zero, the
//! graph is the frozen [`Topology`], and nothing dynamic is allocated.
//!
//! Relaxations vs. a globally time-ordered loop (all deterministic,
//! argued in ARCHITECTURE.md): events in different regions within a
//! slice interleave by region rather than globally by time; cross-region
//! scans read a start-of-slice advertisement snapshot; an event a sweep
//! schedules *inside* the current slice executes in the next pass.

use crate::dynamic::{Coverage, Underlay};
use crate::scheduler::{
    finish_run, init_run, ms, tick_membership, EngineTimings, RunInputs, Tally,
};
use crate::SimResult;

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::time::Instant;

use gossip_core::rng::{MUTATE_STREAM, SLICE_REGION_STREAM_BASE, SWEEP_STREAM};
use gossip_core::time::{SimTime, TimingConfig, TICKS_PER_ROUND};
use gossip_core::{
    shard, Advertisement, GraphView, IncrementalMatcher, Intent, MatcherChunk, MatrixChunk, NodeId,
    Partition, PeerState, Rng, Topology, TransferStats,
};
use gossip_dynamics::MutationKind;
use gossip_membership::Membership;
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
/// vacuously true) and share every code path with dynamic runs.
#[derive(Clone, Copy, Debug)]
enum Ev {
    /// A node's act cycle, valid for one incarnation of the node.
    Act(NodeId, u64),
    /// `from`'s proposal arrives at `to` after connection-setup latency.
    Attempt { from: NodeId, to: NodeId, gen: u64 },
    /// The transfer over a formed connection completes.
    Finish {
        initiator: NodeId,
        acceptor: NodeId,
        gen_i: u64,
        gen_a: u64,
    },
}

impl Ev {
    /// The node whose region queues the event.
    fn owner(self) -> NodeId {
        match self {
            Ev::Act(u, _) | Ev::Attempt { from: u, .. } | Ev::Finish { initiator: u, .. } => u,
        }
    }
}

/// What a worker or the sweep logs for [`replay`] to account. The first
/// two variants carry the run's accounting and are always logged; the
/// third exists purely for tracing and is logged only when a probe is
/// enabled, so the replay can emit the region phase's trace events in one
/// deterministic global order without the workers ever touching the
/// probe.
#[derive(Clone, Copy, Debug)]
enum EntryKind {
    /// A transfer completed: how many messages moved, and how many
    /// endpoints newly hold the full universe.
    Finish { moved: usize, newly_full: usize },
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
const _: () = assert!(std::mem::size_of::<Entry>() <= 32);

/// The trace event of `kind` at `now`, in the round-equivalent `now`
/// falls in.
fn event_at(kind: EventKind, now: SimTime, ids: &[u32]) -> TraceEvent {
    TraceEvent::new(kind, now.ticks(), now.round_equivalent() as u64, ids)
}

/// Tick counters the serial phases hand to [`append_by_tick`]. A pass's
/// merged logs and deferred events mostly fall in its own slice, but
/// chains the sweeps keep scheduling back into executed windows trail a
/// few slices behind (spans of 2-4 slices are routine on a busy grid).
const SERIAL_TICK_COUNTERS: usize = 8 * SLICE_TICKS as usize;

/// Inputs shorter than this are cheaper to comparison-sort than to zero
/// and prefix-sum a slice's worth of counters for.
const COUNTING_MIN_LEN: usize = 64;

/// Append the items of `src` to `dst` in ascending `tick` order, items
/// of equal tick in `src` order — what `sort_by_key(tick)` gives, by one
/// counting pass (no comparisons) whenever the ticks span no more values
/// than there are `counters`, whose contents on entry do not matter.
fn append_by_tick<'a, T: Copy + 'a>(
    src: impl Iterator<Item = &'a T> + Clone,
    dst: &mut Vec<T>,
    counters: &mut [u32],
    tick: impl Fn(&T) -> u64,
) {
    let start = dst.len();
    dst.reserve(src.size_hint().0);
    let (mut lo, mut hi) = (u64::MAX, 0);
    for item in src.clone() {
        let t = tick(item);
        lo = lo.min(t);
        hi = hi.max(t);
        dst.push(*item);
    }
    let len = dst.len() - start;
    // `u32` counters: longer inputs (never seen; > 128 GiB of events)
    // take the comparison path rather than a wider, slower counter.
    if len < COUNTING_MIN_LEN || len > u32::MAX as usize || hi - lo >= counters.len() as u64 {
        dst[start..].sort_by_key(tick);
        return;
    }
    let next = &mut counters[..=(hi - lo) as usize];
    next.fill(0);
    for item in src.clone() {
        next[(tick(item) - lo) as usize] += 1;
    }
    // Counts become each tick's first output position...
    let mut at = 0;
    for slot in next.iter_mut() {
        at += std::mem::replace(slot, at);
    }
    // ...and every item lands at its tick's next free one.
    let out = &mut dst[start..];
    for item in src {
        let slot = &mut next[(tick(item) - lo) as usize];
        out[*slot as usize] = *item;
        *slot += 1;
    }
}

/// Queue entry: events fire in `(time, seq)` order. `seq` is a unique,
/// monotonically increasing tie-breaker, so simultaneous events fire in
/// scheduling order and the execution is deterministic.
#[derive(Clone, Copy, Debug)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    // Reversed: BinaryHeap is a max-heap, and we want the earliest event.
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Slices past the opened horizon that own a bucket. A refresh interval
/// is below `4 * SLICE_TICKS` for every valid drift and jitter, so with
/// latencies of a few slices nothing lands beyond the ring; what does
/// (huge `max_latency`, times saturated at `u64::MAX`) waits in the heap
/// and costs no bucket per intervening slice.
const RING_SLICES: usize = 8;

/// The events queued for one upcoming slice, in push (= `seq`) order.
#[derive(Default)]
struct Bucket {
    events: Vec<Scheduled<Ev>>,
    /// Earliest time in `events`; meaningless while it is empty.
    min: u64,
}

/// A region's event queue: pops in exactly the `(time, seq)` order of a
/// `BinaryHeap<Scheduled<Ev>>` fed the same pushes (the unit tests drive
/// both), given what the slice passes guarantee — the `end` bounds passed
/// to [`pop_below`](Self::pop_below) never decrease.
///
/// Invariant: every event in `ring[i]` falls in slice
/// `horizon / SLICE_TICKS + i` and at or past `horizon`; every queued
/// event below `horizon` is in `run` or `heap`. `pop_below(end)` first
/// raises the horizon to `end`, so the buckets never hold a candidate
/// and the earlier of the two heads is the earliest queued event.
#[derive(Default)]
struct SliceQueue {
    /// Tie-breaker stamped on every push. Region-local, so region pop
    /// order is deterministic without any global coordination; monotone,
    /// so a bucket's push order is its `seq` order.
    seq: u64,
    /// The largest `end` popped below so far, in ticks.
    horizon: u64,
    ring: [Bucket; RING_SLICES],
    /// The opened buckets' events in `(time, seq)` order; `run[cursor..]`
    /// are still queued. Allocated when a pass opens a bucket and freed
    /// when the pass has read it all, so the allocator hands the same
    /// hot block from region to region and a region at rest holds one
    /// copy of its events, not two.
    run: Vec<Scheduled<Ev>>,
    cursor: usize,
    /// Events pushed below the horizon or beyond the ring.
    heap: BinaryHeap<Scheduled<Ev>>,
}

impl SliceQueue {
    fn push(&mut self, time: SimTime, event: Ev) {
        self.seq += 1;
        let ev = Scheduled {
            time,
            seq: self.seq,
            event,
        };
        let t = time.ticks();
        // Slices past the horizon's own; garbage when `t` is below it.
        let ahead = (t / SLICE_TICKS).wrapping_sub(self.horizon / SLICE_TICKS);
        if t < self.horizon || ahead >= RING_SLICES as u64 {
            self.heap.push(ev);
            return;
        }
        let bucket = &mut self.ring[ahead as usize];
        bucket.min = match bucket.events.is_empty() {
            true => t,
            false => bucket.min.min(t),
        };
        bucket.events.push(ev);
    }

    /// Time of the earliest queued event.
    fn earliest(&self) -> Option<u64> {
        // Buckets cover ascending slices: the first non-empty one holds
        // the earliest bucketed event.
        let bucketed = self.ring.iter().find(|b| !b.events.is_empty());
        [
            self.run.get(self.cursor).map(|ev| ev.time.ticks()),
            self.heap.peek().map(|ev| ev.time.ticks()),
            bucketed.map(|b| b.min),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// Pop the earliest queued event if its time is below `end`.
    fn pop_below(&mut self, end: u64) -> Option<Scheduled<Ev>> {
        if self.horizon < end {
            self.open_below(end);
        }
        let run_head = self.run.get(self.cursor);
        let heap_head = self.heap.peek();
        let from_run = match (run_head, heap_head) {
            (Some(r), Some(h)) => (r.time, r.seq) < (h.time, h.seq),
            (r, _) => r.is_some(),
        };
        if from_run {
            let ev = *run_head?;
            (ev.time.ticks() < end).then(|| {
                self.cursor += 1;
                ev
            })
        } else if heap_head.is_some_and(|h| h.time.ticks() < end) {
            self.heap.pop()
        } else {
            if self.cursor == self.run.len() {
                self.run = Vec::new();
                self.cursor = 0;
            }
            None
        }
    }

    /// Raise the horizon to `end`: lay the bucket of every slice that
    /// ends at or before it out behind the unread tail of the run (whose
    /// events are all earlier than any bucketed one).
    fn open_below(&mut self, end: u64) {
        self.run.drain(..self.cursor);
        self.cursor = 0;
        // A bucket spans one slice; 4 KiB of stack per call instead of
        // resident counters per region.
        let mut counters = [0u32; SLICE_TICKS as usize];
        while self.horizon / SLICE_TICKS < end / SLICE_TICKS {
            if self.ring.iter().all(|b| b.events.is_empty()) {
                // Nothing bucketed: skip the remaining slices at once.
                break;
            }
            append_by_tick(
                self.ring[0].events.iter(),
                &mut self.run,
                &mut counters,
                |ev| ev.time.ticks(),
            );
            self.ring[0].events.clear();
            // Every later bucket moves one slice nearer — its events,
            // not its buffer: `ring[0]` alone ever fills up, the others
            // stay as small as the few events scheduled that far ahead,
            // and no bucket allocates in steady state.
            for i in 1..RING_SLICES {
                let (nearer, farther) = self.ring.split_at_mut(i);
                let (nearer, farther) = (&mut nearer[i - 1], &mut farther[0]);
                if !farther.events.is_empty() {
                    nearer.events.append(&mut farther.events);
                    nearer.min = farther.min;
                }
            }
            self.horizon = (self.horizon / SLICE_TICKS + 1) * SLICE_TICKS;
        }
        self.horizon = end;
        // An `end` inside a slice is the run's cap (`max_time + 1`): the
        // few events of that slice below it take the heap, and the rest
        // of the bucket waits for an `end` past its slice — in a run,
        // forever — instead of being laid out for nobody.
        let cut = &mut self.ring[0];
        if !cut.events.is_empty() && cut.min < end {
            let below = |ev: &Scheduled<Ev>| ev.time.ticks() < end;
            self.heap.extend(cut.events.iter().copied().filter(below));
            cut.events.retain(|ev| !below(ev));
            cut.min = cut
                .events
                .iter()
                .map(|ev| ev.time.ticks())
                .min()
                .unwrap_or(0);
        }
    }
}

/// Per-region state that persists across slices: the event queue and
/// reusable deferred/log/scratch buffers (allocated once, drained every
/// pass).
#[derive(Default)]
struct RegionScratch {
    queue: SliceQueue,
    deferred: Vec<Scheduled<Ev>>,
    log: Vec<Entry>,
    events: u64,
    last_time: u64,
}

impl RegionScratch {
    /// Schedule `event` at `time` in this region's queue.
    fn push(&mut self, time: SimTime, event: Ev) {
        self.queue.push(time, event);
    }

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
    /// neighbors (in-region neighbors read the live array).
    ads_snap: &'a [Advertisement],
    gens: &'a [u64],
    seed: u64,
    pass: u64,
    /// Exclusive pop bound: `min(slice end, max_time + 1)`.
    end: u64,
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
                log.push(at(EntryKind::Finish {
                    moved: stats.moved,
                    newly_full: stats.newly_full,
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
/// its advertisements and the region's [`Chunks`].
struct RegionTask<'a> {
    scratch: &'a mut RegionScratch,
    ads: &'a mut [Advertisement],
    chunks: Chunks<'a>,
}

/// Drain one region's events below the slice end. Everything a region
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
    let base = chunks.matcher.base();
    // The nodes every chunk of the task spans: ownership is a range check.
    let owned = base..base + ads.len();
    let r = ctx.part.region_of(base);
    let mut rng = Rng::stream(ctx.seed, ctx.pass, SLICE_REGION_STREAM_BASE + r as u64);
    let gens = ctx.gens;
    while let Some(ev) = scratch.queue.pop_below(ctx.end) {
        let now = ev.time;
        // Whether every node the event names is the incarnation it was
        // scheduled for, and the other node it touches.
        let (live, peer) = match ev.event {
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
            scratch.deferred.push(ev);
            continue;
        }
        scratch.note(now);
        if !live {
            continue; // a death since it was scheduled orphaned it
        }
        let Ev::Act(u, gen) = ev.event else {
            let (at, next) = chunks.connect(ctx, graph, now, ev.event, &mut rng, &mut scratch.log);
            scratch.push(at, next);
            continue;
        };
        let ui = u.index();
        match chunks.matcher.state(u) {
            PeerState::Connected { .. } => {
                // Captured as a listener mid-connection: keep the act
                // chain alive and re-decide later.
                let delay = ctx.timing.refresh_interval(ctx.drift[ui], &mut rng);
                scratch.push(now.after(delay), Ev::Act(u, gen));
            }
            PeerState::Proposing => {
                // A proposing node's chain is owned by its Attempt event,
                // so rescheduling here would fork the chain; dropping the
                // stale Act is the safe release-mode recovery (the Attempt
                // always restarts the cycle), while debug builds flag the
                // broken invariant.
                debug_assert!(false, "act event fired for a proposing node");
            }
            state => {
                if state == PeerState::Listening {
                    chunks.matcher.cancel(u);
                }
                let epoch = now.epoch();
                let own_ad = ctx.protocol.advertise(chunks.states.view(ui), epoch);
                ads[ui - base] = own_ad;
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
                        scratch.push(now.after(delay), attempt);
                    }
                    intent => {
                        if intent == Intent::Listen {
                            chunks.matcher.listen(u);
                        }
                        let delay = ctx.timing.refresh_interval(ctx.drift[ui], &mut rng);
                        scratch.push(now.after(delay), Ev::Act(u, gen));
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
fn replay(
    e: &Entry,
    result: &mut SimResult,
    tally: &mut Tally,
    cover: &mut Coverage,
    under: &mut Underlay,
    probe: &mut dyn Probe,
) -> bool {
    let now = SimTime(e.time);
    match e.kind {
        EntryKind::Trace(kind, ids) => probe.record(&TraceEvent {
            t: e.time,
            round: now.round_equivalent() as u64,
            kind,
            ids,
        }),
        EntryKind::Drop => {
            tally.close_rows_below(result, now.round_equivalent().max(1), cover);
            result.dropped_proposals += 1;
        }
        EntryKind::Finish { moved, newly_full } => {
            tally.close_rows_below(result, now.round_equivalent().max(1), cover);
            let transfer = TransferStats {
                moved,
                productive: (moved > 0) as usize,
                newly_full,
            };
            tally.count(result, cover, 1, transfer);
            let population = match under.dynr_mut() {
                Some(d) => {
                    d.record(now, cover);
                    d.topo.alive_count()
                }
                None => result.nodes,
            };
            if cover.complete(population) {
                result.completed = true;
                result.virtual_time_to_completion = Some(e.time);
                result.rounds_to_completion = Some(now.round_equivalent());
            }
            return result.completed;
        }
    }
    false
}

/// What an event reads of the network right now.
#[derive(Clone, Copy)]
struct Graph<'a> {
    /// The graph gossip runs over: the membership overlay when one is on,
    /// else the active view of the mutating underlay, else the frozen
    /// topology itself.
    gossip: &'a (dyn GraphView + Sync),
    /// The frozen topology on a static run; `None` under dynamics. See
    /// [`Chunks::connect`] for the rule it carries.
    frozen: Option<&'a Topology>,
}

/// The [`Graph`] of a run's underlay under its overlay, if any.
fn gossip_graph<'a>(under: &'a Underlay, mem: &'a Option<Membership>) -> Graph<'a> {
    let (underlay, frozen): (&(dyn GraphView + Sync), _) = match under {
        Underlay::Mutating(d) => (&d.topo, None),
        Underlay::Frozen(t) => (t, Some(t)),
    };
    let gossip = match mem {
        Some(m) => m,
        None => underlay,
    };
    Graph { gossip, frozen }
}

/// The sliced engine: the one pass loop behind
/// [`Scheduler::Async`](crate::Scheduler::Async). Byte-identical to itself
/// at any `threads`; see the module docs for the determinism argument.
///
/// Under dynamics, mutations apply serially at slice starts (phase 0 —
/// the analogue of the sync scheduler's round-boundary semantics) and the
/// event phases run over the active graph with generation-stamp checks
/// in play; static inputs have no `DynRun`, so phase 0 and every
/// coverage-timeline sample vanish and the stamps stay all-zero.
/// `membership` swaps the gossip graph for a discovered overlay, ticked
/// serially at slice starts after the slice's mutations landed.
///
/// Tracing rides the replay: the handler logs trace-only entries (never
/// touching the probe or any RNG), and the mutation drain and [`replay`]
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
    let (mut states, mut cover, mut result) = init_run(&inputs, "async");
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
    let mut rng = Rng::new(seed);
    let mut under = Underlay::new(topology, dynamics, seed, &cover);
    let mut mem = membership.map(|cfg| Membership::new(n, *cfg));
    let mut timings = SliceTimings::default();

    let max_time = (config.max_rounds as u64).saturating_mul(TICKS_PER_ROUND);
    let drift: Vec<f64> = (0..n).map(|_| timing.drift_factor(&mut rng)).collect();
    // Every node publishes an initial epoch-0 tag before anyone scans.
    let mut ads: Vec<_> = (0..n)
        .map(|u| protocol.advertise(states.view(u), 0))
        .collect();
    let mut ads_snap = ads.clone();
    let mut matcher = IncrementalMatcher::new(n);
    // A node's incarnation number; death bumps it, orphaning every event
    // queued against the old incarnation. All-zero on static runs.
    let mut gens: Vec<u64> = vec![0; n];

    let part = Partition::of(n);
    let mut scratches: Vec<RegionScratch> = (0..part.regions)
        .map(|_| RegionScratch::default())
        .collect();

    // Stagger initial act cycles uniformly over the first nominal period,
    // so the network does not start phase-locked.
    for u in 0..n {
        let offset = rng.gen_range(TICKS_PER_ROUND as usize) as u64;
        scratches[part.region_of(u)].push(SimTime(offset), Ev::Act(NodeId(u as u32), 0));
    }

    let mut tally = Tally::default();
    let mut merged: Vec<Entry> = Vec::new();
    let mut sweep_q: Vec<Scheduled<Ev>> = Vec::new();
    let mut sweep_log: Vec<Entry> = Vec::new();
    let mut tick_counters = vec![0u32; SERIAL_TICK_COUNTERS];
    let mut sweep_events: u64 = 0;
    let mut last_time: u64 = 0;
    let mut prev_pass: Option<u64> = None;
    let tracing = probe.enabled();

    let now_ticks: u64 = 'run: loop {
        if result.completed {
            // Already complete at time zero (a single node, say).
            break 'run 0;
        }
        let next = scratches
            .iter()
            .filter_map(|s| s.queue.earliest())
            .chain(under.dynr().and_then(|d| d.peek_time()).map(SimTime::ticks))
            .min();
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
        let slice_end = (pass + 1).saturating_mul(SLICE_TICKS);
        let end = slice_end.min(max_time.saturating_add(1));
        if tracing {
            let t = pass.saturating_mul(SLICE_TICKS);
            probe.record(&TraceEvent::new(EventKind::Slice, t, pass, &[]));
        }

        // Phase 0 (serial, dynamic runs): apply every mutation due inside
        // this slice before any of its events execute, so deaths precede
        // the slice's unions both physically and in the accounting.
        if let Some(d) = under.dynr_mut() {
            let t2 = Instant::now();
            let mut rng_mut = Rng::stream(seed, pass, MUTATE_STREAM);
            let mut matcher = matcher.whole();
            let drained = d.drain_until(
                SimTime(end),
                &mut states,
                sources,
                &mut cover,
                probe,
                |t| t.round_equivalent() as u64,
                |mutation, stats, probe| {
                    let mtime = mutation.time;
                    let restart = match mutation.kind {
                        MutationKind::Depart(u) => {
                            // Untangle the departed node. A survivor that
                            // initiated had its act chain parked on the
                            // Finish event dying with this connection.
                            let survivor = match matcher.state(u) {
                                PeerState::Free => None,
                                PeerState::Listening | PeerState::Proposing => {
                                    matcher.cancel(u);
                                    None
                                }
                                PeerState::Connected {
                                    partner: v,
                                    initiated,
                                } => {
                                    matcher.release(u, v);
                                    stats.severed_connections += 1;
                                    if probe.enabled() {
                                        let ids = [u.0, v.0];
                                        probe.record(&event_at(EventKind::Sever, mtime, &ids));
                                    }
                                    (!initiated).then_some(v)
                                }
                            };
                            gens[u.index()] += 1;
                            survivor
                        }
                        // The revived node starts a fresh act chain.
                        MutationKind::Rejoin { node, .. } => Some(node),
                        _ => None,
                    };
                    if let Some(v) = restart {
                        let delay = timing.refresh_interval(drift[v.index()], &mut rng_mut);
                        scratches[part.region_of(v.index())]
                            .push(mtime.after(delay), Ev::Act(v, gens[v.index()]));
                    }
                },
            );
            timings.sweep += ms(t2.elapsed());
            if let Some(t) = drained.filter(|_| cover.complete(d.topo.alive_count())) {
                // Mutations alone completed gossip.
                result.completed = true;
                result.virtual_time_to_completion = Some(t.ticks());
                result.rounds_to_completion = Some(t.round_equivalent());
                break 'run t.ticks();
            }
        }

        // Membership ticks serially at the slice start — the async
        // analogue of the sync scheduler's round-boundary tick — after
        // the slice's mutations landed, so the failure detector sees a
        // departure the very slice it happens, a rejoiner can re-join
        // immediately, and the whole slice executes against frozen views.
        if let Some(m) = mem.as_mut() {
            let t3 = Instant::now();
            tick_membership(m, &under, seed, pass, probe);
            timings.sweep += ms(t3.elapsed());
        }

        // Phase A: parallel region execution over the gossip graph,
        // against a start-of-slice advertisement snapshot.
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
            end,
            part,
            tracing,
        };
        {
            // One task per region: its scratch and its disjoint chunk of
            // every per-node array.
            let mut tasks: Vec<RegionTask<'_>> = scratches
                .iter_mut()
                .zip(matcher.region_chunks(part.block))
                .zip(states.region_chunks(part.block))
                .zip(ads.chunks_mut(part.block))
                .map(|(((scratch, matcher), states), ads)| RegionTask {
                    scratch,
                    ads,
                    chunks: Chunks { matcher, states },
                })
                .collect();
            let graph = gossip_graph(&under, &mem);
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
            &mut tick_counters,
            |e| e.time,
        );
        for s in scratches.iter_mut() {
            last_time = last_time.max(s.last_time);
            s.log.clear();
        }
        for e in merged.iter() {
            if replay(e, &mut result, &mut tally, &mut cover, &mut under, probe) {
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
            &mut tick_counters,
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
            tally.close_rows_below(&mut result, now.round_equivalent().max(1), &cover);
            let graph = gossip_graph(&under, &mem);
            let (at, next) =
                whole.connect(&ctx, graph, now, ev.event, &mut rng_sweep, &mut sweep_log);
            scratches[part.region_of(next.owner().index())].push(at, next);
            for e in sweep_log.drain(..) {
                if replay(&e, &mut result, &mut tally, &mut cover, &mut under, probe) {
                    timings.sweep += ms(t2.elapsed());
                    break 'run e.time;
                }
            }
        }
        timings.sweep += ms(t2.elapsed());
    };

    result.virtual_time = now_ticks.min(max_time);
    result.rounds_executed = SimTime(result.virtual_time)
        .round_equivalent()
        .min(config.max_rounds);
    // Remaining epochs (including the final partial one), so the history
    // covers exactly `rounds_executed` rows.
    let rows = result.rounds_executed + 1;
    tally.close_rows_below(&mut result, rows, &cover);
    timings.settle = under.dynr().map_or(0.0, |d| d.settle_ms);
    finish_run(&mut result, &cover, under, mem);
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
    fn append_by_tick_matches_the_stable_sort() {
        // (tick, original position): the position exposes any reordering
        // of equal ticks. Short inputs and spans wider than the counters
        // take the comparison path; the rest count.
        let mut rng = Rng::new(0xb1c4e7);
        let mut counters = vec![u32::MAX; 2048];
        for (len, span) in [
            (0, 1),
            (1, 1),
            (63, 5),
            (64, 1),
            (500, 2048),
            (500, 2049),
            (3000, 700),
        ] {
            let origin = rng.next_u64() >> 1;
            let items: Vec<(u64, usize)> = (0..len)
                .map(|i| (origin + rng.gen_range(span) as u64, i))
                .collect();
            let mut expected = vec![(7, 7)];
            expected.extend_from_slice(&items);
            expected[1..].sort_by_key(|&(t, _)| t);
            // Fed as three chunks, the way the serial phases feed region logs.
            let (a, rest) = items.split_at(len / 3);
            let (b, c) = rest.split_at(len / 3);
            let mut got = vec![(7, 7)];
            append_by_tick(
                [a, b, c].into_iter().flatten(),
                &mut got,
                &mut counters,
                |&(t, _)| t,
            );
            assert_eq!(got, expected, "len {len} span {span}");
        }
    }

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

    /// The oracle: the parent's per-region heap, fed the same pushes.
    struct Oracle {
        heap: BinaryHeap<Scheduled<Ev>>,
        seq: u64,
    }

    impl Oracle {
        fn pop_below(&mut self, end: u64) -> Option<Scheduled<Ev>> {
            match self.heap.peek() {
                Some(top) if top.time.ticks() < end => self.heap.pop(),
                _ => None,
            }
        }
    }

    fn push_both(queue: &mut SliceQueue, oracle: &mut Oracle, time: SimTime) {
        let event = Ev::Act(NodeId(oracle.seq as u32), 0);
        queue.push(time, event);
        oracle.seq += 1;
        oracle.heap.push(Scheduled {
            time,
            seq: oracle.seq,
            event,
        });
        assert_earliest_agrees(queue, oracle);
    }

    fn assert_earliest_agrees(queue: &SliceQueue, oracle: &Oracle) {
        assert_eq!(
            queue.earliest(),
            oracle.heap.peek().map(|top| top.time.ticks())
        );
    }

    /// A delay of every kind the engine produces: none, inside the open
    /// slice, into the next slice, many slices ahead (past the ring), and
    /// one that saturates `SimTime::after`.
    fn some_delay(rng: &mut Rng) -> u64 {
        match rng.gen_range(32) {
            0 => 0,
            1..=12 => rng.gen_range(300) as u64,
            13..=26 => 700 + rng.gen_range(700) as u64,
            27 | 28 => SLICE_TICKS * (2 + rng.gen_range(6) as u64),
            29 | 30 => SLICE_TICKS * (RING_SLICES as u64 + rng.gen_range(100) as u64),
            _ => u64::MAX - rng.gen_range(3) as u64,
        }
    }

    #[test]
    fn queue_pops_in_the_heap_oracles_order() {
        for seed in 0..12 {
            let mut rng = Rng::new(0x51ce0 + seed);
            let mut queue = SliceQueue::default();
            let mut oracle = Oracle {
                heap: BinaryHeap::new(),
                seq: 0,
            };
            for _ in 0..40 {
                let offset = rng.gen_range(SLICE_TICKS as usize) as u64;
                push_both(&mut queue, &mut oracle, SimTime(offset));
            }
            // The engine's cap: the last passes all stop at `max_time + 1`,
            // which is not a slice multiple.
            let max_time = 60 * SLICE_TICKS + 317;
            let mut prev_pass: Option<u64> = None;
            let mut popped = 0;
            while let Some(next_t) = queue.earliest().filter(|&t| t <= max_time) {
                // The engine's pass rule, plus a skipped slice now and then.
                let skip = (rng.gen_range(8) == 0) as u64 * rng.gen_range(4) as u64;
                let pass = prev_pass.map_or(next_t / SLICE_TICKS, |p| {
                    (p + 1).max(next_t / SLICE_TICKS) + skip
                });
                prev_pass = Some(pass);
                let end = ((pass + 1) * SLICE_TICKS).min(max_time + 1);
                loop {
                    let (got, want) = (queue.pop_below(end), oracle.pop_below(end));
                    assert_eq!(
                        got.map(|ev| (ev.time, ev.seq)),
                        want.map(|ev| (ev.time, ev.seq)),
                        "seed {seed} pass {pass}"
                    );
                    assert_earliest_agrees(&queue, &oracle);
                    let Some(ev) = got else { break };
                    popped += 1;
                    // Most events reschedule themselves; some fork a
                    // second chain, some end theirs.
                    for _ in 0..[1, 1, 1, 1, 1, 2, 2, 0][rng.gen_range(8)] {
                        push_both(&mut queue, &mut oracle, ev.time.after(some_delay(&mut rng)));
                    }
                }
                // Sweep-style pushes between passes: scheduled from a
                // time in an already-executed window, possibly landing
                // below the current slice's start.
                for _ in 0..rng.gen_range(4) {
                    let back = rng.gen_range(3 * SLICE_TICKS as usize) as u64;
                    let from = SimTime(end.saturating_sub(1 + back));
                    push_both(&mut queue, &mut oracle, from.after(some_delay(&mut rng)));
                }
            }

            assert!(popped > 1000, "seed {seed}: script popped only {popped}");
            // What is left lies beyond the cap on both sides, identically.
            loop {
                let (got, want) = (queue.pop_below(u64::MAX), oracle.pop_below(u64::MAX));
                assert_eq!(
                    got.map(|ev| (ev.time, ev.seq)),
                    want.map(|ev| (ev.time, ev.seq)),
                    "seed {seed} drain"
                );
                if got.is_none() {
                    break;
                }
            }
            assert_earliest_agrees(&queue, &oracle);
        }
    }

    #[test]
    fn far_future_pushes_take_no_bucket_and_no_walk_over_empty_slices() {
        let mut queue = SliceQueue::default();
        let far = [
            u64::MAX,
            u64::MAX - 1,
            1 << 50,
            RING_SLICES as u64 * SLICE_TICKS,
        ];
        for t in far {
            queue.push(SimTime(t), Ev::Act(NodeId(0), 0));
        }
        assert_eq!(queue.heap.len(), far.len());
        assert!(queue.ring.iter().all(|b| b.events.capacity() == 0));
        assert_eq!(queue.earliest(), Some(RING_SLICES as u64 * SLICE_TICKS));
        // A pass 2^40 slices on: the horizon jumps there in one step
        // (a walk would take minutes), allocating nothing on the way.
        let end = (1 << 50) + 1;
        assert_eq!(queue.pop_below(end).map(|ev| ev.seq), Some(4));
        assert_eq!(queue.horizon, end);
        assert_eq!(queue.pop_below(end).map(|ev| ev.seq), Some(3));
        assert_eq!(queue.pop_below(end).map(|ev| ev.seq), None);
        assert_eq!(queue.pop_below(u64::MAX).map(|ev| ev.seq), Some(2));
        assert_eq!(queue.earliest(), Some(u64::MAX));
        assert!(queue.ring.iter().all(|b| b.events.capacity() == 0));
        assert_eq!(queue.run.capacity(), 0);
    }
}
