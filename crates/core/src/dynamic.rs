//! A mutable topology for networks that change under the protocol's feet.
//!
//! Smartphone peer-to-peer networks are unstable: devices power off and
//! return (churn), links flap with interference (fading), and devices move,
//! re-deriving which peers are in radio range (mobility). [`DynamicTopology`]
//! takes a static [`Topology`] over and adds the mutation operations those
//! processes need, while keeping the read path as cheap as the static graph:
//!
//! - an **alive mask** with `O(1)` [`is_alive`](DynamicTopology::is_alive)
//!   checks and a maintained alive count,
//! - a mutable **base adjacency**: every edge the node has, whether it is
//!   usable now or not, so a fade can hide an edge without forgetting it
//!   and mobility can rewire a node wholesale — a rewire is *pending*
//!   until the batch settles,
//! - and the **active view** of each node: its neighbors that are alive
//!   and reachable over a non-faded edge, sorted. It is not stored apart
//!   from the base adjacency: it is the first part of the node's slot (see
//!   Memory layout). No mutation edits it: a mutation updates the mask or
//!   a fade flag or queues a rewire, the nodes whose slot it changes are
//!   marked *stale* (a rewire's neighbors when its batch is planned), and
//!   [`settle`](DynamicTopology::settle) rebuilds each stale slot. Reads
//!   ([`GraphView`]) are exactly as fast as on a static
//!   [`Topology`]; a batch of mutations pays one rebuild per touched node,
//!   not one edit per mutation and neighbor.
//!
//! # Batches
//!
//! The engines apply a whole round's or slice's mutations through the
//! `defer_*` mutators and settle once — at the end of the sync engine's
//! mutation drain, after phase 0 of the sliced engine. In between, the
//! alive mask and count are always current and may be read; the base
//! adjacency and the views may not: the base adjacency is current from
//! `settle` to the next `defer_rewire`, the views from `settle` to the
//! next `defer_*`. Reading a view while any node is stale is a bug, and
//! `active_neighbors` asserts against it in debug builds. A single
//! mutation is a batch of one: `defer_*`, then `settle`.
//!
//! `defer_rewire` only records its cleaned list and stamps the node with
//! the rewire's sequence number in the batch; `settle` applies the batch
//! **last writer wins**. Applied on its own, a rewire of `r` to the list
//! `L` deletes every base edge at `r` and creates `r — x`, un-faded, for
//! each `x ∈ L`; it touches no edge that does not end at `r`. So after any
//! sequence of rewires the edge `a — b` is what the last rewire *of `a` or
//! of `b`* made it — there, un-faded, iff that rewire's list names the
//! other end — and is as it was, fade flag included, if neither was
//! rewired. With `s_u` the stamp of `u`'s last rewire (0 for none) and
//! `L_u` its list, slot by slot: a node that was not rewired keeps its
//! entries that were not rewired either and gains every rewired `r` with
//! the node in `L_r`; a rewired `w` holds
//! `{x ∈ L_w : s_x < s_w} ∪ {r : w ∈ L_r, s_r > s_w}`. Both halves are one
//! test of a list entry — `x ∈ L_r` with `s_x < s_r` puts `x` in `r`'s
//! slot and `r` in `x`'s — so `settle` cuts every live list down to the
//! entries that pass, groups them by receiving node with one counting
//! scatter over the rewired nodes in ascending order (each group arrives
//! sorted), and walks the stale nodes once, ascending. `defer_alive`
//! marks the node's neighbors as of the last settle and the plan marks
//! every rewired node's old and new ones, which together cover every slot
//! that changes. `defer_fade` reads the base adjacency, so it settles
//! first when an endpoint has a pending rewire; no other rewire can
//! create, delete or un-fade its edge.
//!
//! # Memory layout
//!
//! Adjacency lives in **one flat slab** — the static [`Topology`]'s edge
//! array, grown in place — not per-node `Vec`s. Each node owns a slot: its
//! base neighbors in two sorted runs: the **active prefix** — exactly the
//! slice [`GraphView::neighbors`] returns — then the **dormant suffix**,
//! its edges to dead peers and its faded edges (every edge of a dead
//! node). An entry's high bit is the edge's fade flag, kept on both
//! endpoints' entries, so ids stay below 2³¹ and searches compare masked
//! ids; the prefix never carries the bit once settled. A settle rebuilds
//! a stale slot from three sorted runs — what the node holds (its prefix
//! and suffix, or, for a rewired node, its cut list) and its gains —
//! sending each entry, by one load of a per-node state byte, to the
//! prefix, to the suffix, or out (a held entry at a rewired peer). A slot
//! of up to four entries, as on a ring or a grid, is ranked on the stack:
//! each entry's place is counted against every other, with no branch on
//! the data. A larger one is built in scratch: few entries change sides
//! in a batch, so the suffix and the gains are sorted out first, their
//! active entries merge into the prefix on one pass over the first run,
//! that pass's dormant ones merge into the suffix, and the row is copied
//! back. Stale slots go in ascending node order: the stale list is
//! sorted, or, once a batch marks one node in sixteen, read off the marks.
//!
//! Every slot holds its entries plus slack — a quarter of its length,
//! plus two — from birth, so a rewire that hands a node a few edges lands
//! in place. A slot that outgrows its capacity at `settle` relocates to
//! the slab tail, and the slab compacts itself, handing every slot the
//! same slack again, at the end of that settle once the stranded capacity
//! is worth reclaiming. A batch's lists and gains sit in arenas, and the
//! rebuild in scratch rows, that are cleared, not freed, and a settle
//! does work proportional to the nodes it touches (reading the marks
//! costs at most sixteen nodes per stale one), never to `n`. No
//! hashing, no per-node allocation on the mutation path, deterministic
//! iteration order.
//!
//! Dead nodes read as isolated: their active neighbor list is empty and
//! they appear in no other node's list, so protocols — which only ever see
//! neighbor snapshots — naturally ignore them without any scheduler-side
//! special casing.

use std::hint::select_unpredictable;

use crate::topology::GraphView;
use crate::{NodeId, Topology};

/// A [`Topology`] plus an alive-node set, fade flags, and active-neighbor
/// views brought up to date at [`settle`](Self::settle), all in one flat
/// slab. See the module docs.
#[derive(Clone, Debug)]
pub struct DynamicTopology {
    /// Where node `u`'s slot sits in `slab` and how much of it is used.
    slots: Vec<Slot>,
    /// Every node's slot: sorted active prefix, sorted dormant suffix,
    /// slack; fade flags in the high bit ([`FADE`]). Churn and fading set
    /// bits and mark slots, mobility queues rewires; only `settle` moves
    /// entries.
    slab: Vec<NodeId>,
    alive: Vec<bool>,
    alive_count: usize,
    /// Nodes whose slot is out of date; `is_stale` queues each once.
    stale: Vec<u32>,
    is_stale: Vec<bool>,
    /// Slab capacity stranded by slot relocations, pending compaction.
    waste: usize,
    /// The batch's deferred rewires in call order, so a rewire's 1-based
    /// sequence number is its index here plus one. Empty outside a batch.
    pending: Vec<PendingRewire>,
    /// Arena of the pending rewires' cleaned neighbor lists.
    lists: Vec<NodeId>,
    /// Sequence number of `u`'s last rewire in this batch; 0 if it has none.
    stamp: Vec<u32>,
    /// Per node, what `rebuild` asks of a peer in one load: [`DEAD`], and
    /// [`REWIRED`] while it has a rewire pending.
    state: Vec<u8>,
    /// Arena of the base edges the batch's live rewires hand to *other*
    /// nodes, grouped by receiving node; filled and emptied by `settle`.
    gains: Vec<NodeId>,
    /// How many of `gains` node `u` receives; 0 outside `settle`.
    gain_len: Vec<u32>,
    /// End of `u`'s group in `gains`; meaningful only while `gain_len[u] > 0`.
    gain_end: Vec<u32>,
    /// `rebuild`'s scratch: the active pieces, the dormant ones, merge room.
    scratch: Vec<NodeId>,
}

/// A node's slot in the slab, in one record, so a rebuild reads and
/// writes one cache line of it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Slot {
    /// First entry.
    start: u32,
    /// Entries reserved.
    cap: u32,
    /// Base neighbors held: prefix plus suffix.
    len: u32,
    /// Length of the active prefix, the node's view.
    active: u32,
}

/// One deferred rewire: `node`'s new neighbors are `lists[list]`.
#[derive(Clone, Debug)]
struct PendingRewire {
    node: NodeId,
    list: std::ops::Range<usize>,
}

/// The fade flag of a slab entry: its high bit. Ids stay below it.
const FADE: u32 = 1 << 31;

/// [`DynamicTopology::state`] bits of a peer.
const DEAD: u8 = 1;
const REWIRED: u8 = 2;

/// Above every id: closes [`sort_first`]'s run of risen entries.
const END: NodeId = NodeId(!FADE);

/// A stale slot of at most this many entries, held and gained — every
/// slot of a ring or a grid — is rebuilt on the stack by [`keys`] and
/// [`rank`], whose pairwise count grows with the square of it; a larger
/// one in scratch by [`sort_out`], [`sort_first`] and [`merge3`].
const SMALL_SLOT: usize = 4;

/// The id of a slab entry, fade flag masked off.
#[inline]
fn id(entry: NodeId) -> u32 {
    entry.0 & !FADE
}

/// Where slab entry `x` of a slot goes, by its peer's state, `dead_u`
/// (whether the slot's own node is dead) and its fade flag, which shifted
/// down reads as [`DEAD`], all masked by `mask`: 0 to the prefix, `DEAD`
/// to the suffix, anything else (a held entry at a rewired peer) out.
#[inline(always)]
fn flags(x: NodeId, state: &[u8], dead_u: u8, mask: u8) -> u8 {
    (state[id(x) as usize] | dead_u | (x.0 >> 31) as u8) & mask
}

/// A small slot's entries, held then gained, on the stack, each with its
/// sort key: its id, with the high bit set if it is dormant, or
/// `u32::MAX` if it goes (and for padding). Returns them with how many
/// are kept and how many of those are active.
fn keys(
    held: &[NodeId],
    gains: &[NodeId],
    (state, dead_u, mask): (&[u8], u8, u8),
) -> ([u32; SMALL_SLOT], [NodeId; SMALL_SLOT], usize, usize) {
    let (mut key, mut entry) = ([u32::MAX; SMALL_SLOT], [NodeId(0); SMALL_SLOT]);
    let (mut kept, mut p) = (0, 0);
    let mut put = |q: usize, x: NodeId, mask: u8| {
        let f = flags(x, state, dead_u, mask);
        key[q] = select_unpredictable(f & REWIRED == 0, u32::from(f) << 31 | id(x), u32::MAX);
        entry[q] = x;
        kept += usize::from(f & REWIRED == 0);
        p += usize::from(f == 0);
    };
    for (q, &x) in held.iter().enumerate() {
        put(q, x, mask);
    }
    for (q, &x) in gains.iter().enumerate() {
        put(held.len() + q, x, DEAD);
    }
    (key, entry, kept, p)
}

/// Write [`keys`]' kept entries into `out` in key order — the prefix,
/// then the suffix. Each one's place is the number of keys below its
/// own, counted over every pair, so no step waits on another and no
/// branch depends on the entries in a batch without rewires.
fn rank(out: &mut [NodeId], key: &[u32; SMALL_SLOT], entry: &[NodeId; SMALL_SLOT]) {
    for q in 0..SMALL_SLOT {
        let at: usize = key.iter().map(|&k| usize::from(k < key[q])).sum();
        if at < out.len() {
            out[at] = entry[q];
        }
    }
}

/// Sort `run` out into `buf`, branch-free like the matcher: each entry
/// is stored at the active end `a` or the dormant end `d` by its
/// [`flags`] and bumps the one it belongs to (an entry that goes is
/// overwritten). Returns the new ends.
fn sort_out(
    run: &[NodeId],
    (state, dead_u, mask): (&[u8], u8, u8),
    buf: &mut [NodeId],
    (mut a, mut d): (usize, usize),
) -> (usize, usize) {
    for &x in run {
        let f = flags(x, state, dead_u, mask);
        buf[if f == DEAD { d } else { a }] = x;
        a += usize::from(f == 0);
        d += usize::from(f == DEAD);
    }
    (a, d)
}

/// [`sort_out`] for a large slot's first run, whose active entries are
/// most of the new prefix: they go to `buf` from 0, with `risen` — the
/// other runs' active entries, sorted and closed by [`END`] — merged in
/// on the way, and dormant ones from `d`. Returns the prefix length and
/// the new `d`.
fn sort_first(
    run: &[NodeId],
    (state, dead_u, mask): (&[u8], u8, u8),
    risen: &[NodeId],
    buf: &mut [NodeId],
    mut d: usize,
) -> (usize, usize) {
    let (mut p, mut j) = (0, 0);
    for &x in run {
        while id(risen[j]) < id(x) {
            buf[p] = risen[j];
            (p, j) = (p + 1, j + 1);
        }
        let f = flags(x, state, dead_u, mask);
        buf[if f == DEAD { d } else { p }] = x;
        p += usize::from(f == 0);
        d += usize::from(f == DEAD);
    }
    for &y in &risen[j..risen.len() - 1] {
        buf[p] = y;
        p += 1;
    }
    (p, d)
}

/// Merge the sorted run `long` and the short sorted runs `b` and `c`, no
/// two sharing an id, into `out`: `b` and `c` first, in `tmp`, unless one
/// is empty, then each of their entries copies the stretch of `long`
/// below it, then itself. A mispredicted branch per short entry, which
/// is cheap while they are a handful, as settle's mostly are.
fn merge3(out: &mut [NodeId], long: &[NodeId], b: &[NodeId], c: &[NodeId], tmp: &mut [NodeId]) {
    let short = match (b.is_empty(), c.is_empty()) {
        (_, true) => b,
        (true, _) => c,
        _ => {
            let short = &mut tmp[..b.len() + c.len()];
            merge(short, b, c);
            short
        }
    };
    merge(out, long, short);
}

/// [`merge3`]'s two-run step: `short` into the stretches of `long`.
fn merge(out: &mut [NodeId], long: &[NodeId], short: &[NodeId]) {
    let (mut i, mut o) = (0, 0);
    for &y in short {
        while i < long.len() && id(long[i]) < id(y) {
            out[o] = long[i];
            (i, o) = (i + 1, o + 1);
        }
        out[o] = y;
        o += 1;
    }
    out[o..].copy_from_slice(&long[i..]);
}

/// Size `slot` for its rebuilt `kept` entries, `active` of them in the
/// prefix, and return where they go: its own capacity or, if they
/// outgrow it, fresh capacity at the slab tail, stranding the old until
/// the next compaction. Nothing is copied: the caller writes every entry.
///
/// A full slab grows by the share of its live entries at which
/// compaction reclaims anyway, not by doubling: a doubled 10⁶-node slab
/// asks for hundreds of megabytes that relocations never fill.
#[inline(always)]
fn place<'a>(
    slot: &mut Slot,
    slab: &'a mut Vec<NodeId>,
    waste: &mut usize,
    kept: usize,
    active: usize,
) -> &'a mut [NodeId] {
    if kept > slot.cap as usize {
        let (at, cap) = (slab.len(), kept + kept / 2 + 2);
        assert!(
            at + cap < u32::MAX as usize,
            "dynamic adjacency slab overflows u32 offsets"
        );
        if slab.capacity() < at + cap {
            slab.reserve_exact(cap.max((at - *waste) / COMPACT_WASTE_SHARE));
        }
        slab.resize(at + cap, NodeId(0));
        *waste += slot.cap as usize;
        (slot.start, slot.cap) = (at as u32, cap as u32);
    }
    (slot.len, slot.active) = (kept as u32, active as u32);
    let s = slot.start as usize;
    &mut slab[s..s + kept]
}

/// Compact once stranded capacity reaches 1/8 of the live slab: a larger
/// share strands more memory between compactions, a smaller one copies
/// the whole slab more often.
const COMPACT_WASTE_SHARE: usize = 8;

/// A batch that marks at least one node in this many is dense: see
/// [`sort_stale`].
const DENSE: usize = 16;

/// Sort the stale nodes, those `is_stale` marks, ascending. Once they
/// are dense, reading the marks in node order costs less than sorting
/// them, and stays proportional to the nodes touched.
fn sort_stale(stale: &mut Vec<u32>, is_stale: &[bool]) {
    let n = is_stale.len();
    if stale.len() * DENSE < n {
        return stale.sort_unstable();
    }
    // Branch-free: every node is written, only a stale one is kept.
    stale.resize(n + 1, 0);
    let mut k = 0;
    for (u, &marked) in is_stale.iter().enumerate() {
        stale[k] = u as u32;
        k += usize::from(marked);
    }
    stale.truncate(k);
}

/// Capacity of a slot holding `len` base entries: room for a few gains
/// before it relocates. Slots are born with it and compaction restores it.
fn slot_capacity(len: usize) -> usize {
    len + len / 4 + 2
}

impl DynamicTopology {
    /// [`DynamicTopology::from`] a copy of `topology`.
    pub fn new(topology: &Topology) -> Self {
        Self::from(topology.clone())
    }

    /// Number of nodes, alive or not.
    pub fn num_nodes(&self) -> usize {
        self.alive.len()
    }

    /// Is `node` currently alive? `O(1)`, and current mid-batch.
    #[inline]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node.index()]
    }

    /// The full alive mask, indexed by node id — what a sharded round
    /// loop hands its workers so they can skip dead nodes without
    /// touching the topology.
    #[inline]
    pub fn alive_mask(&self) -> &[bool] {
        &self.alive
    }

    /// How many nodes are currently alive.
    #[inline]
    pub fn alive_count(&self) -> usize {
        self.alive_count
    }

    /// Sorted neighbors of `node` that are alive and reachable over a
    /// non-faded edge. Empty for a dead node.
    #[inline]
    pub fn active_neighbors(&self, node: NodeId) -> &[NodeId] {
        assert!(self.stale.is_empty(), "active view read before settle");
        let Slot { start, active, .. } = self.slots[node.index()];
        &self.slab[start as usize..(start + active) as usize]
    }

    /// Number of currently active undirected edges.
    pub fn active_edge_count(&self) -> usize {
        assert!(self.stale.is_empty(), "active view read before settle");
        self.slots.iter().map(|s| s.active as usize).sum::<usize>() / 2
    }

    /// `u`'s base entries, prefix and suffix, fade flags included.
    fn slot(&self, u: usize) -> &[NodeId] {
        let Slot { start, len, .. } = self.slots[u];
        &self.slab[start as usize..(start + len) as usize]
    }

    /// Absolute slab index of base edge `u — v`, if present: a search of
    /// the prefix, then of the suffix, by masked id (mid-batch the prefix
    /// may carry fade flags).
    fn base_pos(&self, u: usize, v: NodeId) -> Option<usize> {
        let (s, split) = (self.slots[u].start as usize, self.slots[u].active as usize);
        let (prefix, suffix) = self.slot(u).split_at(split);
        let find = |run: &[NodeId]| run.binary_search_by_key(&v.0, |&x| id(x)).ok();
        find(prefix)
            .map(|i| s + i)
            .or_else(|| find(suffix).map(|i| s + split + i))
    }

    /// Queue `u`'s slot for the next settle.
    fn mark(&mut self, u: usize) {
        if !self.is_stale[u] {
            self.is_stale[u] = true;
            self.stale.push(u as u32);
        }
    }

    /// Mark every base neighbor of `u`.
    fn mark_neighbors(&mut self, u: usize) {
        let Slot { start, len, .. } = self.slots[u];
        for k in start..start + len {
            self.mark(id(self.slab[k as usize]) as usize);
        }
    }

    /// Bring the base adjacency and every stale view up to date: apply
    /// the batch's pending rewires (the last-writer rule of the module
    /// docs) and rebuild each stale slot, its view the neighbors that are
    /// alive over a non-faded edge, in id order. Returns with nothing
    /// pending and nothing stale.
    pub fn settle(&mut self) {
        let rewiring = !self.pending.is_empty();
        if rewiring {
            self.plan_rewires();
        }
        let mut stale = std::mem::take(&mut self.stale);
        // Slots mostly sit in node order: an ascending pass streams the
        // slab (24 ms against 36 ms in marking order on the mobile run).
        sort_stale(&mut stale, &self.is_stale);
        if rewiring {
            self.group_gains(&stale);
        }
        for u in stale.drain(..).map(|u| u as usize) {
            self.is_stale[u] = false;
            self.rebuild(u, rewiring);
        }
        self.stale = stale;
        if rewiring {
            for p in self.pending.drain(..) {
                self.stamp[p.node.index()] = 0;
                self.state[p.node.index()] &= !REWIRED;
            }
            self.lists.clear();
            self.gains.clear();
            self.compact_if_wasteful();
        }
    }

    /// First half of the plan. For every live rewire — a node's last of
    /// the batch — cut its list down to the edges it decides (peers
    /// rewired earlier in the batch or not at all; a peer rewired later
    /// decides the shared edge from its own list), count each as a gain
    /// of that peer, and mark every node whose slot the rewire touches:
    /// its old neighbors and its new ones (the node marked itself).
    fn plan_rewires(&mut self) {
        // Gains are offset in `u32`, and there is at most one per list entry.
        assert!(
            self.lists.len() < u32::MAX as usize,
            "dynamic adjacency slab overflows u32 offsets"
        );
        for i in 0..self.pending.len() {
            let PendingRewire { node, list } = self.pending[i].clone();
            let (r, seq) = (node.index(), i as u32 + 1);
            if self.stamp[r] != seq {
                continue; // superseded later in the batch
            }
            self.mark_neighbors(r);
            let mut end = list.start;
            for k in list {
                let w = self.lists[k];
                if self.stamp[w.index()] < seq {
                    self.lists[end] = w;
                    end += 1;
                    self.gain_len[w.index()] += 1;
                    self.mark(w.index());
                }
            }
            self.pending[i].list.end = end;
        }
    }

    /// Where in `lists` the live rewire of `u`, a rewired node, keeps its list.
    fn live_list(&self, u: usize) -> std::ops::Range<usize> {
        self.pending[self.stamp[u] as usize - 1].list.clone()
    }

    /// Second half: group the gains by receiving node with one counting
    /// scatter over the live rewires in ascending node order (`stale`,
    /// sorted, holds them all), so every group arrives sorted. Offsets
    /// run over the stale nodes only: a settle costs what it touches.
    fn group_gains(&mut self, stale: &[u32]) {
        let mut total = 0;
        for &u in stale {
            self.gain_end[u as usize] = total;
            total += self.gain_len[u as usize];
        }
        self.gains.resize(total as usize, NodeId(0));
        for &r in stale.iter().filter(|&&r| self.stamp[r as usize] != 0) {
            for w in &self.lists[self.live_list(r as usize)] {
                let at = &mut self.gain_end[w.index()];
                self.gains[*at as usize] = NodeId(r);
                *at += 1;
            }
        }
    }

    /// Rebuild `u`'s slot for the settled batch from three sorted runs:
    /// what `u` holds — its prefix and its suffix, or its cut list (and
    /// an empty second run) if it was rewired — and its gains, un-faded.
    /// Each entry goes by its [`flags`]: dormant if its peer or `u` is
    /// dead or the edge is faded, out if it is held (neither a gain nor
    /// on the cut list) at a rewired peer — such a peer decided the edge,
    /// and it is among the gains if it kept it — else active. A small
    /// slot is ranked on the stack and written straight back. A large
    /// one's second run and gains are sorted out first; their few active
    /// entries merge into the prefix on one pass over the first run, that
    /// pass's dormant ones merge into the suffix, and the row, built in
    /// scratch, is copied back. Either lands at the slab tail if it
    /// outgrew its capacity.
    fn rebuild(&mut self, u: usize, rewiring: bool) {
        // Outside a rewiring batch, skip the two reads: no node has gains
        // or a cut list.
        let (gained, rewired) = match rewiring {
            true => (self.gain_len[u] as usize, self.stamp[u] != 0),
            false => (0, false),
        };
        let gains = match gained {
            0 => &[][..], // `gain_end` is stale
            _ => &self.gains[self.gain_end[u] as usize - gained..self.gain_end[u] as usize],
        };
        let Slot {
            start, len, active, ..
        } = self.slots[u];
        let (held, split) = if rewired {
            let list = self.live_list(u);
            (&self.lists[list.clone()], list.len())
        } else {
            (
                &self.slab[start as usize..(start + len) as usize],
                active as usize,
            )
        };
        // A held entry at a rewired peer goes; an entry of the cut list,
        // like a gain, only reads its peer's death.
        let mask = if rewired { DEAD } else { DEAD | REWIRED };
        let (state, dead_u) = (&self.state[..], u8::from(!self.alive[u]));
        let t = held.len() + gained;
        if t <= SMALL_SLOT {
            let (key, entry, kept, p) = keys(held, gains, (state, dead_u, mask));
            let out = place(&mut self.slots[u], &mut self.slab, &mut self.waste, kept, p);
            rank(out, &key, &entry);
        } else {
            // Scratch, `t` entries a region: the new slot, the dormant
            // pieces, the active ones, merge room.
            let mut scratch = std::mem::take(&mut self.scratch);
            if scratch.len() < 4 * t + 1 {
                scratch.resize(4 * t + 1, NodeId(0));
            }
            let (work, tmp) = scratch.split_at_mut(3 * t);
            let (first, second) = held.split_at(split);
            let e1 = sort_out(second, (state, dead_u, mask), work, (2 * t, t));
            let (a, d) = sort_out(gains, (state, dead_u, DEAD), work, e1);
            // The other runs' few active entries, merged and closed by
            // `END`, rise into the prefix on the pass over the first run.
            let risen = &mut tmp[..a - 2 * t + 1];
            merge(&mut risen[..a - 2 * t], &work[2 * t..e1.0], &work[e1.0..a]);
            risen[a - 2 * t] = END;
            let (p, d1) = sort_first(first, (state, dead_u, mask), risen, work, d);
            // The suffix is mostly what stays of the second run.
            let (row, dormant) = work.split_at_mut(t);
            let kept = p + d1 - t;
            let (stayed, gained_dormant, fell) = (
                &dormant[..e1.1 - t],
                &dormant[e1.1 - t..d - t],
                &dormant[d - t..d1 - t],
            );
            merge3(&mut row[p..kept], stayed, fell, gained_dormant, tmp);
            let out = place(&mut self.slots[u], &mut self.slab, &mut self.waste, kept, p);
            out.copy_from_slice(&row[..kept]);
            self.scratch = scratch;
        }
        if gained > 0 {
            self.gain_len[u] = 0;
        }
    }

    /// Rebuild the slab compactly once relocation waste is worth
    /// reclaiming, with a little per-slot slack so the next few gains do
    /// not relocate again. Slots move whole, views included.
    fn compact_if_wasteful(&mut self) {
        // The slab is the slots in use plus the stranded ones.
        let live = self.slab.len() - self.waste;
        assert_eq!(live, self.slots.iter().map(|s| s.cap as usize).sum());
        if self.waste < 256 || self.waste * COMPACT_WASTE_SHARE < live {
            return;
        }
        // Slots that filled in place grow here, relocated ones shrink:
        // reserve what is written, not `live`.
        let total = self
            .slots
            .iter()
            .map(|s| slot_capacity(s.len as usize))
            .sum();
        assert!(
            total < u32::MAX as usize,
            "dynamic adjacency slab overflows u32 offsets"
        );
        let mut slab = Vec::with_capacity(total);
        for u in 0..self.num_nodes() {
            let at = slab.len();
            slab.extend_from_slice(self.slot(u));
            let cap = slot_capacity(self.slots[u].len as usize);
            slab.resize(at + cap, NodeId(0));
            (self.slots[u].start, self.slots[u].cap) = (at as u32, cap as u32);
        }
        assert_eq!(slab.len(), total);
        self.slab = slab;
        self.waste = 0;
    }

    /// Take `node` down (`up = false`) or bring it back up (`up = true`).
    /// Flips the alive mask and count now and leaves the slots of `node`
    /// and its base neighbors stale until [`settle`](Self::settle): then a
    /// dead node's view is empty and it is in no other node's, and a
    /// revived node's view is its base adjacency filtered by the alive
    /// mask and the fade flags. Returns false if `node` already was in
    /// that state.
    pub fn defer_alive(&mut self, node: NodeId, up: bool) -> bool {
        let ui = node.index();
        if self.alive[ui] == up {
            return false;
        }
        self.alive[ui] = up;
        self.state[ui] ^= DEAD;
        self.alive_count = self.alive_count + usize::from(up) - usize::from(!up);
        self.mark(ui);
        self.mark_neighbors(ui);
        true
    }

    /// Fade the base edge `u — v` out (`fade = true`, interference) or
    /// restore it (`fade = false`). Sets the flag on both endpoints'
    /// entries now and leaves their slots stale until
    /// [`settle`](Self::settle). Returns false if the edge is not in the
    /// base graph or already has that flag.
    pub fn defer_fade(&mut self, u: NodeId, v: NodeId, fade: bool) -> bool {
        // A pending rewire of an endpoint decides whether this edge exists
        // (and clears its flag): only then must the base be made current.
        let rewired = |x: NodeId| self.stamp.get(x.index()).is_some_and(|&s| s != 0);
        if rewired(u) || rewired(v) {
            self.settle();
        }
        let iu = match self.base_pos(u.index(), v) {
            Some(iu) if (self.slab[iu].0 & FADE != 0) != fade => iu,
            _ => return false,
        };
        let iv = self.base_pos(v.index(), u).expect("base is symmetric");
        self.slab[iu].0 ^= FADE;
        self.slab[iv].0 ^= FADE;
        self.mark(u.index());
        self.mark(v.index());
        true
    }

    /// Replace `node`'s base adjacency wholesale (mobility: the node moved
    /// and its radio range now covers a different peer set). Self-loops,
    /// duplicates and out-of-range ids in `new_neighbors` are dropped, and
    /// the fade state of the node's former edges is discarded. Works on
    /// dead nodes too: the new edges activate when the node revives.
    /// Records the cleaned list as the node's pending rewire, superseding
    /// an earlier one of the batch; the base and the views catch up at
    /// [`settle`](Self::settle).
    pub fn defer_rewire(&mut self, node: NodeId, new_neighbors: &[NodeId]) {
        let ui = node.index();
        let n = self.alive.len();
        // `RggGeometry::neighbors_of` hands mobility strictly increasing,
        // in-range, self-free lists: one linear check, then used as is.
        let keep = |v: NodeId| v != node && v.index() < n;
        let clean =
            new_neighbors.windows(2).all(|w| w[0] < w[1]) && new_neighbors.iter().all(|&v| keep(v));
        let mut sorted = Vec::new();
        if !clean {
            sorted.extend(new_neighbors.iter().copied().filter(|&v| keep(v)));
            sorted.sort_unstable();
            sorted.dedup();
        }
        let fresh = if clean { new_neighbors } else { &sorted[..] };
        let at = self.lists.len();
        self.lists.extend_from_slice(fresh);
        self.pending.push(PendingRewire {
            node,
            list: at..self.lists.len(),
        });
        self.state[ui] |= REWIRED;
        self.stamp[ui] = u32::try_from(self.pending.len()).expect("rewires in one batch fit u32");
        self.mark(ui);
    }
}

/// Take a static topology over: everyone alive, every edge active. The
/// CSR becomes the slab in place: `edges` grows to the slots' capacity and
/// each row moves to its slot, last row first (a slot starts at or after
/// its row, past every earlier row), so no second adjacency is built.
impl From<Topology> for DynamicTopology {
    fn from(topology: Topology) -> Self {
        let (n, offsets, mut slab) = (topology.num_nodes(), topology.offsets, topology.edges);
        let mut end = 0;
        let slots: Vec<Slot> = offsets
            .windows(2)
            .map(|w| {
                let (start, len) = (end, w[1] - w[0]);
                end += slot_capacity(len as usize);
                Slot {
                    start: start as u32,
                    cap: (end - start) as u32,
                    len,
                    active: len,
                }
            })
            .collect();
        // Every slot holds at least two entries, so a slab `u32` offsets
        // can address also keeps every id below the fade bit.
        assert!(
            end < u32::MAX as usize,
            "dynamic adjacency slab overflows u32 offsets"
        );
        slab.reserve_exact(end - slab.len());
        slab.resize(end, NodeId(0));
        for (s, &row) in slots.iter().zip(&offsets).rev() {
            let (at, len) = (s.start as usize, s.len as usize);
            slab.copy_within(row as usize..row as usize + len, at);
            slab[at + len..at + s.cap as usize].fill(NodeId(0));
        }
        DynamicTopology {
            slots,
            slab,
            alive: vec![true; n],
            alive_count: n,
            stale: Vec::new(),
            is_stale: vec![false; n],
            waste: 0,
            pending: Vec::new(),
            lists: Vec::new(),
            stamp: vec![0; n],
            state: vec![0; n],
            gains: Vec::new(),
            gain_len: vec![0; n],
            gain_end: vec![0; n],
            scratch: Vec::new(),
        }
    }
}

impl GraphView for DynamicTopology {
    fn num_nodes(&self) -> usize {
        DynamicTopology::num_nodes(self)
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.active_neighbors(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<NodeId> {
        raw.iter().map(|&v| NodeId(v)).collect()
    }

    #[test]
    fn starts_identical_to_the_static_graph() {
        let topo = Topology::ring(6);
        let dt = DynamicTopology::new(&topo);
        assert_eq!(dt.alive_count(), 6);
        assert_eq!(dt.active_edge_count(), topo.num_edges());
        for u in 0..6u32 {
            assert_eq!(dt.active_neighbors(NodeId(u)), topo.neighbors(NodeId(u)));
        }
    }

    #[test]
    fn kill_isolates_and_revive_restores() {
        let topo = Topology::ring(5);
        let mut dt = DynamicTopology::new(&topo);
        assert!(dt.defer_alive(NodeId(1), false));
        assert!(!dt.defer_alive(NodeId(1), false), "double kill is a no-op");
        dt.settle();
        assert!(!dt.is_alive(NodeId(1)));
        assert_eq!(dt.alive_count(), 4);
        assert!(dt.active_neighbors(NodeId(1)).is_empty());
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[4]));
        assert_eq!(dt.active_neighbors(NodeId(2)), ids(&[3]));
        assert!(!dt.are_neighbors(NodeId(0), NodeId(1)));

        assert!(dt.defer_alive(NodeId(1), true));
        assert!(!dt.defer_alive(NodeId(1), true), "double revive is a no-op");
        dt.settle();
        assert_eq!(dt.alive_count(), 5);
        assert_eq!(dt.active_neighbors(NodeId(1)), ids(&[0, 2]));
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[1, 4]));
    }

    #[test]
    fn revive_respects_other_dead_nodes_and_fades() {
        let topo = Topology::complete(4);
        let mut dt = DynamicTopology::new(&topo);
        dt.defer_alive(NodeId(2), false);
        dt.defer_fade(NodeId(0), NodeId(3), true);
        dt.defer_alive(NodeId(0), false);
        dt.settle();
        dt.defer_alive(NodeId(0), true);
        dt.settle();
        // 2 is still dead; 0—3 is still faded.
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[1]));
        assert_eq!(dt.active_neighbors(NodeId(3)), ids(&[1]));
    }

    #[test]
    fn fade_hides_and_restore_reveals() {
        let topo = Topology::ring(4);
        let mut dt = DynamicTopology::new(&topo);
        assert!(dt.defer_fade(NodeId(0), NodeId(1), true));
        assert!(!dt.defer_fade(NodeId(1), NodeId(0), true), "already faded");
        assert!(
            !dt.defer_fade(NodeId(0), NodeId(2), true),
            "not a base edge"
        );
        dt.settle();
        assert!(!dt.are_neighbors(NodeId(0), NodeId(1)));
        assert_eq!(dt.active_edge_count(), 3);

        assert!(dt.defer_fade(NodeId(1), NodeId(0), false));
        assert!(!dt.defer_fade(NodeId(1), NodeId(0), false), "not faded now");
        dt.settle();
        assert!(dt.are_neighbors(NodeId(0), NodeId(1)));
        assert_eq!(dt.active_edge_count(), 4);
    }

    #[test]
    fn faded_edge_stays_hidden_across_churn() {
        let topo = Topology::ring(4);
        let mut dt = DynamicTopology::new(&topo);
        dt.defer_fade(NodeId(0), NodeId(1), true);
        dt.defer_alive(NodeId(0), false);
        dt.settle();
        dt.defer_alive(NodeId(0), true);
        dt.settle();
        assert!(
            !dt.are_neighbors(NodeId(0), NodeId(1)),
            "fade survives churn"
        );
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[3]));
    }

    #[test]
    fn rewire_replaces_edges_symmetrically() {
        let topo = Topology::line(5); // 0-1-2-3-4
        let mut dt = DynamicTopology::new(&topo);
        // Node 0 "moves" next to 3 and 4.
        dt.defer_rewire(NodeId(0), &ids(&[3, 4, 4, 0])); // dup + self-loop dropped
        dt.settle();
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[3, 4]));
        assert_eq!(dt.active_neighbors(NodeId(1)), ids(&[2]), "old edge gone");
        assert_eq!(dt.active_neighbors(NodeId(3)), ids(&[0, 2, 4]));
        assert_eq!(dt.active_neighbors(NodeId(4)), ids(&[0, 3]));
    }

    #[test]
    fn rewire_of_dead_node_activates_on_revive() {
        let topo = Topology::line(4);
        let mut dt = DynamicTopology::new(&topo);
        dt.defer_alive(NodeId(0), false);
        dt.defer_rewire(NodeId(0), &ids(&[2, 3]));
        dt.settle();
        assert!(dt
            .active_neighbors(NodeId(2))
            .binary_search(&NodeId(0))
            .is_err());
        dt.defer_alive(NodeId(0), true);
        dt.settle();
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[2, 3]));
        assert_eq!(dt.active_neighbors(NodeId(2)), ids(&[0, 1, 3]));
    }

    #[test]
    fn rewire_discards_stale_fade_state() {
        let topo = Topology::line(3);
        let mut dt = DynamicTopology::new(&topo);
        dt.defer_fade(NodeId(0), NodeId(1), true);
        dt.settle();
        // 0 moves away and back: the 0—1 edge returns un-faded.
        dt.defer_rewire(NodeId(0), &[]);
        dt.settle();
        dt.defer_rewire(NodeId(0), &ids(&[1]));
        dt.settle();
        assert!(dt.are_neighbors(NodeId(0), NodeId(1)));
    }

    /// One mutation, in the form the mutators and the reference model
    /// take.
    #[derive(Clone, Debug)]
    enum Step {
        Kill(u32),
        Revive(u32),
        Fade(u32, u32),
        Restore(u32, u32),
        Rewire(u32, Vec<u32>),
    }
    use Step::*;

    impl Step {
        /// Through the `defer_*` mutators: views stale until `settle`.
        fn deferred(&self, dt: &mut DynamicTopology) -> bool {
            match self {
                Kill(u) => dt.defer_alive(NodeId(*u), false),
                Revive(u) => dt.defer_alive(NodeId(*u), true),
                Fade(u, v) => dt.defer_fade(NodeId(*u), NodeId(*v), true),
                Restore(u, v) => dt.defer_fade(NodeId(*u), NodeId(*v), false),
                Rewire(u, fresh) => {
                    dt.defer_rewire(NodeId(*u), &ids(fresh));
                    true
                }
            }
        }
    }

    /// Brute-force reference: plain sets, no slabs, no staleness.
    struct Model {
        base: Vec<std::collections::BTreeSet<u32>>,
        faded: std::collections::BTreeSet<(u32, u32)>,
        alive: Vec<bool>,
    }

    fn norm(a: u32, b: u32) -> (u32, u32) {
        (a.min(b), a.max(b))
    }

    impl Model {
        fn new(topo: &Topology) -> Self {
            let n = topo.num_nodes();
            Model {
                base: (0..n as u32)
                    .map(|u| topo.neighbors(NodeId(u)).iter().map(|v| v.0).collect())
                    .collect(),
                faded: Default::default(),
                alive: vec![true; n],
            }
        }

        /// Apply `step`; returns what the mutator must return for it.
        fn apply(&mut self, step: &Step) -> bool {
            match *step {
                Kill(u) => std::mem::replace(&mut self.alive[u as usize], false),
                Revive(u) => !std::mem::replace(&mut self.alive[u as usize], true),
                Fade(u, v) => self.base[u as usize].contains(&v) && self.faded.insert(norm(u, v)),
                Restore(u, v) => self.faded.remove(&norm(u, v)),
                Rewire(u, ref fresh) => {
                    for w in std::mem::take(&mut self.base[u as usize]) {
                        self.base[w as usize].remove(&u);
                        self.faded.remove(&norm(u, w));
                    }
                    for &f in fresh {
                        if f != u && (f as usize) < self.alive.len() {
                            self.base[u as usize].insert(f);
                            self.base[f as usize].insert(u);
                        }
                    }
                    true
                }
            }
        }

        /// `w`'s whole slot, not only its view: the prefix and the suffix
        /// each sorted by id, together `w`'s base set, and the fade bit on
        /// exactly the edges the model fades.
        fn check_slot(&self, dt: &DynamicTopology, w: u32) {
            let slot = dt.slot(w as usize);
            let (prefix, suffix) = slot.split_at(dt.slots[w as usize].active as usize);
            let sorted = |run: &[NodeId]| run.windows(2).all(|p| id(p[0]) < id(p[1]));
            assert!(sorted(prefix), "node {w}: prefix {prefix:?} unsorted");
            assert!(sorted(suffix), "node {w}: suffix {suffix:?} unsorted");
            let mut ids: Vec<u32> = slot.iter().map(|&x| id(x)).collect();
            ids.sort_unstable();
            let base: Vec<u32> = self.base[w as usize].iter().copied().collect();
            assert_eq!(ids, base, "node {w}: slot is not the base set");
            for &x in slot {
                let faded = self.faded.contains(&norm(w, id(x)));
                assert_eq!(x.0 & FADE != 0, faded, "node {w}: fade bit on {}", id(x));
            }
        }

        /// Every active view must equal "base neighbors that are mutually
        /// alive over a non-faded edge", and the alive bookkeeping and the
        /// edge count must agree with it.
        fn check(&self, dt: &DynamicTopology) {
            let mut half_edges = 0;
            for w in 0..self.alive.len() as u32 {
                let expect: Vec<NodeId> = self.base[w as usize]
                    .iter()
                    .filter(|&&x| {
                        self.alive[w as usize]
                            && self.alive[x as usize]
                            && !self.faded.contains(&norm(w, x))
                    })
                    .map(|&x| NodeId(x))
                    .collect();
                assert_eq!(dt.active_neighbors(NodeId(w)), expect, "node {w}");
                half_edges += expect.len();
                self.check_slot(dt, w);
            }
            assert_eq!(dt.alive_mask(), self.alive);
            assert_eq!(dt.alive_count(), self.alive.iter().filter(|&&a| a).count());
            assert_eq!(dt.active_edge_count(), half_edges / 2);
        }
    }

    /// A seeded 3 000-step kill/revive/fade/restore/rewire storm on a
    /// 64-node grid, checked against the model whenever views are settled:
    /// after every step, each settled on its own, or (`batched`) after
    /// each batch of 1..=64 deferred mutations and its one settle. Rewire lists are dirty — duplicates, the node itself,
    /// out-of-range ids — and one in eight is long, up to `n - 1` draws.
    /// Despite the birth slack a run relocates ~200–240 slots and compacts
    /// five to seven times.
    fn storm(topo: Topology, seed: u64, batched: bool) -> DynamicTopology {
        use crate::Rng;
        let n = topo.num_nodes();
        let mut model = Model::new(&topo);
        let mut dt = DynamicTopology::from(topo);
        let mut rng = Rng::new(seed);
        let mut batch_rng = Rng::new(seed ^ 4202);
        let mut left_in_batch = 0;
        for _ in 0..3000 {
            let u = rng.gen_range(n) as u32;
            let v = rng.gen_range(n) as u32;
            let step = match rng.gen_range(5) {
                0 => Kill(u),
                1 => Revive(u),
                2 => Fade(u, v),
                3 => Restore(u, v),
                _ => {
                    let long = rng.gen_range(8) == 0;
                    let deg = rng.gen_range(if long { n } else { 11 });
                    Rewire(u, (0..deg).map(|_| rng.gen_range(n + 2) as u32).collect())
                }
            };
            let expect = model.apply(&step);
            if !batched {
                assert_eq!(step.deferred(&mut dt), expect, "{step:?}");
                dt.settle();
                model.check(&dt);
                continue;
            }
            if left_in_batch == 0 {
                left_in_batch = 1 + batch_rng.gen_range(64);
            }
            assert_eq!(step.deferred(&mut dt), expect, "{step:?}");
            left_in_batch -= 1;
            if left_in_batch == 0 {
                dt.settle();
                model.check(&dt);
            }
        }
        dt.settle();
        model.check(&dt);
        dt
    }

    const STORM_SEEDS: [u64; 8] = [2024, 1, 7, 42, 301, 0xfeed, 90_210, u64::MAX];

    #[test]
    fn slab_survives_a_mutation_storm() {
        for seed in STORM_SEEDS {
            storm(Topology::grid(64), seed, false);
        }
    }

    #[test]
    fn batched_storm_matches_one_at_a_time_and_the_model() {
        for seed in STORM_SEEDS {
            let grid = Topology::grid(64);
            let (stepwise, batched) = (storm(grid.clone(), seed, false), storm(grid, seed, true));
            for w in 0..stepwise.num_nodes() as u32 {
                let w = NodeId(w);
                assert_eq!(stepwise.active_neighbors(w), batched.active_neighbors(w));
            }
            assert_eq!(stepwise.alive_mask(), batched.alive_mask());
            assert_eq!(stepwise.alive_count(), batched.alive_count());
            assert_eq!(stepwise.active_edge_count(), batched.active_edge_count());
        }
    }

    /// The slots and slab the conversion must lay out, as a copy into a
    /// fresh slab builds them: rows in node order, each followed by its
    /// slack, zeroed.
    fn copied(topo: &Topology) -> (Vec<Slot>, Vec<NodeId>) {
        let mut slab = Vec::new();
        let slots = (0..topo.num_nodes() as u32)
            .map(|u| {
                let row = topo.neighbors(NodeId(u));
                let (at, cap) = (slab.len(), slot_capacity(row.len()));
                slab.extend_from_slice(row);
                slab.resize(at + cap, NodeId(0));
                let len = row.len() as u32;
                Slot {
                    start: at as u32,
                    cap: cap as u32,
                    len,
                    active: len,
                }
            })
            .collect();
        (slots, slab)
    }

    /// Convert `topo` in place and check it against [`copied`]: every
    /// start, capacity, length and prefix, and every slack entry zero.
    fn converts_like_a_copy(topo: Topology) {
        let (slots, slab) = copied(&topo);
        let name = format!("{} n={}", topo.name(), topo.num_nodes());
        let dt = DynamicTopology::from(topo);
        assert_eq!(dt.slots, slots, "{name}: slots");
        assert_eq!(dt.slab, slab, "{name}: slab");
        assert_eq!(dt.alive_count(), dt.num_nodes(), "{name}");
    }

    #[test]
    fn conversion_lays_out_the_slab_a_copy_would() {
        use crate::Rng;
        for n in [1, 2, 3, 64, 65] {
            converts_like_a_copy(Topology::line(n));
            converts_like_a_copy(Topology::ring(n));
            converts_like_a_copy(Topology::grid(n));
            converts_like_a_copy(Topology::complete(n));
            let rgg = Topology::random_geometric(n, &mut Rng::new(n as u64));
            converts_like_a_copy(rgg);
        }
        // Every slot empty: each is its two spare entries.
        let edgeless = Topology::from_edges("edgeless", 5, &[]);
        assert!(copied(&edgeless).0.iter().all(|s| s.cap == 2));
        converts_like_a_copy(edgeless);
        // The RGG builder reserves its expected entry count, so `edges`
        // usually ends with spare capacity; a slab that fits in it must
        // not read past the rows, nor one that needs far less of it.
        let mut rgg = Topology::random_geometric(2000, &mut Rng::new(5));
        assert!(rgg.edges.capacity() > rgg.edges.len());
        converts_like_a_copy(rgg.clone());
        rgg.edges.reserve_exact(4 * rgg.edges.len());
        converts_like_a_copy(rgg);
    }

    #[test]
    fn converted_rgg_survives_the_storm() {
        use crate::Rng;
        let rgg = Topology::random_geometric(64, &mut Rng::new(3));
        assert!(rgg.edges.capacity() > rgg.edges.len());
        // Every seed once, settled after each step or in batches by turns.
        for (i, seed) in STORM_SEEDS.into_iter().enumerate() {
            storm(rgg.clone(), seed, i % 2 == 1);
        }
    }

    /// Apply `steps` once as a single batch with one settle and once with
    /// a settle after every step; both must match the model (hence each
    /// other). Returns the batched topology, settled.
    fn batch_matches_stepwise(topo: &Topology, steps: &[Step]) -> DynamicTopology {
        let (mut batched, mut stepwise) = (DynamicTopology::new(topo), DynamicTopology::new(topo));
        let mut model = Model::new(topo);
        for step in steps {
            let expect = model.apply(step);
            assert_eq!(step.deferred(&mut batched), expect, "batched {step:?}");
            assert_eq!(step.deferred(&mut stepwise), expect, "stepwise {step:?}");
            stepwise.settle();
        }
        batched.settle();
        model.check(&batched);
        model.check(&stepwise);
        batched
    }

    #[test]
    fn one_node_mutated_repeatedly_within_a_batch() {
        let line = Topology::line(6);
        // 0-1-2-3-4-5, node 0 rewired twice: the second neighborhood wins.
        let dt = batch_matches_stepwise(&line, &[Rewire(0, vec![3, 4]), Rewire(0, vec![5, 2])]);
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[2, 5]));
        assert_eq!(dt.active_neighbors(NodeId(3)), ids(&[2, 4]));
        // Killed, moved while down, revived: the new edges come up.
        let dt = batch_matches_stepwise(&line, &[Kill(2), Rewire(2, vec![0, 5]), Revive(2)]);
        assert_eq!(dt.active_neighbors(NodeId(2)), ids(&[0, 5]));
        assert_eq!(dt.active_neighbors(NodeId(1)), ids(&[0]));
        // ... and stays invisible if the revive is not in the batch.
        let dt = batch_matches_stepwise(&line, &[Kill(2), Rewire(2, vec![0, 5])]);
        assert!(dt
            .active_neighbors(NodeId(0))
            .iter()
            .all(|&v| v != NodeId(2)));
        // An edge faded, moved away from and moved back to returns clear.
        let steps = [Fade(0, 1), Rewire(0, vec![4]), Rewire(0, vec![1])];
        let dt = batch_matches_stepwise(&line, &steps);
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[1]));
        // ... while a fade that outlives the batch still hides its edge.
        let dt = batch_matches_stepwise(&line, &[Rewire(0, vec![1, 4]), Fade(4, 0)]);
        assert_eq!(dt.active_neighbors(NodeId(0)), ids(&[1]));
    }

    #[test]
    fn later_rewire_decides_a_shared_edge() {
        let line = Topology::line(6); // 0-1-2-3-4-5
        let linked = |dt: &DynamicTopology, a: u32, b: u32| dt.are_neighbors(NodeId(a), NodeId(b));
        // One pair rewired a, b, a and b, a, b: whatever the earlier lists
        // said, the edge is there iff the last list names the other end.
        for (a, b) in [(1, 4), (4, 1), (1, 2), (2, 1)] {
            let steps = [Rewire(a, vec![b]), Rewire(b, vec![]), Rewire(a, vec![b])];
            assert!(linked(&batch_matches_stepwise(&line, &steps), a, b));
            let steps = [Rewire(a, vec![b]), Rewire(b, vec![a]), Rewire(a, vec![])];
            assert!(!linked(&batch_matches_stepwise(&line, &steps), a, b));
        }
        // Both ends rewired once: only the later list counts.
        let dt = batch_matches_stepwise(&line, &[Rewire(1, vec![4]), Rewire(4, vec![0])]);
        assert!(!linked(&dt, 1, 4), "only the earlier list names the other");
        assert_eq!(dt.active_neighbors(NodeId(4)), ids(&[0]));
        let dt = batch_matches_stepwise(&line, &[Rewire(1, vec![0]), Rewire(4, vec![1])]);
        assert!(linked(&dt, 1, 4), "only the later list names the other");
        assert_eq!(dt.active_neighbors(NodeId(1)), ids(&[0, 4]));
        // A dead node rewired between two live ones: 2's earlier claim on
        // it is dropped, 5's later one holds, and nothing shows until the
        // node is back.
        let steps = [
            Kill(3),
            Rewire(2, vec![3]),
            Rewire(3, vec![0, 5]),
            Rewire(5, vec![3]),
        ];
        let dt = batch_matches_stepwise(&line, &steps);
        assert!((0..6).all(|w| !linked(&dt, w, 3)));
        let dt = batch_matches_stepwise(&line, &[&steps[..], &[Revive(3)]].concat());
        assert_eq!(dt.active_neighbors(NodeId(3)), ids(&[0, 5]));
        assert!(dt.active_neighbors(NodeId(2)).is_empty());
    }

    #[test]
    fn rewire_relocates_a_stale_neighbors_slot_mid_batch() {
        let ring = Topology::ring(8);
        let mut dt = DynamicTopology::new(&ring);
        // Node 4 goes stale (its neighbor died), then 0, 1 and 2 move next
        // to it: three gains overflow the two spare entries its slot was
        // born with, so the settle that hands it the new edges relocates
        // it on the way to rebuilding its view.
        dt.defer_alive(NodeId(3), false);
        let before = dt.slots[4].start;
        for r in 0..3 {
            dt.defer_rewire(NodeId(r), &ids(&[4]));
        }
        assert!(dt.is_stale[0] && dt.is_stale[4]);
        dt.settle();
        assert_ne!(dt.slots[4].start, before, "slot must have moved");
        assert!(dt.stale.is_empty() && dt.pending.is_empty());
        assert_eq!(dt.active_neighbors(NodeId(4)), ids(&[0, 1, 2, 5]));
        let steps = [
            Kill(3),
            Rewire(0, vec![4]),
            Rewire(1, vec![4]),
            Rewire(2, vec![4]),
        ];
        batch_matches_stepwise(&ring, &steps);
    }

    #[test]
    fn a_batch_within_the_birth_slack_strands_nothing() {
        // Degree-2 slots are born with room for two more entries: rewires
        // that hand no node more than that settle entirely in place.
        let ring = Topology::ring(300);
        let steps = [
            Rewire(0, vec![100, 200]),
            Rewire(50, vec![100, 250]),
            Kill(9),
            Fade(20, 21),
            Rewire(150, vec![0]),
        ];
        let dt = batch_matches_stepwise(&ring, &steps);
        assert_eq!(dt.waste, 0, "no slot relocated");
        let starts = |dt: &DynamicTopology| dt.slots.iter().map(|s| s.start).collect::<Vec<_>>();
        assert_eq!(starts(&dt), starts(&DynamicTopology::new(&ring)));
        assert_eq!(dt.active_neighbors(NodeId(100)), ids(&[0, 50, 99, 101]));
    }

    #[test]
    fn compaction_mid_batch_keeps_every_view() {
        // Three nodes moving next to everyone hand nearly all 300 degree-2
        // slots three gains, one past their birth slack: the stranded
        // capacity passes both compaction thresholds in the settle of
        // those rewires, with other mutations settled alongside them and
        // more to come on the compacted slab.
        let ring = Topology::ring(300);
        let everyone: Vec<u32> = (0..300).collect();
        let steps = [
            Kill(7),
            Fade(20, 21),
            Rewire(0, everyone.clone()),
            Rewire(1, everyone.clone()),
            Rewire(2, everyone),
            Revive(7),
            Kill(9),
            Rewire(5, vec![100, 200]),
        ];
        let mut dt = DynamicTopology::new(&ring);
        let mut model = Model::new(&ring);
        for (i, step) in steps.iter().enumerate() {
            assert_eq!(step.deferred(&mut dt), model.apply(step), "{step:?}");
            if i == 4 {
                dt.settle();
                let len = dt.slots[150].len as usize;
                assert!(len > slot_capacity(2), "{len} entries must have relocated");
                assert_eq!(dt.waste, 0, "... and then compacted");
                assert!(dt.stale.is_empty(), "compaction moves views whole");
                model.check(&dt);
            }
        }
        dt.settle();
        model.check(&dt);
        // The same eight as one batch: the compaction closes its settle.
        let dt = batch_matches_stepwise(&ring, &steps);
        assert_eq!(dt.waste, 0);
        assert_eq!(dt.active_neighbors(NodeId(0)).len(), 297); // all but 0, 9 and 5
    }

    #[test]
    fn a_relocation_grows_the_slab_by_a_bounded_share_not_double() {
        // The converted slab fills its allocation exactly; node 0 taking a
        // hundred neighbors outgrows its slot, which moves to the tail.
        let mut dt = DynamicTopology::new(&Topology::ring(4096));
        assert_eq!(dt.slab.capacity(), dt.slab.len());
        let wide: Vec<NodeId> = (1..=100).map(NodeId).collect();
        dt.defer_rewire(NodeId(0), &wide);
        dt.settle();
        let (len, slot) = (dt.slab.len(), dt.slots[0].cap as usize);
        assert_eq!(dt.slots[0].start as usize + slot, len, "node 0 relocated");
        let capacity = dt.slab.capacity();
        assert!(
            capacity <= len + len / 8 + slot,
            "{capacity} entries allocated for a slab of {len}"
        );
    }

    #[test]
    fn compaction_allocates_exactly_the_slab_it_writes() {
        // Two hubs reaching ever more of a ring fill those nodes' slots in
        // place (two gains, their birth slack) while their own slots
        // relocate, until the stranded capacity compacts a slab of full
        // slots: each grows there, so the slab outgrows its live entries.
        let mut dt = DynamicTopology::new(&Topology::ring(2000));
        let mut reach_out = |reach: u32| {
            let wide: Vec<NodeId> = (2..reach).map(NodeId).collect();
            dt.defer_rewire(NodeId(0), &wide);
            dt.defer_rewire(NodeId(1), &wide);
            dt.settle();
            (dt.waste, dt.slots.iter().filter(|s| s.len == s.cap).count())
        };
        reach_out(100);
        reach_out(200);
        assert_eq!(reach_out(400), (904, 397), "(waste, full slots)");
        reach_out(800);
        assert_eq!(dt.waste, 0, "compacted");
        assert_eq!(dt.slab.capacity(), dt.slab.len());
        assert_eq!(dt.active_neighbors(NodeId(500)), ids(&[0, 1, 499, 501]));
    }

    #[test]
    fn stale_nodes_come_out_ascending_sorted_or_read_off_the_marks() {
        // Of 64 nodes, 2 marked is sparse (a sort), 5 and 40 dense (a scan).
        for count in [2, 5, 40] {
            let mut is_stale = vec![false; 64];
            let mut stale: Vec<u32> = (0..count).map(|i| (i * 37 + 11) % 64).collect();
            for &u in &stale {
                is_stale[u as usize] = true;
            }
            let mut expect = stale.clone();
            expect.sort_unstable();
            sort_stale(&mut stale, &is_stale);
            assert_eq!(stale, expect, "{count} marked");
        }
    }

    #[test]
    #[should_panic(expected = "active view read before settle")]
    fn reading_a_view_between_a_deferred_mutation_and_settle_panics() {
        let mut dt = DynamicTopology::new(&Topology::ring(4));
        dt.defer_alive(NodeId(1), false);
        dt.active_neighbors(NodeId(0));
    }
}
