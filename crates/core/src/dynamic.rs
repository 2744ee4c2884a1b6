//! A mutable topology for networks that change under the protocol's feet.
//!
//! Smartphone peer-to-peer networks are unstable: devices power off and
//! return (churn), links flap with interference (fading), and devices move,
//! re-deriving which peers are in radio range (mobility). [`DynamicTopology`]
//! wraps a static [`Topology`] with the mutation operations those processes
//! need, while keeping the read path as cheap as the static graph:
//!
//! - an **alive mask** with `O(1)` [`is_alive`](DynamicTopology::is_alive)
//!   checks and a maintained alive count,
//! - a **faded-edge overlay** so interference can hide a base edge without
//!   forgetting it,
//! - a mutable **base adjacency** so mobility can rewire a node wholesale:
//!   a rewire is *pending* until the batch settles, when one pass rewrites
//!   every base slot it touches in place, sorted and symmetric again,
//! - and a **derived active adjacency**: per node, the sorted list of
//!   neighbors that are alive and reachable over a non-faded edge. No
//!   mutation edits it: a mutation updates the mask or the flags or queues
//!   a rewire, the nodes whose view it changes are marked *stale* (a
//!   rewire's neighbors when its batch is planned), and
//!   [`settle`](DynamicTopology::settle) rebuilds each stale view in one
//!   filter pass (`alive & !faded`, base order kept) over the node's base
//!   slot. Reads ([`GraphView`]) are exactly as fast as on a static
//!   [`Topology`]; a batch of mutations pays one rebuild per touched node,
//!   not one edit per mutation and neighbor.
//!
//! # Batches
//!
//! The engines apply a whole round's or slice's mutations through the
//! `defer_*` mutators and settle once — at the end of the sync engine's
//! mutation drain, after phase 0 of the sliced engine. In between, the
//! alive mask and count are always current and may be read; the base
//! adjacency and the views may not: `base` is current from `settle` to
//! the next `defer_rewire`, the views from `settle` to the next `defer_*`.
//! Reading a view while any node is stale is a bug, and `active_neighbors`
//! asserts against it in debug builds. A single mutation is a batch of
//! one: `defer_*`, then `settle`.
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
//! sorted), and walks the stale nodes once, ascending: filter the slot in
//! place (or copy the cut list in), merge the gains in from the back,
//! rebuild the view while the slot is hot. `defer_alive` marks the node's
//! neighbors as of the last settle and the plan marks every rewired
//! node's old and new ones, which together cover every view that changes.
//! `defer_fade` reads `base`, so it settles first when an endpoint has a
//! pending rewire; no other rewire can create, delete or un-fade its edge.
//!
//! # Memory layout
//!
//! Like the static [`Topology`], adjacency lives in **flat slabs**, not
//! per-node `Vec`s: each node owns a capacity slot in three parallel
//! arrays — `base` (sorted base neighbors), `faded` (per-base-edge fade
//! flags, found by binary search in the node's own slot), and `active`
//! (the sorted active sublist). Every slot holds its entries plus slack —
//! a quarter of its length, plus two — from birth, so a rewire that hands
//! a node a few edges lands in place. A base slot that outgrows its
//! capacity at `settle` relocates to the slab tail, and the slab compacts
//! itself, handing every slot the same slack again, at the end of that
//! settle once the stranded capacity is worth reclaiming.
//! A batch's lists and gains sit in two arenas that are cleared, not
//! freed, and a settle does work proportional to the nodes it touches,
//! never to `n`. No hashing, no per-node allocation on the mutation path,
//! deterministic iteration order.
//!
//! Dead nodes read as isolated: their active neighbor list is empty and
//! they appear in no other node's list, so protocols — which only ever see
//! neighbor snapshots — naturally ignore them without any scheduler-side
//! special casing.

use crate::topology::GraphView;
use crate::{NodeId, Topology};

/// A [`Topology`] plus an alive-node set, a faded-edge overlay, and
/// active-neighbor views derived from them at [`settle`](Self::settle),
/// all in flat slab storage. See the module docs.
#[derive(Clone, Debug)]
pub struct DynamicTopology {
    name: String,
    /// Slot start of node `u` in the slabs.
    start: Vec<u32>,
    /// Slot capacity of node `u`.
    cap: Vec<u32>,
    /// Base neighbors used in `u`'s slot (sorted prefix).
    base_len: Vec<u32>,
    /// Active neighbors used in `u`'s slot (sorted prefix).
    active_len: Vec<u32>,
    /// Slab of base adjacency, including edges of dead nodes and faded
    /// edges. Mobility rewires mutate this, at `settle`; churn and fading
    /// do not.
    base: Vec<NodeId>,
    /// Parallel to `base`: is this base edge currently faded out?
    /// (Maintained symmetrically on both endpoints' slots.)
    faded: Vec<bool>,
    /// Slab of the adjacency actually visible to protocols: both
    /// endpoints alive and the edge not faded. Written only by `settle`.
    active: Vec<NodeId>,
    alive: Vec<bool>,
    alive_count: usize,
    /// Nodes whose active view is out of date; `is_stale` queues each once.
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
    /// Arena of the base edges the batch's live rewires hand to *other*
    /// nodes, grouped by receiving node; filled and emptied by `settle`.
    gains: Vec<NodeId>,
    /// How many of `gains` node `u` receives; 0 outside `settle`.
    gain_len: Vec<u32>,
    /// End of `u`'s group in `gains`; meaningful only while `gain_len[u] > 0`.
    gain_end: Vec<u32>,
}

/// One deferred rewire: `node`'s new neighbors are `lists[list]`.
#[derive(Clone, Debug)]
struct PendingRewire {
    node: NodeId,
    list: std::ops::Range<usize>,
}

/// Compact once stranded capacity reaches 1/8 of the live slab: a larger
/// share strands more memory between compactions, a smaller one copies
/// the whole slab more often.
const COMPACT_WASTE_SHARE: usize = 8;

/// Capacity of a slot holding `len` base entries: room for a few gains
/// before it relocates. Slots are born with it and compaction restores it.
fn slot_capacity(len: usize) -> usize {
    len + len / 4 + 2
}

impl DynamicTopology {
    /// Start from a static topology: everyone alive, every edge active,
    /// each slot laid out with its slack.
    pub fn new(topology: &Topology) -> Self {
        let n = topology.num_nodes();
        let degrees: Vec<u32> = topology.offsets.windows(2).map(|w| w[1] - w[0]).collect();
        let slots: usize = degrees.iter().map(|&d| slot_capacity(d as usize)).sum();
        assert!(
            slots < u32::MAX as usize,
            "dynamic adjacency slab overflows u32 offsets"
        );
        let (mut start, mut cap) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut base = Vec::with_capacity(slots);
        for u in 0..n {
            let row = topology.neighbors(NodeId(u as u32));
            let (at, slot) = (base.len(), slot_capacity(row.len()));
            start.push(at as u32);
            cap.push(slot as u32);
            base.extend_from_slice(row);
            base.resize(at + slot, NodeId(0));
        }
        DynamicTopology {
            name: topology.name().to_string(),
            start,
            cap,
            base_len: degrees.clone(),
            active_len: degrees,
            faded: vec![false; slots],
            active: base.clone(),
            base,
            alive: vec![true; n],
            alive_count: n,
            stale: Vec::new(),
            is_stale: vec![false; n],
            waste: 0,
            pending: Vec::new(),
            lists: Vec::new(),
            stamp: vec![0; n],
            gains: Vec::new(),
            gain_len: vec![0; n],
            gain_end: vec![0; n],
        }
    }

    /// Name of the underlying topology builder.
    pub fn name(&self) -> &str {
        &self.name
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
        debug_assert!(self.stale.is_empty(), "active view read before settle");
        let u = node.index();
        let s = self.start[u] as usize;
        &self.active[s..s + self.active_len[u] as usize]
    }

    /// Number of currently active undirected edges.
    pub fn active_edge_count(&self) -> usize {
        debug_assert!(self.stale.is_empty(), "active view read before settle");
        self.active_len.iter().map(|&l| l as usize).sum::<usize>() / 2
    }

    /// Absolute slab index of base edge `u — v`, if present.
    fn base_pos(&self, u: usize, v: NodeId) -> Option<usize> {
        let s = self.start[u] as usize;
        let slot = &self.base[s..s + self.base_len[u] as usize];
        slot.binary_search(&v).ok().map(|i| s + i)
    }

    /// Queue `u`'s active view for the next settle.
    fn mark(&mut self, u: usize) {
        if !self.is_stale[u] {
            self.is_stale[u] = true;
            self.stale.push(u as u32);
        }
    }

    /// Bring `base` and every stale active view up to date: apply the
    /// batch's pending rewires (the last-writer rule of the module docs),
    /// then rebuild each stale view from its base slot — the neighbors
    /// that are alive over a non-faded edge, in base (sorted) order.
    /// Returns with nothing pending and nothing stale.
    pub fn settle(&mut self) {
        let rewiring = !self.pending.is_empty();
        if rewiring {
            self.plan_rewires();
        }
        let mut stale = std::mem::take(&mut self.stale);
        // Slots mostly sit in node order: an ascending pass streams the
        // slabs (24 ms against 36 ms in marking order on the mobile run).
        stale.sort_unstable();
        if rewiring {
            self.group_gains(&stale);
        }
        for u in stale.drain(..).map(|u| u as usize) {
            self.is_stale[u] = false;
            if rewiring {
                // Right before the view, so the slot is read while hot.
                self.rebuild_base(u);
            }
            self.rebuild_view(u);
        }
        self.stale = stale;
        if rewiring {
            for p in self.pending.drain(..) {
                self.stamp[p.node.index()] = 0;
            }
            self.lists.clear();
            self.gains.clear();
            if self.compact_if_wasteful() {
                // Every view went stale again; the batch is empty now.
                self.settle();
            }
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
            let s = self.start[r] as usize;
            for k in s..s + self.base_len[r] as usize {
                self.mark(self.base[k].index());
            }
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

    /// Rewrite `u`'s base slot in place for the planned batch: what it
    /// keeps — its cut list if it was rewired, else its old entries that
    /// were not (fade flags carried along) — then its gains, un-faded,
    /// merged in from the back.
    fn rebuild_base(&mut self, u: usize) {
        let gained = self.gain_len[u] as usize;
        let kept = if self.stamp[u] != 0 {
            let list = self.live_list(u);
            if list.len() + gained > self.cap[u] as usize {
                self.base_len[u] = 0; // nothing worth relocating
                self.grow_slot(u, list.len() + gained);
            }
            let s = self.start[u] as usize;
            self.base[s..s + list.len()].copy_from_slice(&self.lists[list.clone()]);
            self.faded[s..s + list.len()].fill(false);
            list.len()
        } else {
            let s = self.start[u] as usize;
            let len = self.base_len[u] as usize;
            // Slices hoisted so the per-entry bounds checks go, and the
            // filter branch-free like the view's: always store, bump the
            // length only for a keeper.
            let (slot, flags) = (&mut self.base[s..s + len], &mut self.faded[s..s + len]);
            let stamp = &self.stamp[..];
            let mut kept = 0;
            for k in 0..len {
                let x = slot[k];
                slot[kept] = x;
                flags[kept] = flags[k];
                kept += usize::from(stamp[x.index()] == 0);
            }
            if kept + gained > self.cap[u] as usize {
                self.base_len[u] = kept as u32;
                self.grow_slot(u, kept + gained);
            }
            kept
        };
        let s = self.start[u] as usize;
        let len = kept + gained;
        let (slot, flags) = (&mut self.base[s..s + len], &mut self.faded[s..s + len]);
        let end = self.gain_end[u] as usize;
        let gains = &self.gains[end - gained..end];
        // Kept and gained never share a node, so the merge needs no tie rule.
        let (mut k, mut g) = (kept, gained);
        while g > 0 {
            if k > 0 && slot[k - 1] > gains[g - 1] {
                slot[k + g - 1] = slot[k - 1];
                flags[k + g - 1] = flags[k - 1];
                k -= 1;
            } else {
                slot[k + g - 1] = gains[g - 1];
                flags[k + g - 1] = false;
                g -= 1;
            }
        }
        self.base_len[u] = len as u32;
        self.gain_len[u] = 0;
    }

    /// Refill `u`'s active view from its base slot.
    fn rebuild_view(&mut self, u: usize) {
        let s = self.start[u] as usize;
        let mut alen = 0;
        if self.alive[u] {
            let len = self.base_len[u] as usize;
            let (slot, flags) = (&self.base[s..s + len], &self.faded[s..s + len]);
            let (view, alive) = (&mut self.active[s..s + len], &self.alive[..]);
            // Branch-free filter: always store, bump the length only
            // for a keeper (a branch per edge: 44 ms against 24 ms).
            for k in 0..len {
                view[alen] = slot[k];
                alen += usize::from(alive[slot[k].index()] & !flags[k]);
            }
        }
        self.active_len[u] = alen as u32;
    }

    /// Relocate `u`'s base slot to the slab tail with capacity at least
    /// `need`, stranding the old capacity until the next compaction. Only
    /// `settle`'s pass calls this, just before it rebuilds `u`'s active
    /// view — which is therefore not moved.
    fn grow_slot(&mut self, u: usize, need: usize) {
        let new_cap = need + need / 2 + 2;
        let old_s = self.start[u] as usize;
        let blen = self.base_len[u] as usize;
        let new_s = self.base.len();
        assert!(
            new_s + new_cap < u32::MAX as usize,
            "dynamic adjacency slab overflows u32 offsets"
        );
        self.base.resize(new_s + new_cap, NodeId(0));
        self.faded.resize(new_s + new_cap, false);
        self.active.resize(new_s + new_cap, NodeId(0));
        self.base.copy_within(old_s..old_s + blen, new_s);
        self.faded.copy_within(old_s..old_s + blen, new_s);
        self.waste += self.cap[u] as usize;
        self.start[u] = new_s as u32;
        self.cap[u] = new_cap as u32;
    }

    /// Rebuild the slabs compactly once relocation waste is worth
    /// reclaiming, with a little per-slot slack so the next few gains do
    /// not relocate again. Returns whether it did — then every node is
    /// stale: `active` is emptied, not moved.
    fn compact_if_wasteful(&mut self) -> bool {
        // The slab is the slots in use plus the stranded ones.
        let live = self.base.len() - self.waste;
        debug_assert_eq!(live, self.cap.iter().map(|&c| c as usize).sum());
        if self.waste < 256 || self.waste * COMPACT_WASTE_SHARE < live {
            return false;
        }
        let mut base = Vec::with_capacity(live);
        let mut faded = Vec::with_capacity(live);
        for u in 0..self.num_nodes() {
            let (os, blen) = (self.start[u] as usize, self.base_len[u] as usize);
            let end = base.len() + slot_capacity(blen);
            self.start[u] = base.len() as u32;
            self.cap[u] = (end - base.len()) as u32;
            base.extend_from_slice(&self.base[os..os + blen]);
            faded.extend_from_slice(&self.faded[os..os + blen]);
            base.resize(end, NodeId(0));
            faded.resize(end, false);
            self.mark(u);
        }
        self.active.clear();
        self.active.resize(base.len(), NodeId(0));
        self.base = base;
        self.faded = faded;
        self.waste = 0;
        true
    }

    /// Take `node` down (`up = false`) or bring it back up (`up = true`).
    /// Flips the alive mask and count now and leaves the views of `node`
    /// and its base neighbors stale until [`settle`](Self::settle): then a
    /// dead node's view is empty and it is in no other node's, and a
    /// revived node's view is its base adjacency filtered by the alive
    /// mask and the faded-edge overlay. Returns false if `node` already
    /// was in that state.
    pub fn defer_alive(&mut self, node: NodeId, up: bool) -> bool {
        let ui = node.index();
        if self.alive[ui] == up {
            return false;
        }
        self.alive[ui] = up;
        self.alive_count = self.alive_count + usize::from(up) - usize::from(!up);
        self.mark(ui);
        for k in 0..self.base_len[ui] as usize {
            let v = self.base[self.start[ui] as usize + k];
            self.mark(v.index());
        }
        true
    }

    /// Fade the base edge `u — v` out (`fade = true`, interference) or
    /// restore it (`fade = false`). Sets the flag on both endpoints' slots
    /// now and leaves their views stale until [`settle`](Self::settle).
    /// Returns false if the edge is not in the base graph or already has
    /// that flag.
    pub fn defer_fade(&mut self, u: NodeId, v: NodeId, fade: bool) -> bool {
        // A pending rewire of an endpoint decides whether this edge exists
        // (and clears its flag): only then must `base` be made current.
        let rewired = |x: NodeId| self.stamp.get(x.index()).is_some_and(|&s| s != 0);
        if rewired(u) || rewired(v) {
            self.settle();
        }
        let iu = match self.base_pos(u.index(), v) {
            Some(iu) if self.faded[iu] != fade => iu,
            _ => return false,
        };
        let iv = self.base_pos(v.index(), u).expect("base is symmetric");
        self.faded[iu] = fade;
        self.faded[iv] = fade;
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
    /// an earlier one of the batch; `base` and the views catch up at
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
        self.stamp[ui] = u32::try_from(self.pending.len()).expect("rewires in one batch fit u32");
        self.mark(ui);
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
    fn storm(seed: u64, batched: bool) -> DynamicTopology {
        use crate::Rng;
        let n = 64usize;
        let topo = Topology::grid(n);
        let mut dt = DynamicTopology::new(&topo);
        let mut model = Model::new(&topo);
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
            storm(seed, false);
        }
    }

    #[test]
    fn batched_storm_matches_one_at_a_time_and_the_model() {
        for seed in STORM_SEEDS {
            let (stepwise, batched) = (storm(seed, false), storm(seed, true));
            for w in 0..stepwise.num_nodes() as u32 {
                let w = NodeId(w);
                assert_eq!(stepwise.active_neighbors(w), batched.active_neighbors(w));
            }
            assert_eq!(stepwise.alive_mask(), batched.alive_mask());
            assert_eq!(stepwise.alive_count(), batched.alive_count());
            assert_eq!(stepwise.active_edge_count(), batched.active_edge_count());
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
        let before = dt.start[4];
        for r in 0..3 {
            dt.defer_rewire(NodeId(r), &ids(&[4]));
        }
        assert!(dt.is_stale[0] && dt.is_stale[4]);
        dt.settle();
        assert_ne!(dt.start[4], before, "slot must have moved");
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
        assert_eq!(dt.start, DynamicTopology::new(&ring).start);
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
                let len = dt.base_len[150] as usize;
                assert!(len > slot_capacity(2), "{len} entries must have relocated");
                assert_eq!(dt.waste, 0, "... and then compacted");
                assert!(dt.stale.is_empty(), "compaction's stale views are rebuilt");
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
    #[cfg(debug_assertions)]
    #[should_panic(expected = "active view read before settle")]
    fn reading_a_view_between_a_deferred_mutation_and_settle_panics() {
        let mut dt = DynamicTopology::new(&Topology::ring(4));
        dt.defer_alive(NodeId(1), false);
        dt.active_neighbors(NodeId(0));
    }
}
