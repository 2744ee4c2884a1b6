//! Partial-view membership: bounded HyParView-style active/passive views
//! with SWIM-style probe/suspect/evict failure detection.
//!
//! The simulator's engines hand every node its *full* underlay
//! neighborhood. Real smartphone meshes do not work that way: a peer only
//! gossips with the handful of neighbors it has *discovered*, maintained
//! by a membership protocol. This crate supplies that layer as a
//! [`Membership`] overlay sitting between the underlay topology and the
//! gossip protocol:
//!
//! - **Active views** (HyParView): each node keeps a small bounded set of
//!   symmetric links — the peers it actually gossips with. [`Membership`]
//!   implements [`GraphView`], so the engines' advertise/scan/connect
//!   machinery runs over the discovered overlay completely unmodified.
//! - **Passive views** (HyParView): a larger bounded reservoir of known
//!   peers, refreshed by periodic shuffle steps and promoted into the
//!   active view when capacity frees up (eviction, churn).
//! - **Failure detection** (SWIM): each node periodically probes one
//!   random active peer. A probe fails when the peer is dead or no longer
//!   underlay-reachable; the peer is then *suspected* and, unless a later
//!   probe refutes the suspicion before its deadline (two probe periods),
//!   *evicted* from the active view. An eviction whose target was in fact
//!   alive and reachable is counted as a **false positive**.
//!
//! # Determinism
//!
//! All membership state advances in [`Membership::tick`], which both
//! engines call from **serial** sections only — the synchronous scheduler
//! at round boundaries, the time-sliced asynchronous scheduler at slice
//! boundaries, before the parallel phase of the round/slice reads the
//! views. One tick consumes exactly one RNG stream,
//! `Rng::stream(seed, tick, MEMBERSHIP_STREAM)`, walked in node-id order,
//! so the overlay's evolution is a pure function of
//! `(seed, tick, underlay, alive)` and is byte-identical at any thread
//! count. Trace emission never consumes randomness, so probed and
//! unprobed runs agree too.
//!
//! # Interaction with churn
//!
//! A departed node's *own* state is cleared (it powered off), but its
//! peers keep their links to it — they have no oracle, and must discover
//! the death the way a real mesh does: the link stops working (a dead
//! peer never listens, so connections to it simply fail) and the failure
//! detector eventually suspects and evicts it. A rejoining node comes
//! back empty and re-enters through the join step. The symmetry invariant
//! therefore holds between *alive* nodes; links dangling toward the dead
//! are exactly the staleness the layer is modeling.
//!
//! # Memory layout
//!
//! The active and the passive views are each one fixed-stride slab, not a
//! `Vec` per node: node `u` owns ids `u·s .. (u + 1)·s` of a flat array,
//! its view is a sorted prefix of them, and the prefix lengths sit in a
//! `u32` array beside it. The stride `s` is the configured view size,
//! clamped to `n − 1` (a view holds distinct peers other than its node).
//! A tick's binary searches and insert/remove shifts stay inside one short
//! run of memory, and [`GraphView::neighbors`] is a slice of the slab. The
//! price is that every view is allocated at capacity up front:
//! `n × (s_a + s_p)` ids of 4 bytes, whatever the views hold — 2.8 MB for
//! the default sizes 5 and 30 on 20 000 nodes. The scenario builder
//! refuses slabs past its word budget.
//!
//! Open suspicions sit inline too, in a fixed record of three slots per
//! node (40 bytes), not a `Vec` each: a `Vec` per node cost 24 bytes plus
//! a heap block for nearly every node of a churned run, ~1.9 MB on
//! 20 000 nodes whose longest list held two entries.

use gossip_core::rng::MEMBERSHIP_STREAM;
use gossip_core::{GraphView, NodeId, Rng, TICKS_PER_ROUND};
use gossip_telemetry::{EventKind, Probe, TraceEvent};

/// Tuning knobs of the membership layer. Validated once by the
/// experiment front-ends via [`validate`](Self::validate); the layer
/// itself assumes a valid config.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MembershipConfig {
    /// Active view bound: how many symmetric gossip links a node keeps.
    pub active_size: usize,
    /// Passive view bound: how many known-peer entries a node remembers.
    pub passive_size: usize,
    /// Shuffle every this many ticks (1 = every round/slice).
    pub shuffle_period: u64,
    /// Probe one random active peer every this many ticks. The suspect
    /// deadline is two probe periods: one full period in which a repeat
    /// probe may refute the suspicion before eviction.
    pub probe_period: u64,
}

impl Default for MembershipConfig {
    fn default() -> Self {
        MembershipConfig {
            active_size: 5,
            passive_size: 30,
            shuffle_period: 1,
            probe_period: 1,
        }
    }
}

impl MembershipConfig {
    /// Range-check the knobs; the error names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.active_size == 0 {
            return Err("active view size must be at least 1".to_string());
        }
        if self.passive_size == 0 {
            return Err("passive view size must be at least 1".to_string());
        }
        if self.shuffle_period == 0 {
            return Err("shuffle period must be at least 1 tick".to_string());
        }
        if self.probe_period == 0 {
            return Err("probe period must be at least 1 tick".to_string());
        }
        Ok(())
    }

    /// Ticks from suspicion to eviction (two probe periods).
    pub fn suspect_timeout(&self) -> u64 {
        2 * self.probe_period
    }
}

/// End-of-run membership metrics, emitted as `SimResult.membership`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MembershipStats {
    /// Smallest active view over alive nodes at the end of the run.
    pub active_min: usize,
    /// Mean active view size over alive nodes at the end of the run.
    pub active_mean: f64,
    /// Largest active view over alive nodes at the end of the run.
    pub active_max: usize,
    /// Alive nodes whose active view ended empty (undiscovered or
    /// physically isolated).
    pub isolated_nodes: usize,
    /// Join steps taken (initial discovery and post-churn re-entry).
    pub joins: u64,
    /// Shuffle steps taken (one per node per shuffle tick).
    pub shuffles: u64,
    /// Probes sent.
    pub probes: u64,
    /// Probe failures that opened a suspicion.
    pub suspicions: u64,
    /// Suspects evicted at their deadline.
    pub evictions: u64,
    /// Evictions whose target was alive and underlay-reachable — the
    /// failure detector's false-positive count.
    pub false_positive_evictions: u64,
}

/// The membership overlay: per-node bounded active/passive views plus
/// suspect bookkeeping. Implements [`GraphView`] over the **active**
/// views, so engines gossip over the discovered overlay exactly as they
/// would over an underlay topology.
#[derive(Clone, Debug)]
pub struct Membership {
    cfg: MembershipConfig,
    /// Sorted active view per node (the `GraphView` adjacency).
    active: Views,
    /// Sorted passive view per node, disjoint from the active view.
    passive: Views,
    /// Open suspicions per node.
    suspects: Vec<Suspects>,
    /// Liveness at the previous tick, to detect deaths edge-triggered.
    alive_prev: Vec<bool>,
    joins: u64,
    shuffles: u64,
    probes: u64,
    suspicions: u64,
    evictions: u64,
    false_positive_evictions: u64,
}

impl GraphView for Membership {
    fn num_nodes(&self) -> usize {
        self.active.num_nodes()
    }

    fn neighbors(&self, node: NodeId) -> &[NodeId] {
        self.active.get(node.index())
    }
}

fn is_alive(alive: Option<&[bool]>, u: usize) -> bool {
    alive.is_none_or(|mask| mask[u])
}

/// `u`'s underlay neighbors: the peers it could discover. Every underlay
/// an engine hands [`Membership::tick`] lists only alive peers and never
/// the node itself (a `DynamicTopology` view filters both), so a random
/// pick indexes this slice directly.
fn discoverable<'a, G: GraphView + ?Sized>(
    underlay: &'a G,
    alive: Option<&[bool]>,
    u: usize,
) -> &'a [NodeId] {
    let peers = underlay.neighbors(NodeId(u as u32));
    // Debug only: in release the scan took the membership tick from 41 to
    // 47 ms on the 20 000-node mobile RGG of `dyn-rgg-mobile`.
    debug_assert!(
        peers
            .iter()
            .all(|v| v.index() != u && is_alive(alive, v.index())),
        "node {u}: the underlay view lists the node itself or a dead peer"
    );
    peers
}

/// Most suspicions a node holds open at once. A node probes once per
/// probe period and a suspicion falls due two periods after it opens, so
/// at a probe tick the suspicions of the two probe ticks before may still
/// stand beside the new one (the oldest is evicted later in that tick).
/// Ticks only grow, and a skipped probe tick opens none.
const MAX_SUSPECTS: usize = 3;

/// A node's open suspicions, oldest first: peer `peer[i]` is evicted at
/// tick `due[i]` for every `i < len`, unless a probe refutes it first.
#[derive(Clone, Copy, Debug)]
struct Suspects {
    due: [u64; MAX_SUSPECTS],
    peer: [NodeId; MAX_SUSPECTS],
    len: u32,
}

impl Suspects {
    const NONE: Suspects = Suspects {
        due: [0; MAX_SUSPECTS],
        peer: [NodeId(0); MAX_SUSPECTS],
        len: 0,
    };

    fn contains(&self, v: NodeId) -> bool {
        self.peer[..self.len as usize].contains(&v)
    }

    /// Suspect `v` until tick `due`, after every open suspicion (a fourth
    /// panics on the array bound).
    fn push(&mut self, v: NodeId, due: u64) {
        let len = self.len as usize;
        (self.peer[len], self.due[len]) = (v, due);
        self.len += 1;
    }

    /// Close the suspicions `close(peer, due)` picks, keeping the others
    /// in order; the closed ones' peers come back in order, the first
    /// `count` entries of the array.
    fn close(&mut self, close: impl Fn(NodeId, u64) -> bool) -> ([NodeId; MAX_SUSPECTS], usize) {
        let mut closed = [NodeId(0); MAX_SUSPECTS];
        let (mut kept, mut count) = (0, 0);
        for i in 0..self.len as usize {
            let (v, due) = (self.peer[i], self.due[i]);
            if close(v, due) {
                closed[count] = v;
                count += 1;
            } else {
                (self.peer[kept], self.due[kept]) = (v, due);
                kept += 1;
            }
        }
        self.len = kept as u32;
        (closed, count)
    }
}

/// One sorted view per node in a single fixed-stride slab: node `u` owns
/// `ids[u * stride..][..stride]`, of which the first `len[u]` are its
/// view. The caller keeps every view within the stride; an insert past it
/// panics rather than spill into the next node's view.
#[derive(Clone, Debug)]
struct Views {
    stride: usize,
    len: Vec<u32>,
    ids: Vec<NodeId>,
}

impl Views {
    /// `n` empty views of at most `capacity` peers each; a view of
    /// distinct peers other than its node never needs more than `n − 1`.
    fn new(n: usize, capacity: usize) -> Self {
        let stride = capacity.min(n.saturating_sub(1));
        let slots = n
            .checked_mul(stride)
            .expect("membership view slab overflows usize");
        Views {
            stride,
            len: vec![0; n],
            ids: vec![NodeId(0); slots],
        }
    }

    fn num_nodes(&self) -> usize {
        self.len.len()
    }

    #[inline]
    fn len(&self, u: usize) -> usize {
        self.len[u] as usize
    }

    /// `u`'s view, sorted.
    #[inline]
    fn get(&self, u: usize) -> &[NodeId] {
        let s = u * self.stride;
        &self.ids[s..s + self.len(u)]
    }

    fn contains(&self, u: usize, v: NodeId) -> bool {
        self.get(u).binary_search(&v).is_ok()
    }

    fn clear(&mut self, u: usize) {
        self.len[u] = 0;
    }

    /// Insert `v` at its sorted position in `u`'s view, if absent.
    fn insert(&mut self, u: usize, v: NodeId) {
        if let Err(pos) = self.get(u).binary_search(&v) {
            let (s, len) = (u * self.stride, self.len(u));
            assert!(len < self.stride, "node {u}: view overflows its stride");
            let view = &mut self.ids[s..s + len + 1];
            view.copy_within(pos..len, pos + 1);
            view[pos] = v;
            self.len[u] += 1;
        }
    }

    /// Remove `v` from `u`'s view if present; reports whether it was.
    fn remove(&mut self, u: usize, v: NodeId) -> bool {
        match self.get(u).binary_search(&v) {
            Ok(pos) => {
                self.remove_at(u, pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Remove and return the entry at `idx` of `u`'s view.
    fn remove_at(&mut self, u: usize, idx: usize) -> NodeId {
        let (s, len) = (u * self.stride, self.len(u));
        let view = &mut self.ids[s..s + len];
        let v = view[idx];
        view.copy_within(idx + 1..len, idx);
        self.len[u] -= 1;
        v
    }
}

impl Membership {
    /// An empty overlay over `n` nodes: every view starts empty and fills
    /// through join/shuffle ticks (discovery is part of the model).
    pub fn new(n: usize, cfg: MembershipConfig) -> Self {
        Membership {
            cfg,
            active: Views::new(n, cfg.active_size),
            passive: Views::new(n, cfg.passive_size),
            suspects: vec![Suspects::NONE; n],
            alive_prev: vec![true; n],
            joins: 0,
            shuffles: 0,
            probes: 0,
            suspicions: 0,
            evictions: 0,
            false_positive_evictions: 0,
        }
    }

    /// The configuration this overlay runs with.
    pub fn config(&self) -> &MembershipConfig {
        &self.cfg
    }

    /// `node`'s current passive view (sorted).
    pub fn passive_view(&self, node: NodeId) -> &[NodeId] {
        self.passive.get(node.index())
    }

    /// Advance the overlay by one tick (a synchronous round or an
    /// asynchronous slice pass). Serial and deterministic: one RNG stream
    /// per tick, walked in node-id order; `probe` observes join / shuffle
    /// / suspect / evict events but never perturbs the stream.
    ///
    /// `underlay` is the physical topology (who *could* be discovered),
    /// `alive` the dynamics liveness mask (`None` = everyone alive). The
    /// underlay's views must already leave out dead peers and the node
    /// itself, as every `DynamicTopology` view does.
    pub fn tick<G: GraphView + ?Sized>(
        &mut self,
        underlay: &G,
        alive: Option<&[bool]>,
        seed: u64,
        tick: u64,
        probe: &mut dyn Probe,
    ) {
        let n = self.active.num_nodes();
        let mut rng = Rng::stream(seed, tick, MEMBERSHIP_STREAM);
        let tracing = probe.enabled();
        let trace = |probe: &mut dyn Probe, kind, node: usize, peer: NodeId| {
            if tracing {
                let t = tick * TICKS_PER_ROUND;
                probe.record(&TraceEvent::new(kind, t, tick, &[node as u32, peer.0]));
            }
        };

        // 1. Edge-triggered deaths: a departing node loses its own state
        //    (it powered off). Peers keep their dangling links — the
        //    failure detector has to find the death, that's the model.
        for u in 0..n {
            let a = is_alive(alive, u);
            if !a && self.alive_prev[u] {
                self.active.clear(u);
                self.passive.clear(u);
                self.suspects[u] = Suspects::NONE;
            }
            self.alive_prev[u] = a;
        }

        // 2. Join: a node with an empty active view links to one random
        //    alive underlay neighbor (initial discovery and churn
        //    re-entry both land here).
        for u in 0..n {
            if !is_alive(alive, u) || self.active.len(u) > 0 {
                continue;
            }
            let peers = discoverable(underlay, alive, u);
            if peers.is_empty() {
                continue; // physically isolated right now
            }
            let c = peers[rng.gen_range(peers.len())];
            self.link(u, c.index(), &mut rng);
            self.joins += 1;
            trace(probe, EventKind::Join, u, c);
        }

        // 3. Shuffle: refresh the passive reservoir with one random alive
        //    underlay neighbor, then promote alive passive peers until the
        //    active view is full again.
        if tick.is_multiple_of(self.cfg.shuffle_period) {
            for u in 0..n {
                if !is_alive(alive, u) {
                    continue;
                }
                let peers = discoverable(underlay, alive, u);
                if !peers.is_empty() {
                    let v = peers[rng.gen_range(peers.len())];
                    self.note_passive(u, v.index(), &mut rng);
                    self.shuffles += 1;
                    trace(probe, EventKind::Shuffle, u, v);
                }
                self.promote(u, alive, &mut rng);
            }
        }

        // 4. Probe: ping one random active peer; failure (dead or no
        //    longer underlay-reachable) opens a suspicion, success refutes
        //    any standing one.
        if tick.is_multiple_of(self.cfg.probe_period) {
            for u in 0..n {
                if !is_alive(alive, u) || self.active.len(u) == 0 {
                    continue;
                }
                let v = self.active.get(u)[rng.gen_range(self.active.len(u))];
                self.probes += 1;
                let reachable =
                    is_alive(alive, v.index()) && underlay.are_neighbors(NodeId(u as u32), v);
                if reachable {
                    self.suspects[u].close(|s, _| s == v);
                } else if !self.suspects[u].contains(v) {
                    self.suspects[u].push(v, tick + self.cfg.suspect_timeout());
                    self.suspicions += 1;
                    trace(probe, EventKind::Suspect, u, v);
                }
            }
        }

        // 5. Evict: unrefuted suspicions past their deadline sever the
        //    link on both sides. An eviction of a peer that was actually
        //    alive and reachable is a detector false positive.
        for u in 0..n {
            let (expired, count) = self.suspects[u].close(|_, due| due <= tick);
            for &v in &expired[..count] {
                if self.active.remove(u, v) {
                    self.active.remove(v.index(), NodeId(u as u32));
                    self.evictions += 1;
                    if is_alive(alive, v.index()) && underlay.are_neighbors(NodeId(u as u32), v) {
                        self.false_positive_evictions += 1;
                    }
                    trace(probe, EventKind::Evict, u, v);
                }
            }
        }
    }

    /// Establish the symmetric active link `u — v`, demoting a random
    /// victim to the passive view on any side that is full. Idempotent
    /// per side, so a half-link (churn leftovers) heals into a full one.
    fn link(&mut self, u: usize, v: usize, rng: &mut Rng) {
        if u == v {
            return;
        }
        let (nu, nv) = (NodeId(u as u32), NodeId(v as u32));
        if !self.active.contains(u, nv) {
            self.make_room(u, rng);
            self.active.insert(u, nv);
        }
        if !self.active.contains(v, nu) {
            self.make_room(v, rng);
            self.active.insert(v, nu);
        }
        // Active and passive stay disjoint.
        self.passive.remove(u, nv);
        self.passive.remove(v, nu);
    }

    /// If `u`'s active view is full, demote one random link to make room:
    /// the severed endpoints remember each other passively.
    fn make_room(&mut self, u: usize, rng: &mut Rng) {
        if self.active.len(u) < self.cfg.active_size {
            return;
        }
        let idx = rng.gen_range(self.active.len(u));
        let w = self.active.remove_at(u, idx);
        self.active.remove(w.index(), NodeId(u as u32));
        self.note_passive(u, w.index(), rng);
        self.note_passive(w.index(), u, rng);
    }

    /// Remember `v` in `u`'s bounded passive view (evicting a random
    /// entry when full); no-op if already known actively or passively.
    fn note_passive(&mut self, u: usize, v: usize, rng: &mut Rng) {
        let nv = NodeId(v as u32);
        if u == v || self.active.contains(u, nv) || self.passive.contains(u, nv) {
            return;
        }
        if self.passive.len(u) >= self.cfg.passive_size {
            let idx = rng.gen_range(self.passive.len(u));
            self.passive.remove_at(u, idx);
        }
        self.passive.insert(u, nv);
    }

    /// Promote random alive passive peers into `u`'s active view until it
    /// is full (or the passive view runs out of alive candidates): count
    /// the alive candidates, draw k, take the k-th.
    fn promote(&mut self, u: usize, alive: Option<&[bool]>, rng: &mut Rng) {
        let up = |v: &NodeId| is_alive(alive, v.index());
        while self.active.len(u) < self.cfg.active_size {
            let passive = self.passive.get(u);
            let candidates = passive.iter().filter(|v| up(v)).count();
            if candidates == 0 {
                return;
            }
            let k = rng.gen_range(candidates);
            let (idx, &v) = passive
                .iter()
                .enumerate()
                .filter(|(_, v)| up(v))
                .nth(k)
                .expect("k counts alive candidates");
            self.passive.remove_at(u, idx);
            self.link(u, v.index(), rng);
        }
    }

    /// End-of-run stats over the final views; `alive` masks the view-size
    /// aggregates to nodes that are still up.
    pub fn finish(&self, alive: Option<&[bool]>) -> MembershipStats {
        let n = self.active.num_nodes();
        let mut min = usize::MAX;
        let mut max = 0usize;
        let mut sum = 0usize;
        let mut count = 0usize;
        let mut isolated = 0usize;
        for u in 0..n {
            if !is_alive(alive, u) {
                continue;
            }
            let len = self.active.len(u);
            min = min.min(len);
            max = max.max(len);
            sum += len;
            count += 1;
            if len == 0 {
                isolated += 1;
            }
        }
        MembershipStats {
            active_min: if count == 0 { 0 } else { min },
            active_mean: if count == 0 {
                0.0
            } else {
                sum as f64 / count as f64
            },
            active_max: max,
            isolated_nodes: isolated,
            joins: self.joins,
            shuffles: self.shuffles,
            probes: self.probes,
            suspicions: self.suspicions,
            evictions: self.evictions,
            false_positive_evictions: self.false_positive_evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::{DynamicTopology, Topology};
    use gossip_telemetry::{MemoryProbe, NoopProbe};

    fn run_ticks(topo: &Topology, cfg: MembershipConfig, seed: u64, ticks: u64) -> Membership {
        let mut mem = Membership::new(topo.num_nodes(), cfg);
        for tick in 1..=ticks {
            mem.tick(topo, None, seed, tick, &mut NoopProbe);
        }
        mem
    }

    fn assert_invariants(mem: &Membership, topo: &Topology) {
        let n = topo.num_nodes();
        for u in 0..n {
            let active = mem.neighbors(NodeId(u as u32));
            assert!(
                active.len() <= mem.config().active_size,
                "node {u}: active view over bound"
            );
            assert!(
                mem.passive_view(NodeId(u as u32)).len() <= mem.config().passive_size,
                "node {u}: passive view over bound"
            );
            assert!(active.windows(2).all(|w| w[0] < w[1]), "node {u}: unsorted");
            for &v in active {
                assert_ne!(v.index(), u, "node {u}: self-link");
                assert!(
                    topo.are_neighbors(NodeId(u as u32), v),
                    "node {u}: active peer {v:?} is not an underlay neighbor"
                );
                assert!(
                    mem.neighbors(v).contains(&NodeId(u as u32)),
                    "link {u} -> {v:?} is not symmetric"
                );
                assert!(
                    !mem.passive_view(NodeId(u as u32)).contains(&v),
                    "node {u}: {v:?} both active and passive"
                );
            }
        }
    }

    #[test]
    fn static_views_converge_nonempty_symmetric_and_bounded() {
        for (name, topo) in [
            ("ring", Topology::ring(64)),
            ("grid", Topology::grid(64)),
            ("complete", Topology::complete(16)),
        ] {
            let mem = run_ticks(&topo, MembershipConfig::default(), 7, 10);
            assert_invariants(&mem, &topo);
            for u in 0..topo.num_nodes() {
                assert!(
                    !mem.neighbors(NodeId(u as u32)).is_empty(),
                    "{name}: node {u} still isolated after 10 ticks"
                );
            }
            let stats = mem.finish(None);
            assert_eq!(stats.isolated_nodes, 0);
            assert!(stats.active_min >= 1);
            assert!(stats.active_max <= 5);
            assert!(stats.joins >= topo.num_nodes() as u64 / 2);
        }
    }

    #[test]
    fn ticks_are_deterministic_and_probe_independent() {
        let topo = Topology::grid(100);
        let mut a = Membership::new(100, MembershipConfig::default());
        let mut b = Membership::new(100, MembershipConfig::default());
        let mut probe = MemoryProbe::default();
        for tick in 1..=8 {
            a.tick(&topo, None, 42, tick, &mut NoopProbe);
            b.tick(&topo, None, 42, tick, &mut probe);
        }
        for u in 0..100 {
            assert_eq!(a.neighbors(NodeId(u)), b.neighbors(NodeId(u)));
            assert_eq!(a.passive_view(NodeId(u)), b.passive_view(NodeId(u)));
        }
        assert_eq!(a.finish(None), b.finish(None));
        assert!(
            probe.events.iter().any(|e| e.kind == EventKind::Join),
            "tracing a converging overlay must observe joins"
        );
    }

    #[test]
    fn dead_peers_are_suspected_then_evicted() {
        // A dynamic underlay, as the engines hand one: its views drop the
        // dead node the moment it departs.
        let mut topo = DynamicTopology::new(&Topology::complete(8));
        let cfg = MembershipConfig {
            active_size: 7,
            ..MembershipConfig::default()
        };
        let mut mem = Membership::new(8, cfg);
        for tick in 1..=6 {
            mem.tick(&topo, Some(topo.alive_mask()), 3, tick, &mut NoopProbe);
        }
        // Node 0 departs; its links dangle until probes find the death.
        topo.defer_alive(NodeId(0), false);
        topo.settle();
        let dangling: Vec<usize> = (1..8)
            .filter(|&u| mem.neighbors(NodeId(u as u32)).contains(&NodeId(0)))
            .collect();
        assert!(
            !dangling.is_empty(),
            "a 7-wide view on K8 must include node 0"
        );
        for tick in 7..=40 {
            mem.tick(&topo, Some(topo.alive_mask()), 3, tick, &mut NoopProbe);
        }
        let stats = mem.finish(Some(topo.alive_mask()));
        assert!(stats.suspicions > 0, "the dead peer was never suspected");
        assert!(stats.evictions > 0, "the dead peer was never evicted");
        assert_eq!(
            stats.false_positive_evictions, 0,
            "evicting a dead peer is not a false positive"
        );
        for u in 1..8 {
            assert!(
                !mem.neighbors(NodeId(u as u32)).contains(&NodeId(0)),
                "node {u} still links the departed node 0"
            );
        }
        // The dead node's own state was cleared on departure.
        assert!(mem.neighbors(NodeId(0)).is_empty());
        assert!(mem.passive_view(NodeId(0)).is_empty());
    }

    #[test]
    fn a_node_holds_three_open_suspicions_at_most_oldest_first() {
        // K8 with 7-wide views: once five nodes die, a survivor's view is
        // mostly dead peers. A dead peer is never refuted, so a suspicion
        // opened at tick s stands until the eviction step of tick s + 2p:
        // three probes in a row that each find a new dead peer hold three
        // open at once. (Debug builds assert the bound on every push.)
        assert_eq!(std::mem::size_of::<Suspects>(), 40);
        for probe_period in [1, 3] {
            let cfg = MembershipConfig {
                active_size: 7,
                probe_period,
                ..MembershipConfig::default()
            };
            let reached = (0..64).any(|seed| {
                let mut topo = DynamicTopology::new(&Topology::complete(8));
                let mut mem = Membership::new(8, cfg);
                for tick in 1..=6 {
                    mem.tick(&topo, Some(topo.alive_mask()), seed, tick, &mut NoopProbe);
                }
                for u in 1..=5 {
                    topo.defer_alive(NodeId(u), false);
                }
                topo.settle();
                let mut probe = MemoryProbe::default();
                for tick in 7..=6 + 8 * probe_period {
                    mem.tick(&topo, Some(topo.alive_mask()), seed, tick, &mut probe);
                    for u in [0, 6, 7] {
                        // Open between this tick's probes and evictions.
                        let open: Vec<NodeId> = (probe.events.iter())
                            .filter(|e| e.kind == EventKind::Suspect && e.ids[0] == u)
                            .filter(|e| e.round + cfg.suspect_timeout() >= tick)
                            .map(|e| NodeId(e.ids[1]))
                            .collect();
                        assert!(open.len() <= MAX_SUSPECTS, "node {u}: {open:?}");
                        if open.len() == MAX_SUSPECTS {
                            // The oldest fell due; the others stand in order.
                            let s = &mem.suspects[u as usize];
                            assert_eq!(&s.peer[..s.len as usize], &open[1..]);
                            return true;
                        }
                    }
                }
                false
            });
            assert!(reached, "probe period {probe_period}: never three open");
        }
    }

    #[test]
    fn rejoiners_reenter_through_join() {
        let mut topo = DynamicTopology::new(&Topology::ring(16));
        let mut mem = Membership::new(16, MembershipConfig::default());
        for tick in 1..=4 {
            mem.tick(&topo, Some(topo.alive_mask()), 9, tick, &mut NoopProbe);
        }
        topo.defer_alive(NodeId(5), false);
        topo.settle();
        for tick in 5..=12 {
            mem.tick(&topo, Some(topo.alive_mask()), 9, tick, &mut NoopProbe);
        }
        assert!(mem.neighbors(NodeId(5)).is_empty());
        let joins_before = mem.finish(Some(topo.alive_mask())).joins;
        topo.defer_alive(NodeId(5), true);
        topo.settle();
        for tick in 13..=16 {
            mem.tick(&topo, Some(topo.alive_mask()), 9, tick, &mut NoopProbe);
        }
        let stats = mem.finish(Some(topo.alive_mask()));
        assert!(stats.joins > joins_before, "the rejoiner never re-joined");
        assert!(!mem.neighbors(NodeId(5)).is_empty());
    }

    #[test]
    fn isolated_nodes_stay_isolated_and_are_counted() {
        // Two components: {0,1} and {2,3}, plus node 4 with no edges.
        let topo = Topology::from_edges("split", 5, &[(0, 1), (2, 3)]);
        let mem = run_ticks(&topo, MembershipConfig::default(), 1, 6);
        assert!(mem.neighbors(NodeId(4)).is_empty());
        let stats = mem.finish(None);
        assert_eq!(stats.isolated_nodes, 1);
        assert_eq!(stats.active_min, 0);
    }

    /// The slab against a sorted-`Vec` reference through a seeded storm of
    /// inserts, removes, positional removes and clears, driven the way the
    /// overlay drives it: a full view drops a random entry before an
    /// insert. Strides 1 and 3, a capacity clamped to `n − 1` (views fill
    /// up with every other node), and a capacity views keep evicting from.
    #[test]
    fn views_match_a_sorted_vec_reference() {
        for (n, capacity) in [(6, 1), (6, 3), (5, 30), (40, 12)] {
            let mut views = Views::new(n, capacity);
            let stride = capacity.min(n - 1);
            assert_eq!(views.stride, stride);
            let mut model: Vec<Vec<NodeId>> = vec![Vec::new(); n];
            let mut rng = Rng::new(31 * n as u64 + capacity as u64);
            let (mut evictions, mut filled) = (0, 0);
            for _ in 0..6000 {
                let u = rng.gen_range(n);
                let v = NodeId(rng.gen_range(n) as u32);
                match rng.gen_range(8) {
                    0..=3 if v.index() != u => {
                        let present = model[u].contains(&v);
                        assert_eq!(views.contains(u, v), present);
                        if !present && model[u].len() == stride {
                            let idx = rng.gen_range(stride);
                            assert_eq!(views.remove_at(u, idx), model[u].remove(idx));
                            evictions += 1;
                        }
                        views.insert(u, v);
                        if let Err(at) = model[u].binary_search(&v) {
                            model[u].insert(at, v);
                        }
                        filled += usize::from(model[u].len() == stride);
                    }
                    4 | 5 => {
                        let at = model[u].binary_search(&v);
                        assert_eq!(views.remove(u, v), at.is_ok());
                        if let Ok(at) = at {
                            model[u].remove(at);
                        }
                    }
                    6 if !model[u].is_empty() => {
                        let idx = rng.gen_range(model[u].len());
                        assert_eq!(views.remove_at(u, idx), model[u].remove(idx));
                    }
                    7 if rng.gen_range(8) == 0 => {
                        views.clear(u);
                        model[u].clear();
                    }
                    _ => {}
                }
                assert_eq!(views.get(u), &model[u][..], "n {n} capacity {capacity}");
            }
            for (u, expect) in model.iter().enumerate() {
                assert_eq!(views.get(u), &expect[..]);
                assert_eq!(views.len(u), expect.len());
            }
            assert!(filled > 0, "n {n} capacity {capacity}: no view ever filled");
            if stride < n - 1 {
                assert!(evictions > 0, "n {n} capacity {capacity}: no eviction");
            }
        }
    }

    #[test]
    fn config_validation_names_the_bad_field() {
        let ok = MembershipConfig::default();
        assert!(ok.validate().is_ok());
        for (cfg, needle) in [
            (
                MembershipConfig {
                    active_size: 0,
                    ..ok
                },
                "active",
            ),
            (
                MembershipConfig {
                    passive_size: 0,
                    ..ok
                },
                "passive",
            ),
            (
                MembershipConfig {
                    shuffle_period: 0,
                    ..ok
                },
                "shuffle",
            ),
            (
                MembershipConfig {
                    probe_period: 0,
                    ..ok
                },
                "probe",
            ),
        ] {
            let err = cfg.validate().expect_err("must reject the zero field");
            assert!(err.contains(needle), "error '{err}' must name '{needle}'");
        }
    }

    #[test]
    #[should_panic(expected = "node 0: view overflows its stride")]
    fn an_insert_into_a_full_view_panics() {
        // Two views of one peer each: node 0's second peer would land in
        // node 1's view.
        let mut views = Views::new(3, 1);
        views.insert(0, NodeId(1));
        views.insert(0, NodeId(2));
    }
}
