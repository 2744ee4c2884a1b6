//! Connection proposals and the matching resolver.
//!
//! After scanning advertisements, each node commits to a per-round
//! [`Intent`]: propose a connection to one specific neighbor, listen for
//! incoming proposals (BLE peripheral role), or sit the round out. The
//! resolver turns those intents into the set of pairwise connections that
//! actually form, enforcing the model's defining invariant: **a node is in
//! at most one connection per round**.
//!
//! Resolution has two phases, both deterministic given the RNG:
//!
//! 1. **Proposal phase** — explicit proposals `u → v` (with `v` a listening
//!    neighbor of `u`) are visited in random order within a batch; one
//!    succeeds when both endpoints are still free. Proposals aimed at nodes
//!    that are busy or not listening are simply lost, as in the model.
//! 2. **Rebound phase** — a proposer whose attempt failed re-scans and may
//!    connect to any still-free listening neighbor. This mirrors the model's
//!    assumption that connection resolution yields a matching that is
//!    *maximal* over willing pairs: after resolution, no free proposer is
//!    adjacent to a free listener. On a complete graph this means every
//!    round's matching is maximal over the proposer/listener split.
//!
//! [`resolve_connections`] performs this resolution for a whole synchronous
//! round in one batch; [`resolve_connections_sharded`] is the partitioned
//! form the sharded round loop uses — node-range regions resolved in
//! parallel, boundary conflicts settled by a deterministic serial sweep —
//! with results that are byte-identical at any thread count. The serial
//! resolver's batch is the whole round; the sharded one's region batches
//! run before its sweep, so confined proposals win contested listeners at
//! region edges (its **Priority** note). Event-driven schedulers instead
//! resolve proposals one at a time as their connection events fire;
//! [`IncrementalMatcher`] is the stateful counterpart that enforces the
//! same one-connection-per-node invariant across those individual events.

use crate::rng::{BOUNDARY_STREAM, MATCH_REGION_STREAM_BASE};
use crate::shard::{self, Partition};
use crate::topology::GraphView;
use crate::{NodeId, Rng};

/// A node's committed action for the connection phase of a round.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Intent {
    /// Attempt to open a connection to this neighbor.
    Propose(NodeId),
    /// Accept at most one incoming connection.
    Listen,
    /// Participate in neither side this round.
    #[default]
    Idle,
}

/// A formed pairwise connection. `initiator` proposed; `acceptor` listened.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Connection {
    pub initiator: NodeId,
    pub acceptor: NodeId,
}

/// The outcome of resolving one round of intents: the connections that
/// formed, and how the partitioned resolver split the proposals.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Resolution {
    /// The matching that formed: no node appears in more than one
    /// connection, and no free proposer remains adjacent to a free
    /// listener.
    pub connections: Vec<Connection>,
    /// Proposals resolved inside a region of the partitioned resolver
    /// (every listening neighbor in-region). Always zero from the serial
    /// [`resolve_connections`], which has no partition. Together with
    /// `boundary_proposals` this is the load-balance instrument of the
    /// sharded resolver: a high boundary share means the partition is
    /// fighting the topology.
    pub confined_proposals: u64,
    /// Proposals deferred to the serial boundary sweep of the partitioned
    /// resolver. Zero from the serial resolver.
    pub boundary_proposals: u64,
}

/// The two-phase resolution core shared by the serial resolver, every
/// parallel region, and the boundary sweep: visit `proposals` in random
/// arrival order (phase 1), then let still-free proposers rebound onto any
/// free listening neighbor (phase 2). `matched[i]` tracks node `base + i`
/// — regions pass their own slice of the global occupancy array with
/// `base` at the region's first node, which is sound because every node a
/// region can *match* (proposer, listening target, rebound candidate) lies
/// inside its slice by construction. Connections are appended to
/// `connections`.
///
/// The loops are select-and-bump: each writes its item unconditionally and
/// advances the output index by the keep flag, because uniform intents make
/// every `Listen` and `matched` test a coin flip a branch would mispredict.
/// So they also read the occupancy of targets and neighbors that are not
/// listening, which may lie outside a region's slice: [`slot`] clamps those
/// reads into it, harmlessly, as such a node is never kept or matched.
/// Every caller has already asserted each proposal's edge.
fn resolve_batch<G: GraphView + ?Sized>(
    proposals: &mut [(NodeId, NodeId)],
    topology: &G,
    intents: &[Intent],
    rng: &mut Rng,
    base: usize,
    matched: &mut [bool],
    connections: &mut Vec<Connection>,
) {
    let listens = |v: NodeId| intents[v.index()] == Intent::Listen;

    // Phase 1: explicit proposals, in random arrival order.
    rng.shuffle(proposals);
    let mut len = connections.len();
    let placeholder = Connection {
        initiator: NodeId(0),
        acceptor: NodeId(0),
    };
    connections.resize(len + proposals.len(), placeholder);
    for &(u, v) in proposals.iter() {
        let (iu, iv) = (u.index() - base, slot(v, base, matched));
        let ok = listens(v) & !matched[iu] & !matched[iv];
        matched[iu] |= ok;
        matched[iv] |= ok;
        connections[len] = Connection {
            initiator: u,
            acceptor: v,
        };
        len += usize::from(ok);
    }
    connections.truncate(len);

    // Phase 2: rebound. Failed proposers retry against any free listener in
    // range, making the matching maximal over willing (proposer, listener)
    // pairs.
    let mut free_proposers = vec![NodeId(0); proposals.len()];
    let mut free = 0;
    for &(u, _) in proposals.iter() {
        free_proposers[free] = u;
        free += usize::from(!matched[u.index() - base]);
    }
    free_proposers.truncate(free);
    rng.shuffle(&mut free_proposers);

    let mut candidates = Vec::new();
    for u in free_proposers {
        let row = topology.neighbors(u);
        candidates.resize(candidates.len().max(row.len()), NodeId(0));
        let mut found = 0;
        for &v in row {
            candidates[found] = v;
            found += usize::from(listens(v) & !matched[slot(v, base, matched)]);
        }
        if found == 0 {
            continue;
        }
        let v = candidates[rng.gen_range(found)];
        matched[u.index() - base] = true;
        matched[v.index() - base] = true;
        connections.push(Connection {
            initiator: u,
            acceptor: v,
        });
    }
}

/// `v`'s index into `matched` (which tracks nodes from `base` on), clamped
/// to its last entry: only ever wrong for a node outside the slice, which
/// the callers never keep or match. `matched` is non-empty wherever this
/// runs, since a proposer of the batch lies in it.
#[inline]
fn slot(v: NodeId, base: usize, matched: &[bool]) -> usize {
    v.index().wrapping_sub(base).min(matched.len() - 1)
}

/// Collect `(proposer, target)` pairs in node order, panicking on a
/// proposal across a non-edge: protocols pick only from the neighbors the
/// engine hands them, from the graph it resolves against.
fn collect_proposals<G: GraphView + ?Sized>(
    topology: &G,
    intents: &[Intent],
) -> Vec<(NodeId, NodeId)> {
    let proposals: Vec<(NodeId, NodeId)> = intents
        .iter()
        .enumerate()
        .filter_map(|(u, intent)| match intent {
            Intent::Propose(v) => Some((NodeId(u as u32), *v)),
            _ => None,
        })
        .collect();
    for &(u, v) in &proposals {
        let edge = topology.are_neighbors(u, v);
        assert!(edge, "a protocol proposed {u} -> {v} across a non-edge");
    }
    proposals
}

/// Resolve one round of intents into connections, serially.
///
/// `intents[i]` is node `i`'s intent; `topology` is any [`GraphView`] —
/// static, or the active view of a dynamic graph. The returned matching
/// satisfies the invariants documented on [`Resolution`]; a proposal
/// across a non-edge panics. This is the reference resolver: the partitioned
/// [`resolve_connections_sharded`] must produce a matching satisfying the
/// same invariants (the property tests in `tests/matching_properties.rs`
/// hold it to that).
pub fn resolve_connections<G: GraphView + ?Sized>(
    topology: &G,
    intents: &[Intent],
    rng: &mut Rng,
) -> Resolution {
    let n = topology.num_nodes();
    assert_eq!(intents.len(), n, "one intent per node required");

    let mut proposals = collect_proposals(topology, intents);
    let mut matched = vec![false; n];
    let mut connections = Vec::new();
    resolve_batch(
        &mut proposals,
        topology,
        intents,
        rng,
        0,
        &mut matched,
        &mut connections,
    );
    Resolution {
        connections,
        ..Resolution::default()
    }
}

/// Per-region scratch produced by the parallel pass, merged in region
/// (= node) order afterwards.
#[derive(Default)]
struct RegionOut {
    connections: Vec<Connection>,
    deferred: Vec<(NodeId, NodeId)>,
    confined: u64,
}

/// One region's pass: split the region's proposers into *confined* ones —
/// every listening neighbor lies inside the region's node range, so
/// nothing outside the range can be touched — and *boundary* ones, which
/// are deferred. Confined proposals run the standard two-phase resolution
/// against the region's slice of the occupancy array, drawing from the
/// region's own `(seed, round, region)` stream.
#[allow(clippy::too_many_arguments)] // one flat hot-path call, not an API
fn resolve_region<G: GraphView + ?Sized>(
    region: usize,
    base: usize,
    matched: &mut [bool],
    out: &mut RegionOut,
    topology: &G,
    intents: &[Intent],
    seed: u64,
    round: u64,
) {
    // Gather the region's proposers, select-and-bump (see `resolve_batch`).
    // Only the tag is tested: reading a target here would branch on it.
    let span = matched.len();
    let mut proposers = vec![NodeId(0); span];
    let mut len = 0;
    for (u, intent) in (base..).zip(&intents[base..base + span]) {
        proposers[len] = NodeId(u as u32);
        len += usize::from(matches!(intent, Intent::Propose(_)));
    }
    proposers.truncate(len);

    // Split them: one scan of each row finds both the edge to the target
    // and any listening neighbor outside the region. The edges are
    // asserted once per region with a fixed message: a check per proposer
    // cost the match phase of `sync-ring-uniform` ~2.5 %.
    let mut confined = vec![(NodeId(0), NodeId(0)); len];
    out.deferred.resize(len, (NodeId(0), NodeId(0)));
    let (mut kept, mut deferred, mut edges) = (0, 0, true);
    for u in proposers {
        let Intent::Propose(v) = intents[u.index()] else {
            unreachable!("gathered as a proposer")
        };
        let (mut edge, mut leaves) = (false, false);
        for &w in topology.neighbors(u) {
            edge |= w == v;
            leaves |=
                (intents[w.index()] == Intent::Listen) & (w.index().wrapping_sub(base) >= span);
        }
        edges &= edge;
        confined[kept] = (u, v);
        out.deferred[deferred] = (u, v);
        kept += usize::from(!leaves);
        deferred += usize::from(leaves);
    }
    assert!(edges, "a protocol proposed across a non-edge");
    confined.truncate(kept);
    // Every region's output lives until the merge: hand back what the
    // passes cut, here and after the batch, so the regions hold their
    // results, not a slot per proposer each.
    out.deferred.truncate(deferred);
    out.deferred.shrink_to_fit();
    out.confined += kept as u64;
    let mut rng = Rng::stream(seed, round, MATCH_REGION_STREAM_BASE + region as u64);
    resolve_batch(
        &mut confined,
        topology,
        intents,
        &mut rng,
        base,
        matched,
        &mut out.connections,
    );
    out.connections.shrink_to_fit();
}

/// Resolve one round of intents with the partitioned parallel resolver.
///
/// Nodes are split by [`Partition::split`]`(n, regions)` (the engine passes
/// [`MATCH_REGIONS`](crate::MATCH_REGIONS)). A proposer whose listening
/// neighbors all lie in its own block is resolved inside that block, the
/// blocks running through [`shard::for_each`] — each owns a disjoint slice
/// of the occupancy array. Proposers with a listening neighbor in
/// another block are deferred to a serial *boundary sweep* that runs the
/// same two-phase resolution over the concatenated leftovers (in node
/// order) against the whole occupancy array.
///
/// **Priority.** Every region's batch (proposal and rebound phases) runs
/// before the sweep, so the order of visits is random only within a
/// batch: a confined proposal always wins a listener it contests with a
/// boundary proposal, and a confined proposer rebounds onto free
/// listeners first. On `line(6)` split into two regions, where proposer 1
/// (confined) and proposer 3 (boundary) both target listener 2, node 1
/// gets the connection every time; [`resolve_connections`] gives it about
/// half the time. With [`MATCH_REGIONS`](crate::MATCH_REGIONS) regions
/// this holds at every region edge once `n > 64`.
///
/// **Determinism.** The partition, the confined/boundary split, and every
/// RNG stream (`(seed, round, 2³² + region)` per region,
/// `(seed, round, u64::MAX − 1)` for the sweep) depend only on the inputs
/// — never on `threads`, which merely says how many workers execute the
/// region passes. Regions merge in region order (= node order), so the
/// output is byte-identical at any thread count.
///
/// **Maximality.** A confined proposer left free had every listening
/// neighbor matched at the end of its own region's pass (all of them are
/// in-block by definition), and matches only accumulate afterwards. A
/// boundary proposer left free saw every still-free listener — it rebounds
/// against the global occupancy array. Hence no free proposer is adjacent
/// to a free listener: the same invariant [`resolve_connections`]
/// guarantees, verified against it property-style in
/// `tests/matching_properties.rs`.
pub fn resolve_connections_sharded<G: GraphView + Sync + ?Sized>(
    topology: &G,
    intents: &[Intent],
    seed: u64,
    round: u64,
    regions: usize,
    threads: usize,
) -> Resolution {
    let n = topology.num_nodes();
    assert_eq!(intents.len(), n, "one intent per node required");
    let block = Partition::split(n, regions).block;

    // One task per region: its disjoint slice of the occupancy array
    // (`chunks_mut`, so the pass is safe Rust) and its scratch.
    let mut matched = vec![false; n];
    let mut tasks: Vec<(usize, &mut [bool], RegionOut)> = matched
        .chunks_mut(block)
        .enumerate()
        .map(|(r, chunk)| (r, chunk, RegionOut::default()))
        .collect();
    shard::for_each(threads, &mut tasks, |(r, chunk, out)| {
        resolve_region(*r, *r * block, chunk, out, topology, intents, seed, round)
    });

    // Deterministic merge in region (= node) order, then the serial
    // boundary sweep over the deferred proposals. Sized exactly, so neither
    // the merge nor the sweep's phase 1 (a slot per deferred proposal)
    // reallocates.
    let (formed, boundary) = tasks.iter().fold((0, 0), |(c, d), (_, _, out)| {
        (c + out.connections.len(), d + out.deferred.len())
    });
    let mut connections = Vec::with_capacity(formed + boundary);
    let mut deferred = Vec::with_capacity(boundary);
    let mut confined_proposals = 0;
    for (_, _, mut out) in tasks {
        connections.append(&mut out.connections);
        deferred.append(&mut out.deferred);
        confined_proposals += out.confined;
    }
    let boundary_proposals = deferred.len() as u64;
    let mut rng = Rng::stream(seed, round, BOUNDARY_STREAM);
    resolve_batch(
        &mut deferred,
        topology,
        intents,
        &mut rng,
        0,
        &mut matched,
        &mut connections,
    );
    Resolution {
        connections,
        confined_proposals,
        boundary_proposals,
    }
}

/// A node's availability in an event-driven execution, tracked by
/// [`IncrementalMatcher`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum PeerState {
    /// Not engaged on either side of a connection.
    #[default]
    Free,
    /// Accepting at most one incoming proposal.
    Listening,
    /// Has a proposal in flight; cannot accept incoming proposals.
    Proposing,
    /// Engaged in an open connection (setup or transfer in progress) with
    /// `partner`; `initiated` says this end proposed it.
    Connected { partner: NodeId, initiated: bool },
}

/// The packed [`PeerState`] of one node: one of three codes, or a
/// connected word — the [`CONNECTED`](Self::CONNECTED) flag, the
/// [`INITIATED`](Self::INITIATED) bit and the partner id below them.
/// Connected words have the top bit set, so they never equal a code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct PeerWord(u32);

impl PeerWord {
    const FREE: PeerWord = PeerWord(0);
    const LISTENING: PeerWord = PeerWord(1);
    const PROPOSING: PeerWord = PeerWord(2);
    const CONNECTED: u32 = 1 << 31;
    const INITIATED: u32 = 1 << 30;
    /// Node ids a connected word can name: every id below `2^30`.
    const MAX_NODES: usize = 1 << 30;

    fn pack(state: PeerState) -> PeerWord {
        match state {
            PeerState::Free => PeerWord::FREE,
            PeerState::Listening => PeerWord::LISTENING,
            PeerState::Proposing => PeerWord::PROPOSING,
            // A partner indexed its chunk, so it is below `n < 2^30`.
            PeerState::Connected { partner, initiated } => {
                let initiated = if initiated { Self::INITIATED } else { 0 };
                PeerWord(Self::CONNECTED | initiated | partner.0)
            }
        }
    }

    fn unpack(self) -> PeerState {
        match self {
            PeerWord::FREE => PeerState::Free,
            PeerWord::LISTENING => PeerState::Listening,
            PeerWord::PROPOSING => PeerState::Proposing,
            PeerWord(w) => {
                // Debug only: in release it cost the execute phase of
                // `async-grid-uniform` 3.3 ms of 269 (10 pairs, 3 faster).
                debug_assert!(w & Self::CONNECTED != 0, "no peer state packs to {w:#x}");
                PeerState::Connected {
                    partner: NodeId(w & (Self::INITIATED - 1)),
                    initiated: w & Self::INITIATED != 0,
                }
            }
        }
    }
}

// One word per node of an asynchronous run: the enum it packs takes two.
const _: () = assert!(std::mem::size_of::<PeerWord>() == 4);

/// Incremental connection resolution for event-driven schedulers.
///
/// Where [`resolve_connections`] settles a synchronous round's intents in
/// one batch, an asynchronous execution sees proposals *arrive* at their
/// targets at different virtual times. `IncrementalMatcher` tracks every
/// node's [`PeerState`] so that each arriving proposal can be resolved on
/// the spot — [`try_connect`](MatcherChunk::try_connect) succeeds exactly
/// when the target is still listening and free — while the model's
/// defining invariant holds at every instant: **a node is in at most one
/// connection at a time**.
///
/// There is no rebound phase here: a failed proposer returns to its
/// advertise/scan cycle and retries naturally in continuous time. Each
/// node's state is kept packed in 4 bytes; [`state`](MatcherChunk::state)
/// unpacks it.
#[derive(Clone, Debug)]
pub struct IncrementalMatcher {
    states: Vec<PeerWord>,
}

impl IncrementalMatcher {
    /// All `n` nodes start [`PeerState::Free`]. A packed state names its
    /// partner in 30 bits, so `n` must stay below `2^30` (scenarios stay
    /// below `2^28` nodes).
    pub fn new(n: usize) -> Self {
        assert!(
            n < PeerWord::MAX_NODES,
            "{n} nodes: an incremental matcher names at most 2^30"
        );
        IncrementalMatcher {
            states: vec![PeerWord::FREE; n],
        }
    }

    /// The chunk spanning every node (`base = 0`): how serial code — a
    /// boundary sweep, a mutation drain — reaches the transitions, which
    /// live on [`MatcherChunk`] only.
    pub fn whole(&mut self) -> MatcherChunk<'_> {
        MatcherChunk {
            base: 0,
            states: &mut self.states,
        }
    }

    /// Split the matcher into disjoint mutable blocks of `block`
    /// contiguous nodes each (the last block may be shorter) — the
    /// region-parallel access pattern of the time-sliced event engine.
    /// Each [`MatcherChunk`] owns its nodes' states exclusively, so
    /// workers on different chunks resolve region-local events
    /// concurrently in safe Rust; chunk methods take global [`NodeId`]s.
    pub fn region_chunks(&mut self, block: usize) -> impl Iterator<Item = MatcherChunk<'_>> {
        assert!(block > 0, "region block size must be non-zero");
        self.states
            .chunks_mut(block)
            .enumerate()
            .map(move |(i, states)| MatcherChunk {
                base: i * block,
                states,
            })
    }
}

/// Exclusive access to nodes `base..base + len` of an
/// [`IncrementalMatcher`] — one region from
/// [`region_chunks`](IncrementalMatcher::region_chunks), or all of it from
/// [`whole`](IncrementalMatcher::whole) — and the only place the state
/// transitions are written. Every node passed to a chunk method must fall
/// inside the chunk's range — the time-sliced event engine guarantees this
/// by deferring events whose endpoints straddle regions to its serial
/// boundary sweep.
///
/// `try_connect` and `release` assert the states they leave; `listen`,
/// `propose` and `cancel` check theirs in debug builds only: in release,
/// all five checks together cost the execute phase of `async-grid-uniform`
/// 1.7 ms of 268 (15 pairs, 2 faster), the two kept ones no measurable
/// time.
pub struct MatcherChunk<'a> {
    base: usize,
    states: &'a mut [PeerWord],
}

impl MatcherChunk<'_> {
    /// The nodes this chunk owns.
    pub fn nodes(&self) -> std::ops::Range<usize> {
        self.base..self.base + self.states.len()
    }

    /// `node`'s slot: every caller indexes `states` with it, and that
    /// bounds check refuses a node outside the chunk (one below `base`
    /// wraps past the end).
    #[inline]
    fn local(&self, node: NodeId) -> usize {
        node.index().wrapping_sub(self.base)
    }

    /// Current state of `node`.
    pub fn state(&self, node: NodeId) -> PeerState {
        self.states[self.local(node)].unpack()
    }

    /// `Free → Listening`: the node starts accepting proposals.
    pub fn listen(&mut self, node: NodeId) {
        let l = self.local(node);
        debug_assert_eq!(self.states[l], PeerWord::FREE);
        self.states[l] = PeerWord::LISTENING;
    }

    /// `Free → Proposing`: the node commits to a proposal in flight.
    pub fn propose(&mut self, node: NodeId) {
        let l = self.local(node);
        debug_assert_eq!(self.states[l], PeerWord::FREE);
        self.states[l] = PeerWord::PROPOSING;
    }

    /// `Listening | Proposing → Free`: a listener re-entering its scan
    /// cycle, or a proposer whose attempt failed.
    pub fn cancel(&mut self, node: NodeId) {
        let l = self.local(node);
        debug_assert!(matches!(
            self.states[l],
            PeerWord::LISTENING | PeerWord::PROPOSING
        ));
        self.states[l] = PeerWord::FREE;
    }

    /// Resolve `initiator`'s arriving proposal against `acceptor`, both in
    /// this chunk.
    ///
    /// Succeeds — moving both endpoints to [`PeerState::Connected`], each
    /// naming the other — iff the acceptor is currently listening and the
    /// pair is an edge of `topology` *at arrival time*. The initiator must be
    /// [`PeerState::Proposing`]; on failure it stays so (callers typically
    /// [`cancel`](Self::cancel) it back into its scan cycle). A proposal
    /// across a non-edge simply fails: under a dynamic topology the edge
    /// may legitimately have vanished — endpoint died, link faded, node
    /// moved — while the proposal was in flight.
    pub fn try_connect<G: GraphView + ?Sized>(
        &mut self,
        topology: &G,
        initiator: NodeId,
        acceptor: NodeId,
    ) -> bool {
        let (li, la) = (self.local(initiator), self.local(acceptor));
        assert_eq!(self.states[li], PeerWord::PROPOSING);
        if self.states[la] != PeerWord::LISTENING || !topology.are_neighbors(initiator, acceptor) {
            return false;
        }
        self.states[li] = PeerWord::pack(PeerState::Connected {
            partner: acceptor,
            initiated: true,
        });
        self.states[la] = PeerWord::pack(PeerState::Connected {
            partner: initiator,
            initiated: false,
        });
        true
    }

    /// `Connected → Free` for both endpoints of the connection between `a`
    /// and `b`: the transfer finished, or one end departed. The two ends
    /// must name each other.
    pub fn release(&mut self, a: NodeId, b: NodeId) {
        let (la, lb) = (self.local(a), self.local(b));
        assert!(
            matches!(self.states[la].unpack(), PeerState::Connected { partner, .. } if partner == b)
                && matches!(self.states[lb].unpack(), PeerState::Connected { partner, .. } if partner == a),
            "release({a}, {b}) of ends in states {:?} and {:?}",
            self.states[la].unpack(),
            self.states[lb].unpack()
        );
        self.states[la] = PeerWord::FREE;
        self.states[lb] = PeerWord::FREE;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Topology;

    #[test]
    fn proposal_to_listener_connects() {
        let topo = Topology::line(2);
        let intents = [Intent::Propose(NodeId(1)), Intent::Listen];
        let res = resolve_connections(&topo, &intents, &mut Rng::new(1));
        assert_eq!(
            res.connections,
            vec![Connection {
                initiator: NodeId(0),
                acceptor: NodeId(1)
            }]
        );
    }

    #[test]
    fn proposal_to_non_listener_is_lost() {
        let topo = Topology::line(2);
        let intents = [Intent::Propose(NodeId(1)), Intent::Idle];
        assert!(resolve_connections(&topo, &intents, &mut Rng::new(1))
            .connections
            .is_empty());
        let intents = [Intent::Propose(NodeId(1)), Intent::Propose(NodeId(0))];
        assert!(resolve_connections(&topo, &intents, &mut Rng::new(1))
            .connections
            .is_empty());
    }

    #[test]
    fn listener_accepts_at_most_one() {
        // Both endpoints of a 3-line propose to the middle listener.
        let topo = Topology::line(3);
        let intents = [
            Intent::Propose(NodeId(1)),
            Intent::Listen,
            Intent::Propose(NodeId(1)),
        ];
        let conns = resolve_connections(&topo, &intents, &mut Rng::new(5)).connections;
        assert_eq!(conns.len(), 1);
        assert_eq!(conns[0].acceptor, NodeId(1));
    }

    #[test]
    fn rebound_rescues_failed_proposer() {
        // Nodes 0 and 2 both propose to listener 1; node 3 also listens.
        // Whoever loses node 1 must rebound onto node 3 if adjacent.
        let topo = Topology::complete(4);
        let intents = [
            Intent::Propose(NodeId(1)),
            Intent::Listen,
            Intent::Propose(NodeId(1)),
            Intent::Listen,
        ];
        let conns = resolve_connections(&topo, &intents, &mut Rng::new(8)).connections;
        assert_eq!(conns.len(), 2, "rebound phase should pair everyone");
    }

    #[test]
    fn sharded_resolver_forms_connections_and_is_thread_independent() {
        // A 12-ring with alternating propose/listen intents, split into
        // more regions than make sense — every region is tiny, so all
        // proposals defer to the boundary sweep — and into 2 regions,
        // where most are confined. Both must be internally
        // thread-independent.
        let topo = Topology::ring(12);
        let intents: Vec<Intent> = (0..12)
            .map(|u| {
                if u % 2 == 0 {
                    Intent::Propose(NodeId(((u + 1) % 12) as u32))
                } else {
                    Intent::Listen
                }
            })
            .collect();
        for regions in [2usize, 64] {
            let baseline = resolve_connections_sharded(&topo, &intents, 9, 3, regions, 1);
            assert!(
                !baseline.connections.is_empty(),
                "regions={regions}: some pairs must form"
            );
            assert_eq!(
                baseline.confined_proposals + baseline.boundary_proposals,
                6,
                "regions={regions}: every proposal is either confined or boundary"
            );
            for threads in [2usize, 8] {
                let sharded = resolve_connections_sharded(&topo, &intents, 9, 3, regions, threads);
                assert_eq!(
                    baseline, sharded,
                    "regions={regions}, threads={threads}: sharded resolver diverged"
                );
            }
        }
    }

    // Node 0 proposes to non-neighbor 2 on a 3-line: a protocol bug,
    // which both resolvers refuse in every build.
    const ACROSS_A_NON_EDGE: [Intent; 3] =
        [Intent::Propose(NodeId(2)), Intent::Listen, Intent::Idle];

    #[test]
    #[should_panic(expected = "across a non-edge")]
    fn a_non_edge_proposal_panics_in_the_serial_resolver() {
        resolve_connections(&Topology::line(3), &ACROSS_A_NON_EDGE, &mut Rng::new(4));
    }

    #[test]
    #[should_panic(expected = "across a non-edge")]
    fn a_non_edge_proposal_panics_in_the_sharded_resolver() {
        let topo = Topology::line(3);
        // One thread, so the region pass panics on the test's own thread.
        resolve_connections_sharded(&topo, &ACROSS_A_NON_EDGE, 4, 1, crate::MATCH_REGIONS, 1);
    }

    #[test]
    fn incremental_connect_requires_a_free_listener() {
        let topo = Topology::line(3);
        let mut matcher = IncrementalMatcher::new(3);
        let mut m = matcher.whole();
        m.propose(NodeId(0));
        // Target idle: the proposal is lost.
        assert!(!m.try_connect(&topo, NodeId(0), NodeId(1)));
        assert_eq!(m.state(NodeId(0)), PeerState::Proposing);
        // Target listening: the connection forms, each end naming the
        // other and only the proposer marked as its initiator.
        m.listen(NodeId(1));
        assert!(m.try_connect(&topo, NodeId(0), NodeId(1)));
        assert_eq!(
            m.state(NodeId(0)),
            PeerState::Connected {
                partner: NodeId(1),
                initiated: true
            }
        );
        assert_eq!(
            m.state(NodeId(1)),
            PeerState::Connected {
                partner: NodeId(0),
                initiated: false
            }
        );
        m.release(NodeId(1), NodeId(0));
        assert_eq!(m.state(NodeId(0)), PeerState::Free);
        assert_eq!(m.state(NodeId(1)), PeerState::Free);
    }

    #[test]
    #[should_panic(expected = "release(n0, n2)")]
    fn releasing_ends_that_do_not_name_each_other_panics() {
        let topo = Topology::line(3);
        let mut matcher = IncrementalMatcher::new(3);
        let mut m = matcher.whole();
        m.listen(NodeId(1));
        m.propose(NodeId(0));
        assert!(m.try_connect(&topo, NodeId(0), NodeId(1)));
        m.release(NodeId(0), NodeId(2));
    }

    #[test]
    fn incremental_listener_accepts_at_most_one() {
        // Both ends of a 3-line propose to the middle listener; only the
        // first arriving proposal may connect.
        let topo = Topology::line(3);
        let mut matcher = IncrementalMatcher::new(3);
        let mut m = matcher.whole();
        m.listen(NodeId(1));
        m.propose(NodeId(0));
        m.propose(NodeId(2));
        assert!(m.try_connect(&topo, NodeId(0), NodeId(1)));
        assert!(!m.try_connect(&topo, NodeId(2), NodeId(1)));
        // The loser cancels back into its scan cycle.
        m.cancel(NodeId(2));
        assert_eq!(m.state(NodeId(2)), PeerState::Free);
    }

    #[test]
    fn incremental_release_frees_both_endpoints() {
        let topo = Topology::line(2);
        let mut matcher = IncrementalMatcher::new(2);
        let mut m = matcher.whole();
        m.listen(NodeId(1));
        m.propose(NodeId(0));
        assert!(m.try_connect(&topo, NodeId(0), NodeId(1)));
        m.release(NodeId(0), NodeId(1));
        assert_eq!(m.state(NodeId(0)), PeerState::Free);
        assert_eq!(m.state(NodeId(1)), PeerState::Free);
        // Both endpoints can immediately engage again.
        m.listen(NodeId(0));
        m.propose(NodeId(1));
        assert!(m.try_connect(&topo, NodeId(1), NodeId(0)));
    }

    /// Every node adjacent to every other: the packed-state tests name
    /// ids near the top of the id range without a graph that large.
    struct Everyone;

    impl GraphView for Everyone {
        fn num_nodes(&self) -> usize {
            PeerWord::MAX_NODES
        }
        fn neighbors(&self, _: NodeId) -> &[NodeId] {
            &[]
        }
        fn are_neighbors(&self, u: NodeId, v: NodeId) -> bool {
            u != v
        }
    }

    #[test]
    fn packed_peer_states_round_trip_through_a_chunk() {
        // Chunks based at the bottom of the id range, at 2^28 (past every
        // scenario's nodes) and just under the 2^30 the packing allows.
        for base in [0usize, (1 << 28) - 2, (1 << 30) - 4] {
            let mut words = [PeerWord::FREE; 4];
            let mut m = MatcherChunk {
                base,
                states: &mut words,
            };
            let ids: Vec<NodeId> = m.nodes().map(|u| NodeId(u as u32)).collect();
            let [a, b, c, d] = ids[..] else {
                unreachable!()
            };
            m.listen(a);
            m.propose(b);
            assert_eq!(m.state(a), PeerState::Listening);
            assert_eq!(m.state(b), PeerState::Proposing);
            assert_eq!(m.state(c), PeerState::Free);
            // Two connections at once, naming partners on either side.
            m.listen(c);
            assert!(m.try_connect(&Everyone, b, c));
            m.propose(d);
            assert!(m.try_connect(&Everyone, d, a));
            let connected = |partner, initiated| PeerState::Connected { partner, initiated };
            assert_eq!(m.state(a), connected(d, false));
            assert_eq!(m.state(b), connected(c, true));
            assert_eq!(m.state(c), connected(b, false));
            assert_eq!(m.state(d), connected(a, true));
            m.release(c, b);
            m.release(a, d);
            assert!(ids.iter().all(|&u| m.state(u) == PeerState::Free));
        }
        // Every state packs to a distinct word that unpacks to itself.
        let mut states = vec![PeerState::Free, PeerState::Listening, PeerState::Proposing];
        for partner in [0, 1, 2, (1 << 28) - 1, 1 << 28, (1 << 30) - 1] {
            for initiated in [false, true] {
                let partner = NodeId(partner);
                states.push(PeerState::Connected { partner, initiated });
            }
        }
        let words: Vec<PeerWord> = states.iter().map(|&s| PeerWord::pack(s)).collect();
        for (i, (&s, &w)) in states.iter().zip(&words).enumerate() {
            assert_eq!(w.unpack(), s);
            assert!(
                !words[..i].contains(&w),
                "{s:?} packs like an earlier state"
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most 2^30")]
    fn a_matcher_past_the_packed_id_range_is_refused() {
        // Refused before allocating a word.
        IncrementalMatcher::new(PeerWord::MAX_NODES);
    }

    #[test]
    fn incremental_proposing_node_cannot_accept() {
        // Two nodes propose to each other: neither is listening, so both
        // arriving proposals fail — exactly the mutual-proposal loss the
        // batch resolver models.
        let topo = Topology::line(2);
        let mut matcher = IncrementalMatcher::new(2);
        let mut m = matcher.whole();
        m.propose(NodeId(0));
        m.propose(NodeId(1));
        assert!(!m.try_connect(&topo, NodeId(0), NodeId(1)));
        assert!(!m.try_connect(&topo, NodeId(1), NodeId(0)));
    }
}
