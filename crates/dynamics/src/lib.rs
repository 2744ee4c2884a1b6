//! Churn and mobility for the mobile telephone model: deterministic
//! topology-mutation event streams on the [`SimTime`] axis.
//!
//! The mobile telephone model exists because smartphone peer-to-peer
//! networks are *unstable* — devices join, leave, and move, so the
//! connection graph changes under the protocol's feet. The asynchronous
//! follow-up work (Newport, Weaver & Zheng, "Asynchronous Gossip in
//! Smartphone Peer-to-Peer Networks", 2021) explicitly motivates
//! evaluating gossip under unpredictable, time-varying connectivity. This
//! crate owns that instability:
//!
//! - a [`Dynamics`] describes *how* the network changes: any subset of
//!   [`Churn`], [`EdgeFading`] and [`Waypoint`] mobility;
//! - [`DynamicsModel::stream`] instantiates it for one run as a
//!   [`MutationStream`]: a lazy, time-ordered, seed-deterministic sequence
//!   of [`Mutation`]s;
//! - a scheduler drains the stream and applies each [`MutationKind`] to a
//!   [`DynamicTopology`]: both engines through one drain, the synchronous
//!   one at each round boundary, the sliced event-driven one at the
//!   start of each slice.
//!
//! Crucially, the stream is a pure function of `(model, topology, seed)`
//! and independent of the consuming scheduler, so synchronous and
//! asynchronous runs of the same experiment face the **same** sequence of
//! departures, rejoins, fades, and moves — sync-vs-async comparisons stay
//! apples-to-apples.

mod churn;
mod fading;
mod waypoint;

pub use churn::{Churn, RejoinPolicy, DEFAULT_MEAN_DOWNTIME_ROUNDS};
pub use fading::EdgeFading;
pub use waypoint::{Waypoint, DEFAULT_SPEED_PER_ROUND};

use waypoint::Walk;

use gossip_core::{DynamicTopology, NodeId, Rng, SimTime, TickQueue, Topology, TICKS_PER_ROUND};

/// Salt mixed into the run seed to derive the mutation-stream seed, so
/// dynamics draw from a stream decorrelated from the engine's own RNG.
/// Both schedulers derive the stream the same way, which is what keeps
/// sync and async runs of one experiment on the same mutation sequence.
pub const DYNAMICS_SEED_SALT: u64 = 0x0dd5_eed5;

/// The stream seed for a run with engine seed `run_seed`.
pub fn dynamics_seed(run_seed: u64) -> u64 {
    run_seed ^ DYNAMICS_SEED_SALT
}

/// One topology mutation at one instant of virtual time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Mutation {
    pub time: SimTime,
    pub kind: MutationKind,
}

/// What a [`Mutation`] does to the network.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// The node powers off / walks out of the network.
    Depart(NodeId),
    /// The node returns. `reset_messages` asks the engine to clear its
    /// message set (the [`RejoinPolicy::Lose`] semantics); a rejoining
    /// source always re-learns the rumors it originated.
    Rejoin { node: NodeId, reset_messages: bool },
    /// The edge fades out (interference); both endpoints stay alive.
    EdgeDown(NodeId, NodeId),
    /// A faded edge recovers.
    EdgeUp(NodeId, NodeId),
    /// The node moved: replace its base adjacency with `neighbors`.
    Rewire {
        node: NodeId,
        neighbors: Vec<NodeId>,
    },
}

impl MutationKind {
    /// Apply the topology-side effect to `topo`, leaving active views
    /// stale until the caller's [`DynamicTopology::settle`] — the batch
    /// form the engines use. Returns whether anything changed (e.g. a
    /// `Depart` of an already-dead node is a no-op). Message-set side
    /// effects (`reset_messages`) are the engine's job — the topology does
    /// not know about gossip state.
    pub fn apply_deferred(&self, topo: &mut DynamicTopology) -> bool {
        match self {
            MutationKind::Depart(u) => topo.defer_alive(*u, false),
            MutationKind::Rejoin { node, .. } => topo.defer_alive(*node, true),
            MutationKind::EdgeDown(u, v) => topo.defer_fade(*u, *v, true),
            MutationKind::EdgeUp(u, v) => topo.defer_fade(*u, *v, false),
            MutationKind::Rewire { node, neighbors } => {
                topo.defer_rewire(*node, neighbors);
                true
            }
        }
    }

    /// [`apply_deferred`](Self::apply_deferred) plus the settle: one
    /// mutation, views consistent on return. Kept because
    /// `benchmark/layers` calls it; ROADMAP 4(c).
    pub fn apply(&self, topo: &mut DynamicTopology) -> bool {
        let changed = self.apply_deferred(topo);
        topo.settle();
        changed
    }
}

/// A model of how the network changes over a run. Implementations must be
/// deterministic: the stream produced by [`stream`](Self::stream) is a
/// pure function of `(self, topology, seed)`.
pub trait DynamicsModel {
    /// Model name for reporting: "churn", "fading", "waypoint", or
    /// several of them `+`-joined.
    fn name(&self) -> String;

    /// Check parameter ranges; the one source of truth the CLI validation
    /// and the engines both consult.
    fn validate(&self) -> Result<(), String>;

    /// Instantiate the model for one run over `topology`. The model is
    /// handed over: what it holds (a walk's geometry, say) moves into the
    /// stream instead of being copied.
    fn stream(self: Box<Self>, topology: &Topology, seed: u64) -> Box<dyn MutationStream>;
}

/// A lazy, time-ordered sequence of [`Mutation`]s. Streams are unbounded
/// in general (churn never stops); consumers drain them up to their own
/// time horizon via [`peek_time`](Self::peek_time).
pub trait MutationStream {
    /// Virtual time of the next pending mutation, if any. Never decreases.
    fn peek_time(&self) -> Option<SimTime>;

    /// Pop the next mutation. Its `time` equals the last `peek_time`.
    fn next(&mut self) -> Option<Mutation>;
}

/// How the network changes over a run: any subset of node churn, edge
/// fading and waypoint mobility, run as one schedule. The only production
/// [`DynamicsModel`].
///
/// Two rules fix the stream. **Seeding**: a lone process draws from the
/// stream seed itself; with several, each draws its own seed from
/// `Rng::new(seed).next_u64()`, in the order churn, fading, mobility.
/// **Ties**: at one tick, churn comes before fading and fading before
/// mobility; within one process, scheduling order decides.
#[derive(Clone, Debug, Default)]
pub struct Dynamics {
    /// Node churn, if any.
    pub churn: Option<Churn>,
    /// Edge fading, if any.
    pub fading: Option<EdgeFading>,
    /// Random-waypoint mobility over the run's RGG, if any.
    pub mobility: Option<Waypoint>,
}

impl Dynamics {
    /// The names of the processes present, in schedule order.
    fn processes(&self) -> Vec<&'static str> {
        let names = [
            self.churn.map(|_| "churn"),
            self.fading.map(|_| "fading"),
            self.mobility.as_ref().map(|_| "waypoint"),
        ];
        names.into_iter().flatten().collect()
    }
}

impl DynamicsModel for Dynamics {
    fn name(&self) -> String {
        self.processes().join("+")
    }

    fn validate(&self) -> Result<(), String> {
        if self.processes().is_empty() {
            return Err("dynamics needs churn, fading or mobility".to_string());
        }
        self.churn.map_or(Ok(()), |c| c.validate())?;
        self.fading.map_or(Ok(()), |f| f.validate())?;
        self.mobility.as_ref().map_or(Ok(()), Waypoint::validate)
    }

    fn stream(self: Box<Self>, topology: &Topology, seed: u64) -> Box<dyn MutationStream> {
        Box::new(Schedule::new(*self, topology, seed))
    }
}

/// The rank of each process's timers, the tie rule: at one tick, churn
/// before fading before mobility.
const CHURN: u8 = 0;
const FADING: u8 = 1;
const MOBILITY: u8 = 2;

/// The bit of a timer's item that holds the state an on/off item enters
/// (mobility ignores it). Below it, the item is a node (churn,
/// mobility) or an edge index (fading); both stay below 2^31, edges
/// because the CSR's `u32` offsets count every edge twice.
const UP: u32 = 1 << 31;

/// An on/off renewal process over nodes (churn) or edges (fading): an
/// item is up for a geometric time with per-round end probability `fail`,
/// then down for a geometric time of mean `mean_downtime` rounds — for
/// good unless it `returns`.
struct OnOff {
    fail: f64,
    mean_downtime: f64,
    returns: bool,
    rng: Rng,
}

impl OnOff {
    /// Ticks an item stays up.
    fn uptime(&mut self) -> u64 {
        geometric_ticks(self.fail, &mut self.rng)
    }

    /// Ticks until an item that has just come up (`up`) or gone down flips
    /// again; `None` if it stays down.
    fn hold(&mut self, up: bool) -> Option<u64> {
        if up {
            return Some(self.uptime());
        }
        self.returns
            .then(|| geometric_ticks(1.0 / self.mean_downtime, &mut self.rng))
    }
}

/// Rounds the schedule's ring spans: a timer due this many rounds or more
/// past the horizon waits in the queue's far heap.
const RING_ROUNDS: usize = 256;

/// The stream of a [`Dynamics`]: every process's transitions pop from one
/// [`TickQueue`] of 8-byte timers, ranked by process.
struct Schedule {
    timers: TickQueue<u32, RING_ROUNDS>,
    churn: Option<(OnOff, RejoinPolicy)>,
    fading: Option<OnOff>,
    /// Each undirected base edge once, in node order; empty without fading.
    edges: Vec<(NodeId, NodeId)>,
    walk: Option<Walk>,
}

impl Schedule {
    fn new(model: Dynamics, topology: &Topology, seed: u64) -> Self {
        let n = topology.num_nodes() as u32;
        assert!(n <= UP, "node ids must leave bit 31 to the up flag");
        let lone = model.processes().len() == 1;
        let mut seeds = Rng::new(seed);
        let mut rng = || Rng::new(if lone { seed } else { seeds.next_u64() });
        let on_off = |fail, mean_downtime, returns, rng| OnOff {
            fail,
            mean_downtime,
            returns,
            rng,
        };
        let mut churn = model.churn.map(|c| {
            let returns = c.rejoin != RejoinPolicy::Never;
            (on_off(c.rate, c.mean_downtime, returns, rng()), c.rejoin)
        });
        let mut fading = model
            .fading
            .map(|f| on_off(f.fade_prob, f.mean_downtime, true, rng()));
        let mut walk = model.mobility.map(|w| Walk::new(w, topology, rng()));
        let mut edges = Vec::new();
        if fading.is_some() {
            for u in (0..n).map(NodeId) {
                let row = topology.neighbors(u);
                edges.extend(row.iter().filter(|&&v| v > u).map(|&v| (u, v)));
            }
        }
        let mut timers = TickQueue::default();
        if let Some((on_off, _)) = churn.as_mut() {
            for u in 0..n {
                timers.push(SimTime(on_off.uptime()), CHURN, u);
            }
        }
        if let Some(on_off) = fading.as_mut() {
            for e in 0..edges.len() as u32 {
                timers.push(SimTime(on_off.uptime()), FADING, e);
            }
        }
        if let Some(walk) = walk.as_mut() {
            for u in 0..n {
                timers.push(SimTime(walk.leg(NodeId(u))), MOBILITY, u);
            }
        }
        Schedule {
            timers,
            churn,
            fading,
            edges,
            walk,
        }
    }
}

impl MutationStream for Schedule {
    fn peek_time(&self) -> Option<SimTime> {
        self.timers.earliest()
    }

    fn next(&mut self) -> Option<Mutation> {
        let (time, process, item) = self.timers.pop(SimTime(u64::MAX))?;
        let (up, id) = (item & UP != 0, item & !UP);
        let node = NodeId(id);
        let (hold, kind) = match process {
            CHURN => {
                let (on_off, rejoin) = self.churn.as_mut().expect("a churn transition");
                let kind = match up {
                    true => MutationKind::Rejoin {
                        node,
                        reset_messages: *rejoin == RejoinPolicy::Lose,
                    },
                    false => MutationKind::Depart(node),
                };
                (on_off.hold(up), kind)
            }
            FADING => {
                let on_off = self.fading.as_mut().expect("a fading transition");
                let (u, v) = self.edges[id as usize];
                let kind = match up {
                    true => MutationKind::EdgeUp(u, v),
                    false => MutationKind::EdgeDown(u, v),
                };
                (on_off.hold(up), kind)
            }
            _ => {
                let walk = self.walk.as_mut().expect("a mobility transition");
                let neighbors = walk.arrive(node);
                let kind = MutationKind::Rewire { node, neighbors };
                (Some(walk.leg(node)), kind)
            }
        };
        if let Some(hold) = hold {
            self.timers.push(time.after(hold), process, item ^ UP);
        }
        Some(Mutation { time, kind })
    }
}

/// Sample a geometric waiting time in ticks with per-round success
/// probability `per_round_prob` (i.e. mean `TICKS_PER_ROUND /
/// per_round_prob` ticks), by inverting the geometric CDF at per-tick
/// granularity. Always at least one tick, so streams can never emit two
/// transitions of one item at the same instant.
pub(crate) fn geometric_ticks(per_round_prob: f64, rng: &mut Rng) -> u64 {
    let p = (per_round_prob / TICKS_PER_ROUND as f64).clamp(0.0, 1.0);
    if p >= 1.0 {
        return 1;
    }
    // U in (0, 1]; T = floor(ln U / ln(1-p)) + 1 is Geometric(p).
    let u = 1.0 - rng.gen_f64();
    let t = (u.ln() / (1.0 - p).ln()).floor();
    if !t.is_finite() || t >= 9.0e18 {
        return u64::MAX;
    }
    t as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::RggGeometry;

    #[test]
    fn geometric_ticks_has_the_right_mean() {
        let mut rng = Rng::new(5);
        let samples = 20_000;
        let total: f64 = (0..samples)
            .map(|_| geometric_ticks(0.5, &mut rng) as f64)
            .sum();
        let mean = total / samples as f64;
        let expected = TICKS_PER_ROUND as f64 / 0.5;
        assert!(
            (mean - expected).abs() / expected < 0.05,
            "mean {mean} far from expected {expected}"
        );
    }

    #[test]
    fn geometric_ticks_is_always_positive() {
        let mut rng = Rng::new(9);
        for _ in 0..1000 {
            assert!(geometric_ticks(0.99, &mut rng) >= 1);
        }
    }

    /// Churn at `rate`, with every downtime `mean_downtime` rounds, plus
    /// fading and, given an RGG `geometry`, mobility.
    fn all_three(rate: f64, mean_downtime: f64, geometry: Option<RggGeometry>) -> Dynamics {
        Dynamics {
            churn: Some(Churn {
                rate,
                rejoin: RejoinPolicy::Keep,
                mean_downtime,
            }),
            fading: Some(EdgeFading {
                fade_prob: rate,
                mean_downtime,
            }),
            mobility: geometry.map(|geometry| Waypoint {
                geometry,
                speed: DEFAULT_SPEED_PER_ROUND,
            }),
        }
    }

    #[test]
    fn composite_merges_in_time_order() {
        let model = all_three(0.3, 2.0, None);
        assert_eq!(model.name(), "churn+fading");
        model.validate().expect("valid composite");
        let topo = Topology::ring(12);
        let mut stream = Box::new(model).stream(&topo, 7);
        let mut last = SimTime::ZERO;
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..200 {
            let peek = stream.peek_time().expect("unbounded stream");
            let m = stream.next().expect("unbounded stream");
            assert_eq!(m.time, peek, "peek must match the popped mutation");
            assert!(m.time >= last, "stream went backwards in time");
            last = m.time;
            kinds.insert(std::mem::discriminant(&m.kind));
        }
        assert!(kinds.len() >= 3, "merge should carry both parts' events");

        // Ties: dense enough that ticks repeat, and within each tick churn
        // comes first, then fading, then mobility.
        let (rgg, geometry) = Topology::random_geometric_with_geometry(200, &mut Rng::new(3));
        let model = all_three(0.9, 0.1, Some(geometry));
        assert_eq!(model.name(), "churn+fading+waypoint");
        let process = |kind: &MutationKind| match kind {
            MutationKind::Depart(_) | MutationKind::Rejoin { .. } => 0,
            MutationKind::EdgeDown(..) | MutationKind::EdgeUp(..) => 1,
            MutationKind::Rewire { .. } => 2,
        };
        let mut stream = Box::new(model).stream(&rgg, 11);
        let mut last = (SimTime::ZERO, 0);
        let mut mixed_ticks = 0;
        for _ in 0..20_000 {
            let m = stream.next().expect("unbounded stream");
            let at = (m.time, process(&m.kind));
            assert!(at >= last, "{at:?} popped after {last:?}");
            mixed_ticks += usize::from(at.0 == last.0 && at.1 != last.1);
            last = at;
        }
        assert!(mixed_ticks > 100, "only {mixed_ticks} ticks mix processes");
    }

    #[test]
    fn composite_is_deterministic_per_seed() {
        let model = Dynamics {
            churn: Some(Churn {
                rate: 0.2,
                rejoin: RejoinPolicy::Lose,
                mean_downtime: 3.0,
            }),
            fading: Some(EdgeFading {
                fade_prob: 0.1,
                mean_downtime: 2.0,
            }),
            mobility: None,
        };
        let topo = Topology::grid(16);
        let stream = |seed| Box::new(model.clone()).stream(&topo, seed);
        let (mut a, mut b) = (stream(42), stream(42));
        for _ in 0..300 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = stream(43);
        let diverged = (0..50).any(|_| a.next() != c.next());
        assert!(diverged, "different seeds should give different streams");
    }
}
