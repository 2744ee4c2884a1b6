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
//! - a [`DynamicsModel`] describes *how* the network changes
//!   ([`Churn`], [`EdgeFading`], [`Waypoint`] mobility, or a
//!   [`CompositeDynamics`] of several);
//! - [`DynamicsModel::stream`] instantiates it for one run as a
//!   [`MutationStream`]: a lazy, time-ordered, seed-deterministic sequence
//!   of [`Mutation`]s;
//! - a scheduler drains the stream and applies each [`MutationKind`] to a
//!   [`DynamicTopology`] — the synchronous engine at round boundaries,
//!   the event-driven engine interleaved in its event heap.
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

use gossip_core::{DynamicTopology, NodeId, Rng, SimTime, Topology};

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
    /// Model name for reporting ("churn", "fading", "waypoint", or a
    /// `+`-joined composite).
    fn name(&self) -> String;

    /// Check parameter ranges; the one source of truth the CLI validation
    /// and the engines both consult.
    fn validate(&self) -> Result<(), String>;

    /// Instantiate the model for one run over `topology`.
    fn stream(&self, topology: &Topology, seed: u64) -> Box<dyn MutationStream>;
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

/// Several models running at once (e.g. churn plus fading): their streams
/// are merged in time order, ties broken by part index so the merge is
/// deterministic.
pub struct CompositeDynamics {
    pub parts: Vec<Box<dyn DynamicsModel>>,
}

impl DynamicsModel for CompositeDynamics {
    fn name(&self) -> String {
        self.parts
            .iter()
            .map(|p| p.name())
            .collect::<Vec<_>>()
            .join("+")
    }

    fn validate(&self) -> Result<(), String> {
        if self.parts.is_empty() {
            return Err("composite dynamics needs at least one part".to_string());
        }
        for part in &self.parts {
            part.validate()?;
        }
        Ok(())
    }

    fn stream(&self, topology: &Topology, seed: u64) -> Box<dyn MutationStream> {
        // Decorrelate the parts' streams off the one stream seed.
        let mut rng = Rng::new(seed);
        let streams = self
            .parts
            .iter()
            .map(|p| p.stream(topology, rng.next_u64()))
            .collect();
        Box::new(MergedStream { streams })
    }
}

struct MergedStream {
    streams: Vec<Box<dyn MutationStream>>,
}

impl MergedStream {
    fn earliest(&self) -> Option<usize> {
        self.streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.peek_time().map(|t| (t, i)))
            .min() // (time, index): ties go to the lowest part index
            .map(|(_, i)| i)
    }
}

impl MutationStream for MergedStream {
    fn peek_time(&self) -> Option<SimTime> {
        self.streams.iter().filter_map(|s| s.peek_time()).min()
    }

    fn next(&mut self) -> Option<Mutation> {
        let i = self.earliest()?;
        self.streams[i].next()
    }
}

/// Sample a geometric waiting time in ticks with per-round success
/// probability `per_round_prob` (i.e. mean `TICKS_PER_ROUND /
/// per_round_prob` ticks), by inverting the geometric CDF at per-tick
/// granularity. Always at least one tick, so streams can never emit two
/// transitions of one process at the same instant.
pub(crate) fn geometric_ticks(per_round_prob: f64, rng: &mut Rng) -> u64 {
    let p = (per_round_prob / gossip_core::TICKS_PER_ROUND as f64).clamp(0.0, 1.0);
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
    use gossip_core::TICKS_PER_ROUND;

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

    #[test]
    fn composite_merges_in_time_order() {
        let model = CompositeDynamics {
            parts: vec![
                Box::new(Churn {
                    rate: 0.3,
                    rejoin: RejoinPolicy::Keep,
                    mean_downtime: 2.0,
                }),
                Box::new(EdgeFading {
                    fade_prob: 0.3,
                    mean_downtime: 1.0,
                }),
            ],
        };
        assert_eq!(model.name(), "churn+fading");
        model.validate().expect("valid composite");
        let topo = Topology::ring(12);
        let mut stream = model.stream(&topo, 7);
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
    }

    #[test]
    fn composite_is_deterministic_per_seed() {
        let model = CompositeDynamics {
            parts: vec![
                Box::new(Churn {
                    rate: 0.2,
                    rejoin: RejoinPolicy::Lose,
                    mean_downtime: 3.0,
                }),
                Box::new(EdgeFading {
                    fade_prob: 0.1,
                    mean_downtime: 2.0,
                }),
            ],
        };
        let topo = Topology::grid(16);
        let mut a = model.stream(&topo, 42);
        let mut b = model.stream(&topo, 42);
        for _ in 0..300 {
            assert_eq!(a.next(), b.next());
        }
        let mut c = model.stream(&topo, 43);
        let diverged = (0..50).any(|_| a.next() != c.next());
        assert!(diverged, "different seeds should give different streams");
    }
}
