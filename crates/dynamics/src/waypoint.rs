//! Random-waypoint mobility over a random geometric graph.

use gossip_core::{NodeId, RggGeometry, Rng, Topology, TICKS_PER_ROUND};

/// Random-waypoint mobility: each node of a random geometric graph walks
/// to a uniformly chosen waypoint in the unit square at a per-leg speed
/// drawn from `[0.5, 1.5] × speed` units per round, then immediately picks
/// the next waypoint. On arrival the node's radius-based edges are
/// re-derived against the current positions of the nodes bucketed within a
/// radius of it and emitted as a [`crate::MutationKind::Rewire`].
///
/// Positions update lazily — a node's position changes only at its own
/// arrival events — so an event costs `O(local density)`, not `O(n)`, and
/// the whole stream is an exact function of the seed. The `geometry` must be the one returned by
/// [`Topology::random_geometric_with_geometry`] for the run's topology, so
/// the initial graph and the mobility model agree on where everyone is.
#[derive(Clone, Debug)]
pub struct Waypoint {
    /// Initial positions and connection radius of the RGG being walked.
    pub geometry: RggGeometry,
    /// Nominal speed in unit-square units per round, `> 0`.
    pub speed: f64,
}

/// Default nominal speed: crossing the unit square takes ~20 rounds.
pub const DEFAULT_SPEED_PER_ROUND: f64 = 0.05;

impl Waypoint {
    /// Check the parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.speed > 0.0 && self.speed.is_finite()) {
            return Err(format!(
                "waypoint speed {} must be a positive number of units per round",
                self.speed
            ));
        }
        // The radius needs no check here: `RggGeometry::new` is the only
        // constructor and rejects non-positive / non-finite radii.
        Ok(())
    }
}

/// The walkers of one run: every node's current position (the geometry,
/// whose spatial index keeps neighbour re-derivation local), the waypoint
/// it walks to, and the stream that picks legs.
pub(crate) struct Walk {
    speed: f64,
    geometry: RggGeometry,
    targets: Vec<(f64, f64)>,
    rng: Rng,
}

impl Walk {
    pub(crate) fn new(model: Waypoint, topology: &Topology, rng: Rng) -> Self {
        assert_eq!(
            model.geometry.num_nodes(),
            topology.num_nodes(),
            "waypoint geometry must cover exactly the run's topology"
        );
        Walk {
            speed: model.speed,
            geometry: model.geometry,
            targets: vec![(0.0, 0.0); topology.num_nodes()],
            rng,
        }
    }

    /// Pick `node`'s next waypoint and per-leg speed: the ticks until it
    /// arrives, distance over speed in round-sized units.
    pub(crate) fn leg(&mut self, node: NodeId) -> u64 {
        let (x, y) = self.geometry.position(node);
        let target = (self.rng.gen_f64(), self.rng.gen_f64());
        let leg_speed = self.speed * (0.5 + self.rng.gen_f64());
        let dist = ((x - target.0).powi(2) + (y - target.1).powi(2)).sqrt();
        self.targets[node.index()] = target;
        ((dist / leg_speed) * TICKS_PER_ROUND as f64)
            .ceil()
            .max(1.0) as u64
    }

    /// Move `node` onto its waypoint: its new neighbours.
    pub(crate) fn arrive(&mut self, node: NodeId) -> Vec<NodeId> {
        self.geometry.move_to(node, self.targets[node.index()]);
        self.geometry.neighbors_of(node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dynamics, DynamicsModel, Mutation, MutationKind, MutationStream};
    use gossip_core::SimTime;

    fn stream(model: &Waypoint, topo: &Topology, seed: u64) -> Box<dyn MutationStream> {
        let mobility = Some(model.clone());
        let dynamics = Dynamics {
            mobility,
            ..Dynamics::default()
        };
        Box::new(dynamics).stream(topo, seed)
    }

    fn model(n: usize, seed: u64) -> (Waypoint, Topology) {
        let mut rng = Rng::new(seed);
        let (topo, geometry) = Topology::random_geometric_with_geometry(n, &mut rng);
        (
            Waypoint {
                geometry,
                speed: DEFAULT_SPEED_PER_ROUND,
            },
            topo,
        )
    }

    #[test]
    fn emits_valid_rewires_in_time_order() {
        let (model, topo) = model(20, 11);
        let mut stream = stream(&model, &topo, 5);
        let mut last = SimTime::ZERO;
        for _ in 0..100 {
            let m = stream.next().expect("mobility never stops");
            assert!(m.time >= last);
            last = m.time;
            let MutationKind::Rewire { node, neighbors } = m.kind else {
                panic!("waypoint emitted a non-rewire mutation");
            };
            assert!(node.index() < 20);
            assert!(neighbors.windows(2).all(|w| w[0] < w[1]), "sorted, deduped");
            assert!(!neighbors.contains(&node), "no self-loops");
            assert!(neighbors.iter().all(|v| v.index() < 20));
        }
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let (model, topo) = model(15, 3);
        let drain = |seed| {
            let mut s = stream(&model, &topo, seed);
            (0..120).filter_map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(drain(9), drain(9));
        assert_ne!(drain(9), drain(10));
    }

    #[test]
    fn every_node_eventually_moves() {
        let (model, topo) = model(10, 21);
        let mut stream = stream(&model, &topo, 2);
        let mut moved = std::collections::HashSet::new();
        for _ in 0..200 {
            if let Some(Mutation {
                kind: MutationKind::Rewire { node, .. },
                ..
            }) = stream.next()
            {
                moved.insert(node);
            }
        }
        assert_eq!(moved.len(), 10, "all nodes should reach waypoints");
    }

    #[test]
    fn validate_rejects_degenerate_speeds() {
        let (ok, _) = model(5, 1);
        assert!(ok.validate().is_ok());
        let mut bad = ok.clone();
        bad.speed = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = ok;
        bad.speed = f64::INFINITY;
        assert!(bad.validate().is_err());
    }

    #[test]
    #[should_panic(expected = "radius must be positive")]
    fn degenerate_radii_cannot_even_be_constructed() {
        // A zero radius is rejected at geometry construction, so no
        // waypoint model can ever carry one.
        let _ = gossip_core::RggGeometry::new(vec![(0.5, 0.5)], 0.0);
    }
}
