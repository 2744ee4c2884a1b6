//! Edge fading: links flap on and off to model interference.

use crate::{geometric_ticks, DynamicsModel, Mutation, MutationKind, MutationStream};

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gossip_core::{GraphView, NodeId, Rng, SimTime, Topology};

/// Independent on/off flapping of every base edge. An up edge fades with
/// per-round probability `fade_prob` (geometric up-time, mean
/// `1/fade_prob` rounds) and recovers after a geometric downtime with mean
/// `mean_downtime` rounds. Nodes stay alive throughout — only links drop.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EdgeFading {
    /// Per-round probability that an up edge fades, in `(0, 1)`.
    pub fade_prob: f64,
    /// Mean downtime of a faded edge in rounds, `> 0`.
    pub mean_downtime: f64,
}

impl Default for EdgeFading {
    fn default() -> Self {
        EdgeFading {
            fade_prob: 0.05,
            mean_downtime: 1.0,
        }
    }
}

impl DynamicsModel for EdgeFading {
    fn name(&self) -> String {
        "fading".to_string()
    }

    fn validate(&self) -> Result<(), String> {
        if !(self.fade_prob > 0.0 && self.fade_prob < 1.0) {
            return Err(format!(
                "fade probability {} must lie in (0, 1); omit fading entirely for stable links",
                self.fade_prob
            ));
        }
        if !(self.mean_downtime > 0.0 && self.mean_downtime.is_finite()) {
            return Err(format!(
                "mean edge downtime {} must be a positive number of rounds",
                self.mean_downtime
            ));
        }
        Ok(())
    }

    fn stream(&self, topology: &Topology, seed: u64) -> Box<dyn MutationStream> {
        let mut rng = Rng::new(seed);
        // Enumerate each undirected edge once, in deterministic order.
        let edges: Vec<(NodeId, NodeId)> = (0..topology.num_nodes())
            .flat_map(|u| {
                let u = NodeId(u as u32);
                GraphView::neighbors(topology, u)
                    .iter()
                    .copied()
                    .filter(move |&v| v > u)
                    .map(move |v| (u, v))
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut heap = BinaryHeap::with_capacity(edges.len());
        let mut seq = 0u64;
        for (i, _) in edges.iter().enumerate() {
            let uptime = geometric_ticks(self.fade_prob, &mut rng);
            heap.push(Reverse((SimTime(uptime), seq, i as u32, false)));
            seq += 1;
        }
        Box::new(FadingStream {
            model: *self,
            rng,
            edges,
            heap,
            seq,
        })
    }
}

struct FadingStream {
    model: EdgeFading,
    rng: Rng,
    edges: Vec<(NodeId, NodeId)>,
    /// Min-heap of `(time, seq, edge index, currently down?)`.
    heap: BinaryHeap<Reverse<(SimTime, u64, u32, bool)>>,
    seq: u64,
}

impl MutationStream for FadingStream {
    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((t, ..))| *t)
    }

    fn next(&mut self) -> Option<Mutation> {
        let Reverse((time, _, edge, down)) = self.heap.pop()?;
        let (u, v) = self.edges[edge as usize];
        let (delay, kind) = if down {
            // The edge was down and recovers now; schedule the next fade.
            (
                geometric_ticks(self.model.fade_prob, &mut self.rng),
                MutationKind::EdgeUp(u, v),
            )
        } else {
            // The edge fades now; schedule its recovery.
            (
                geometric_ticks(1.0 / self.model.mean_downtime, &mut self.rng),
                MutationKind::EdgeDown(u, v),
            )
        };
        self.heap
            .push(Reverse((time.after(delay), self.seq, edge, !down)));
        self.seq += 1;
        Some(Mutation { time, kind })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_alternate_down_and_up() {
        let model = EdgeFading {
            fade_prob: 0.5,
            mean_downtime: 1.0,
        };
        let topo = Topology::ring(8);
        let mut stream = model.stream(&topo, 4);
        let mut down = std::collections::HashSet::new();
        let mut last = SimTime::ZERO;
        for _ in 0..200 {
            let m = stream.next().expect("fading streams are unbounded");
            assert!(m.time >= last);
            last = m.time;
            match m.kind {
                MutationKind::EdgeDown(u, v) => {
                    assert!(topo.are_neighbors(u, v), "fade of a non-edge {u}-{v}");
                    assert!(down.insert((u, v)), "{u}-{v} faded twice in a row");
                }
                MutationKind::EdgeUp(u, v) => {
                    assert!(down.remove(&(u, v)), "{u}-{v} recovered while up");
                }
                ref other => panic!("fading emitted {other:?}"),
            }
        }
        assert!(!down.is_empty() || last > SimTime::ZERO);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let model = EdgeFading::default();
        let topo = Topology::grid(16);
        let drain = |seed| {
            let mut s = model.stream(&topo, seed);
            (0..150).filter_map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(drain(7), drain(7));
        assert_ne!(drain(7), drain(8));
    }

    #[test]
    fn edgeless_topology_yields_an_empty_stream() {
        let model = EdgeFading::default();
        let topo = Topology::from_edges("isolated", 4, &[]);
        let mut stream = model.stream(&topo, 1);
        assert_eq!(stream.peek_time(), None);
        assert!(stream.next().is_none());
    }

    #[test]
    fn validate_rejects_degenerate_probabilities() {
        let ok = EdgeFading::default();
        assert!(ok.validate().is_ok());
        assert!(EdgeFading {
            fade_prob: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(EdgeFading {
            fade_prob: 1.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(EdgeFading {
            mean_downtime: -1.0,
            ..ok
        }
        .validate()
        .is_err());
    }
}
