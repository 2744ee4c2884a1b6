//! Edge fading: links flap on and off to model interference.

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

impl EdgeFading {
    /// Check the parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dynamics, DynamicsModel, MutationKind, MutationStream};
    use gossip_core::{SimTime, Topology};

    fn stream(model: EdgeFading, topo: &Topology, seed: u64) -> Box<dyn MutationStream> {
        let fading = Some(model);
        let dynamics = Dynamics {
            fading,
            ..Dynamics::default()
        };
        Box::new(dynamics).stream(topo, seed)
    }

    #[test]
    fn edges_alternate_down_and_up() {
        let model = EdgeFading {
            fade_prob: 0.5,
            mean_downtime: 1.0,
        };
        let topo = Topology::ring(8);
        let mut stream = stream(model, &topo, 4);
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
            let mut s = stream(model, &topo, seed);
            (0..150).filter_map(|_| s.next()).collect::<Vec<_>>()
        };
        assert_eq!(drain(7), drain(7));
        assert_ne!(drain(7), drain(8));
    }

    #[test]
    fn edgeless_topology_yields_an_empty_stream() {
        let model = EdgeFading::default();
        let topo = Topology::from_edges("isolated", 4, &[]);
        let mut stream = stream(model, &topo, 1);
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
