//! Node churn: devices depart and (optionally) rejoin.

/// What a rejoining node remembers.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RejoinPolicy {
    /// The device comes back with its message set intact (it was merely
    /// out of range or powered down; storage persists).
    #[default]
    Keep,
    /// The device comes back empty and must re-learn everything. Sources
    /// still re-learn the rumors they originated — the rumor is their own
    /// data — so a rumor can never go permanently extinct while its
    /// source churns.
    Lose,
    /// Departed nodes never return. The network can drain; a run where
    /// every node departs simply idles to its cap.
    Never,
}

impl RejoinPolicy {
    /// The stable spec/CLI names, in declaration order: `keep`, `lose`,
    /// `none`. One source of truth for every front-end that names
    /// policies, so parsers and help text cannot drift.
    pub const NAMES: &'static [&'static str] = &["keep", "lose", "none"];

    /// The stable spec/CLI name of this policy.
    pub fn name(self) -> &'static str {
        match self {
            RejoinPolicy::Keep => "keep",
            RejoinPolicy::Lose => "lose",
            RejoinPolicy::Never => "none",
        }
    }

    /// Parse a stable name back into a policy (the inverse of
    /// [`name`](Self::name)).
    pub fn parse(name: &str) -> Option<RejoinPolicy> {
        match name {
            "keep" => Some(RejoinPolicy::Keep),
            "lose" => Some(RejoinPolicy::Lose),
            "none" => Some(RejoinPolicy::Never),
            _ => None,
        }
    }
}

/// Memoryless node churn. Each alive node departs after a geometrically
/// sampled lifetime with per-round departure probability `rate` (mean
/// lifetime `1/rate` rounds); a departed node rejoins after a geometric
/// downtime with mean `mean_downtime` rounds, unless the policy is
/// [`RejoinPolicy::Never`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Churn {
    /// Per-round departure probability of an alive node, in `(0, 1)`.
    pub rate: f64,
    /// What a rejoining node remembers.
    pub rejoin: RejoinPolicy,
    /// Mean downtime in rounds, `> 0`.
    pub mean_downtime: f64,
}

/// Default mean downtime: a few rounds out of the network.
pub const DEFAULT_MEAN_DOWNTIME_ROUNDS: f64 = 4.0;

impl Default for Churn {
    fn default() -> Self {
        Churn {
            rate: 0.1,
            rejoin: RejoinPolicy::Keep,
            mean_downtime: DEFAULT_MEAN_DOWNTIME_ROUNDS,
        }
    }
}

impl Churn {
    /// Check the parameter ranges.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.rate > 0.0 && self.rate < 1.0) {
            return Err(format!(
                "churn rate {} must lie in (0, 1); omit churn entirely for a static run",
                self.rate
            ));
        }
        if !(self.mean_downtime > 0.0 && self.mean_downtime.is_finite()) {
            return Err(format!(
                "mean downtime {} must be a positive number of rounds",
                self.mean_downtime
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dynamics, DynamicsModel, Mutation, MutationKind, MutationStream};
    use gossip_core::{SimTime, Topology};

    fn stream(model: &Churn, topo: &Topology, seed: u64) -> Box<dyn MutationStream> {
        let churn = Some(*model);
        let dynamics = Dynamics {
            churn,
            ..Dynamics::default()
        };
        Box::new(dynamics).stream(topo, seed)
    }

    fn drain(model: &Churn, topo: &Topology, seed: u64, count: usize) -> Vec<Mutation> {
        let mut stream = stream(model, topo, seed);
        (0..count).filter_map(|_| stream.next()).collect()
    }

    #[test]
    fn nodes_alternate_depart_and_rejoin() {
        let model = Churn {
            rate: 0.5,
            rejoin: RejoinPolicy::Keep,
            mean_downtime: 1.0,
        };
        let topo = Topology::ring(6);
        let mutations = drain(&model, &topo, 3, 100);
        let mut down = [false; 6];
        let mut last = SimTime::ZERO;
        for m in &mutations {
            assert!(m.time >= last);
            last = m.time;
            match m.kind {
                MutationKind::Depart(u) => {
                    assert!(!down[u.index()], "{u} departed twice in a row");
                    down[u.index()] = true;
                }
                MutationKind::Rejoin {
                    node,
                    reset_messages,
                } => {
                    assert!(down[node.index()], "{node} rejoined while alive");
                    assert!(!reset_messages, "Keep policy must not reset");
                    down[node.index()] = false;
                }
                ref other => panic!("churn emitted {other:?}"),
            }
        }
    }

    #[test]
    fn lose_policy_marks_resets() {
        let model = Churn {
            rate: 0.5,
            rejoin: RejoinPolicy::Lose,
            mean_downtime: 1.0,
        };
        let topo = Topology::ring(4);
        let rejoins = drain(&model, &topo, 1, 50)
            .into_iter()
            .filter(|m| matches!(m.kind, MutationKind::Rejoin { .. }))
            .count();
        assert!(rejoins > 0, "expected rejoins in 50 mutations");
        for m in drain(&model, &topo, 1, 50) {
            if let MutationKind::Rejoin { reset_messages, .. } = m.kind {
                assert!(reset_messages, "Lose policy must reset");
            }
        }
    }

    #[test]
    fn never_policy_exhausts_after_n_departures() {
        let model = Churn {
            rate: 0.5,
            rejoin: RejoinPolicy::Never,
            mean_downtime: 1.0,
        };
        let topo = Topology::ring(5);
        let mut stream = stream(&model, &topo, 9);
        let mut departures = 0;
        while let Some(m) = stream.next() {
            assert!(matches!(m.kind, MutationKind::Depart(_)));
            departures += 1;
            assert!(departures <= 5, "more departures than nodes");
        }
        assert_eq!(departures, 5);
        assert_eq!(stream.peek_time(), None);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let model = Churn::default();
        let topo = Topology::grid(20);
        assert_eq!(drain(&model, &topo, 42, 200), drain(&model, &topo, 42, 200));
        assert_ne!(drain(&model, &topo, 42, 200), drain(&model, &topo, 43, 200));
    }

    #[test]
    fn validate_rejects_degenerate_rates() {
        let ok = Churn::default();
        assert!(ok.validate().is_ok());
        assert!(Churn { rate: 0.0, ..ok }.validate().is_err());
        assert!(Churn { rate: 1.0, ..ok }.validate().is_err());
        assert!(Churn { rate: -0.2, ..ok }.validate().is_err());
        assert!(Churn {
            mean_downtime: 0.0,
            ..ok
        }
        .validate()
        .is_err());
    }
}
