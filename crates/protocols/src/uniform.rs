//! Blind uniform random spread.

use crate::{GossipProtocol, NodeCtx};
use gossip_core::{Advertisement, Intent, MsgView, Rng};

/// The baseline protocol: advertisements carry nothing, and each round every
/// node flips a fair coin to pick a role — propose to a uniformly random
/// neighbor, or listen. Connections that link two nodes with identical
/// message sets are wasted, which is exactly the inefficiency
/// advertisement-guided protocols eliminate.
pub struct UniformGossip;

impl GossipProtocol for UniformGossip {
    fn name(&self) -> &'static str {
        "uniform"
    }

    fn advertise(&self, _messages: MsgView<'_>, _salt: u64) -> Advertisement {
        Advertisement(0)
    }

    fn decide(&self, ctx: &NodeCtx<'_>, rng: &mut Rng) -> Intent {
        if ctx.neighbors.is_empty() {
            return Intent::Idle;
        }
        if rng.gen_bool() {
            Intent::Propose(ctx.neighbors[rng.gen_range(ctx.neighbors.len())])
        } else {
            Intent::Listen
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gossip_core::{MessageSet, NodeId};

    #[test]
    fn isolated_node_idles() {
        let messages = MessageSet::new(1);
        let ctx = NodeCtx {
            id: NodeId(0),
            salt: 1,
            messages: messages.view(),
            own_ad: Advertisement(0),
            neighbors: &[],
            neighbor_ads: &[],
        };
        assert_eq!(UniformGossip.decide(&ctx, &mut Rng::new(1)), Intent::Idle);
    }

    #[test]
    fn proposals_target_actual_neighbors() {
        let messages = MessageSet::new(1);
        let neighbors = [NodeId(3), NodeId(8)];
        let ads = [Advertisement(0), Advertisement(0)];
        let ctx = NodeCtx {
            id: NodeId(0),
            salt: 1,
            messages: messages.view(),
            own_ad: Advertisement(0),
            neighbors: &neighbors,
            neighbor_ads: &ads,
        };
        let mut rng = Rng::new(7);
        let mut proposed = false;
        let mut listened = false;
        for _ in 0..200 {
            match UniformGossip.decide(&ctx, &mut rng) {
                Intent::Propose(v) => {
                    assert!(neighbors.contains(&v));
                    proposed = true;
                }
                Intent::Listen => listened = true,
                Intent::Idle => panic!("connected node should not idle"),
            }
        }
        assert!(proposed && listened, "both roles should occur");
    }
}
