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
    use crate::Tags;
    use gossip_core::{MessageMatrix, NodeId};

    fn ctx<'a>(
        messages: &'a MessageMatrix,
        neighbors: &'a [NodeId],
        ads: &'a [Advertisement],
    ) -> NodeCtx<'a> {
        NodeCtx {
            id: NodeId(0),
            salt: 1,
            messages: messages.view(0),
            own_ad: Advertisement(0),
            neighbors,
            tags: Tags::all(ads),
        }
    }

    #[test]
    fn isolated_node_idles() {
        let messages = MessageMatrix::new(1, 1);
        let ctx = ctx(&messages, &[], &[]);
        assert_eq!(UniformGossip.decide(&ctx, &mut Rng::new(1)), Intent::Idle);
    }

    #[test]
    fn proposals_target_actual_neighbors() {
        let messages = MessageMatrix::new(1, 1);
        let neighbors = [NodeId(3), NodeId(8)];
        let ads = [Advertisement(0); 9];
        let ctx = ctx(&messages, &neighbors, &ads);
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

    #[test]
    fn uniform_reads_no_tags() {
        // The b = 0 protocol never scans: with no tag behind any neighbor,
        // a single `tags.of` would panic. Engines rely on this — they hand
        // over a view and gather nothing, so `uniform` pays for no scan.
        let messages = MessageMatrix::new(1, 1);
        let neighbors = [NodeId(3), NodeId(8), NodeId(70_000)];
        let ctx = ctx(&messages, &neighbors, &[]);
        let mut rng = Rng::new(11);
        for _ in 0..200 {
            UniformGossip.decide(&ctx, &mut rng);
        }
    }
}
