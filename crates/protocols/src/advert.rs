//! Productive, advertisement-guided gossip.

use crate::{GossipProtocol, NodeCtx};
use gossip_core::{Advertisement, Intent, MsgView, Rng};

/// Advertisement-guided gossip from the paper family: each node advertises a
/// fingerprint of its message set, so neighbors can tell *before* spending
/// their one connection whether a transfer would be productive.
///
/// With ≤64 messages the tag is the exact membership mask, and role
/// selection reads set differences straight off the scanned tags:
///
/// - No neighbor's tag differs from ours → **idle**; every possible
///   connection would be wasted.
/// - Some neighbor strictly lacks messages we hold (and no neighbor can
///   teach us anything) → **propose** to a random such neighbor; we are a
///   local frontier source and proposing is guaranteed productive.
/// - Some neighbor strictly exceeds us (and we cannot teach anyone) →
///   **listen**; the frontier will come to us.
/// - Mixed neighborhood → fair coin between proposing to a random
///   productive neighbor and listening, which avoids the livelock of two
///   mutually-productive nodes both insisting on the same role.
///
/// Larger universes hash the set down to a 64-bit tag, salted with the
/// round number. Hashed bits carry no subset structure, so only tag
/// (in)equality is used: differing tags mark a neighbor as (almost surely)
/// productive and roles are chosen by coin flip. A tag is a salted `mix`
/// of the row's 64-bit digest, and `mix` is a bijection, so under one salt
/// two tags collide exactly when the digests do: a fresh salt does not
/// break up such a pair, and a stall persists only while two *different*
/// sets share a digest, a 64-bit coincidence that lasts until either row
/// changes.
pub struct AdvertGossip;

impl AdvertGossip {
    /// Exact-tag path (universe ≤ 64): tags are membership masks.
    fn decide_exact(&self, ctx: &NodeCtx<'_>, rng: &mut Rng) -> Intent {
        let mine = ctx.messages.fingerprint();
        // One pass, no allocation: reservoir-pick a random neighbor from
        // the pool we might propose to (anyone we can teach), and track
        // whether a strict teacher or a mixed neighbor exists.
        let mut pool_count = 0usize;
        let mut pool_pick = 0usize;
        let mut mixed_exists = false;
        let mut teacher_exists = false;
        for (i, &v) in ctx.neighbors.iter().enumerate() {
            let theirs = ctx.tags.of(v).0;
            if theirs == mine {
                continue;
            }
            let we_offer = mine & !theirs != 0;
            let they_offer = theirs & !mine != 0;
            if we_offer {
                pool_count += 1;
                if rng.gen_range(pool_count) == 0 {
                    pool_pick = i;
                }
                mixed_exists |= they_offer;
            } else if they_offer {
                teacher_exists = true;
            }
        }

        if pool_count == 0 {
            if teacher_exists {
                Intent::Listen
            } else {
                Intent::Idle
            }
        } else if !teacher_exists && !mixed_exists {
            // Pure teacher: proposing is guaranteed productive.
            Intent::Propose(ctx.neighbors[pool_pick])
        } else if rng.gen_bool() {
            Intent::Propose(ctx.neighbors[pool_pick])
        } else {
            Intent::Listen
        }
    }

    /// Hashed-tag path (universe > 64): only tag (in)equality is
    /// meaningful, so any differing neighbor is a candidate and roles are
    /// symmetric coin flips.
    fn decide_hashed(&self, ctx: &NodeCtx<'_>, rng: &mut Rng) -> Intent {
        debug_assert_eq!(ctx.own_ad, self.advertise(ctx.messages, ctx.salt));
        let mine = ctx.own_ad.0;
        let mut diff_count = 0usize;
        let mut pick = 0usize;
        for (i, &v) in ctx.neighbors.iter().enumerate() {
            if ctx.tags.of(v).0 != mine {
                diff_count += 1;
                if rng.gen_range(diff_count) == 0 {
                    pick = i;
                }
            }
        }
        if diff_count == 0 {
            Intent::Idle
        } else if rng.gen_bool() {
            Intent::Propose(ctx.neighbors[pick])
        } else {
            Intent::Listen
        }
    }
}

impl GossipProtocol for AdvertGossip {
    fn name(&self) -> &'static str {
        "advert"
    }

    fn advertise(&self, messages: MsgView<'_>, salt: u64) -> Advertisement {
        Advertisement(messages.fingerprint_salted(salt))
    }

    fn decide(&self, ctx: &NodeCtx<'_>, rng: &mut Rng) -> Intent {
        if ctx.messages.universe() <= 64 {
            self.decide_exact(ctx, rng)
        } else {
            self.decide_hashed(ctx, rng)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tags;
    use gossip_core::{MessageMatrix, NodeId};

    /// A one-row matrix holding `ids` of `0..universe`.
    fn set_with(universe: usize, ids: &[usize]) -> MessageMatrix {
        let mut s = MessageMatrix::new(1, universe);
        for &i in ids {
            s.insert(0, i);
        }
        s
    }

    /// `ads[v]` is node `v`'s tag; slot 0 is the deciding node's own and
    /// is never scanned.
    fn ctx<'a>(
        messages: &'a MessageMatrix,
        neighbors: &'a [NodeId],
        ads: &'a [Advertisement],
        salt: u64,
    ) -> NodeCtx<'a> {
        NodeCtx {
            id: NodeId(0),
            salt,
            messages: messages.view(0),
            own_ad: AdvertGossip.advertise(messages.view(0), salt),
            neighbors,
            tags: Tags::all(ads),
        }
    }

    #[test]
    fn idles_when_no_neighbor_differs() {
        let messages = set_with(4, &[0]);
        let ads = [Advertisement(0b1); 3];
        let neighbors = [NodeId(1), NodeId(2)];
        let ctx = ctx(&messages, &neighbors, &ads, 1);
        for seed in 0..20 {
            assert_eq!(AdvertGossip.decide(&ctx, &mut Rng::new(seed)), Intent::Idle);
        }
    }

    #[test]
    fn frontier_source_proposes_to_uninformed() {
        // We hold {0}; neighbor 1 holds nothing, neighbor 2 matches us.
        let messages = set_with(4, &[0]);
        let ads = [Advertisement(0b1), Advertisement(0), Advertisement(0b1)];
        let neighbors = [NodeId(1), NodeId(2)];
        let ctx = ctx(&messages, &neighbors, &ads, 1);
        for seed in 0..20 {
            assert_eq!(
                AdvertGossip.decide(&ctx, &mut Rng::new(seed)),
                Intent::Propose(NodeId(1)),
                "pure teacher must deterministically propose to the one \
                 teachable neighbor"
            );
        }
    }

    #[test]
    fn uninformed_node_next_to_source_listens() {
        let messages = set_with(4, &[]);
        let ads = [Advertisement(0), Advertisement(0b1)];
        let neighbors = [NodeId(1)];
        let ctx = ctx(&messages, &neighbors, &ads, 1);
        for seed in 0..20 {
            assert_eq!(
                AdvertGossip.decide(&ctx, &mut Rng::new(seed)),
                Intent::Listen
            );
        }
    }

    #[test]
    fn mixed_neighborhood_takes_both_roles() {
        // We hold {0}; neighbor holds {1}: both sides offer something.
        let messages = set_with(4, &[0]);
        let ads = [Advertisement(0b1), Advertisement(0b10)];
        let neighbors = [NodeId(1)];
        let ctx = ctx(&messages, &neighbors, &ads, 1);
        let mut rng = Rng::new(13);
        let mut proposed = false;
        let mut listened = false;
        for _ in 0..100 {
            match AdvertGossip.decide(&ctx, &mut rng) {
                Intent::Propose(v) => {
                    assert_eq!(v, NodeId(1));
                    proposed = true;
                }
                Intent::Listen => listened = true,
                Intent::Idle => panic!("productive neighborhood must not idle"),
            }
        }
        assert!(proposed && listened);
    }

    #[test]
    fn large_universe_tags_change_every_round() {
        // The anti-livelock property: on >64-message universes the same set
        // advertises a different tag each round, so a tag collision between
        // two different sets cannot persist.
        let messages = set_with(128, &[4]);
        assert_ne!(
            AdvertGossip.advertise(messages.view(0), 1),
            AdvertGossip.advertise(messages.view(0), 2)
        );
    }

    #[test]
    fn large_universe_differing_tags_are_pursued() {
        let messages = set_with(128, &[4]);
        let other = set_with(128, &[67]);
        let round = 3;
        let ads = [AdvertGossip.advertise(other.view(0), round); 2];
        let neighbors = [NodeId(1)];
        let ctx = ctx(&messages, &neighbors, &ads, round);
        let mut rng = Rng::new(21);
        let mut engaged = false;
        for _ in 0..50 {
            match AdvertGossip.decide(&ctx, &mut rng) {
                Intent::Propose(v) => {
                    assert_eq!(v, NodeId(1));
                    engaged = true;
                }
                Intent::Listen => engaged = true,
                Intent::Idle => {}
            }
        }
        assert!(engaged, "differing hashed tags must trigger engagement");
    }
}
