//! Blind uniform random spread: [`Protocol::Uniform`](crate::Protocol).

use crate::NodeCtx;
use gossip_core::{Intent, Rng};

/// Flip a fair coin for the role; on heads, propose to a uniformly random
/// neighbor, else listen. Isolated nodes idle.
///
/// Written without a branch on the coin, which is a coin: a branch on it
/// mispredicts half the time. The neighbor index is drawn on a copy of the
/// stream and the target always read; `adopt_if` then keeps the copy's
/// state only on heads. So the stream ends exactly where the conditional
/// draw would leave it — the coin, plus the index draws on heads only —
/// and both engines consume the draws they always did. The sync engine
/// drops each node's stream after deciding, so there the adoption compiles
/// away; the sliced engine's region stream advances as before. The test
/// module keeps the conditional form as the oracle.
#[inline]
pub(crate) fn decide(ctx: &NodeCtx<'_>, rng: &mut Rng) -> Intent {
    let degree = ctx.neighbors.len();
    if degree == 0 {
        return Intent::Idle;
    }
    let propose = rng.gen_bool();
    let mut ahead = rng.clone();
    let target = ctx.neighbors[ahead.gen_range(degree)];
    rng.adopt_if(&ahead, propose);
    if propose {
        Intent::Propose(target)
    } else {
        Intent::Listen
    }
}

#[cfg(test)]
mod tests {
    use crate::{NodeCtx, Protocol, Tags};
    use gossip_core::{Advertisement, Intent, MessageMatrix, NodeId, Rng};

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
        assert_eq!(
            Protocol::Uniform.decide(&ctx, &mut Rng::new(1)),
            Intent::Idle
        );
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
            match Protocol::Uniform.decide(&ctx, &mut rng) {
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
        // `reads_tags` must say what `decide` does. Engines hold no tag
        // array for a protocol that reads none, so its decide sees empty
        // `Tags`, where a single `tags.of` panics: such a protocol must
        // decide there exactly as with tags present, and one that reads
        // tags must panic there.
        let messages = MessageMatrix::new(1, 1);
        let neighbors = [NodeId(3), NodeId(8), NodeId(70_000)];
        let ads = vec![Advertisement(1); 70_001];
        let blind = ctx(&messages, &neighbors, &[]);
        let tagged = ctx(&messages, &neighbors, &ads);
        assert!(!Protocol::Uniform.reads_tags());
        for name in Protocol::NAMES {
            let p = Protocol::parse(name).unwrap();
            if p.reads_tags() {
                let scan = || p.decide(&blind, &mut Rng::new(11));
                let scan = std::panic::catch_unwind(std::panic::AssertUnwindSafe(scan));
                assert!(scan.is_err(), "{name} reads tags, yet decided without any");
                continue;
            }
            let (mut a, mut b) = (Rng::new(11), Rng::new(11));
            for _ in 0..200 {
                assert_eq!(
                    p.decide(&blind, &mut a),
                    p.decide(&tagged, &mut b),
                    "{name}"
                );
            }
            assert_eq!(a.next_u64(), b.next_u64(), "{name}");
        }
    }

    #[test]
    fn masked_draw_matches_the_conditional_oracle() {
        // The rule as first written: draw the index only on heads. The
        // masked form must return the same intent and leave the stream at
        // the same place, or every pinned uniform run would move.
        fn oracle(neighbors: &[NodeId], rng: &mut Rng) -> Intent {
            if neighbors.is_empty() {
                return Intent::Idle;
            }
            if rng.gen_bool() {
                Intent::Propose(neighbors[rng.gen_range(neighbors.len())])
            } else {
                Intent::Listen
            }
        }
        let messages = MessageMatrix::new(1, 1);
        for degree in [0, 1, 2, 3, 7, 64, 1_000] {
            let neighbors: Vec<_> = (1..=degree as u32).map(NodeId).collect();
            let ctx = ctx(&messages, &neighbors, &[]);
            for seed in 0..2_000u64 {
                let mut masked = Rng::stream(seed, degree as u64, 0);
                let mut reference = masked.clone();
                assert_eq!(
                    Protocol::Uniform.decide(&ctx, &mut masked),
                    oracle(&neighbors, &mut reference),
                    "degree {degree} seed {seed}"
                );
                assert_eq!(
                    masked.next_u64(),
                    reference.next_u64(),
                    "degree {degree} seed {seed}"
                );
            }
        }
    }
}
