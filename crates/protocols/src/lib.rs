//! The gossip protocols of the mobile telephone model.
//!
//! A protocol decides, each round and for each node, (a) what to put in the
//! node's advertisement tag and (b) whether to propose a connection, listen
//! for one, or idle — using only information the model makes locally
//! visible: the node's own message set and its neighbors' advertisements.
//!
//! Two members of the family analyzed in Newport's PODC 2017 paper (and the
//! follow-up random gossip processes work) are provided, as the variants
//! of the [`Protocol`] enum: [`Protocol::Uniform`], blind uniform random
//! spread, and [`Protocol::Advert`], productive advertisement-guided
//! gossip. The set is closed on purpose: the engines ask every node for an
//! intent (and, under a protocol that [reads tags](Protocol::reads_tags),
//! for a tag) every round, and a `match` on a `Copy` enum inlines into
//! their node loops, where a trait object cost one indirect call per node
//! per round and hid the rule from the optimiser.

mod advert;
mod uniform;

use gossip_core::{Advertisement, Intent, MsgView, NodeId, Rng};

/// The tags a deciding node can scan: a view over the engine's tag
/// storage, read one neighbor at a time through [`of`](Self::of). The
/// engine hands over the view, not a copy of the neighborhood's tags, so a
/// scan costs what the protocol reads — nothing for a protocol that
/// ignores tags.
///
/// Node `v`'s tag is `live[v - base]` when `v` falls in
/// `base..base + live.len()`, else `snap[v]`.
#[derive(Clone, Copy)]
pub struct Tags<'a> {
    live: &'a [Advertisement],
    base: usize,
    snap: &'a [Advertisement],
}

impl<'a> Tags<'a> {
    /// One array holds every node's current tag (the synchronous engine:
    /// all tags of a round are published before anyone scans).
    pub fn all(ads: &'a [Advertisement]) -> Self {
        Self::split(ads, 0, &[])
    }

    /// `live` answers for the nodes `base..base + live.len()`, `snap`
    /// (indexed by node id) for everyone else — the sliced event engine,
    /// where a region reads its own nodes' current tags and a
    /// start-of-slice snapshot of every other region's.
    pub fn split(live: &'a [Advertisement], base: usize, snap: &'a [Advertisement]) -> Self {
        Tags { live, base, snap }
    }

    /// The tag most recently scanned from node `v`.
    ///
    /// # Panics
    /// If `v` is outside both arrays — a neighbor list naming a node the
    /// engine holds no tag for.
    pub fn of(self, v: NodeId) -> Advertisement {
        // A node below `base` wraps to a huge offset and misses `live`.
        match self.live.get(v.index().wrapping_sub(self.base)) {
            Some(&ad) => ad,
            None => self.snap[v.index()],
        }
    }
}

/// Everything a node is allowed to see when committing a connection
/// intent: its own state plus its neighborhood — who the neighbors are and,
/// through [`tags`](Self::tags), the most recent advertisement scanned
/// from each.
///
/// The context is scheduler-agnostic. Under the synchronous engine the
/// tags are exactly "this round's advertisements" and `salt` is the
/// shared round number; under an event-driven scheduler they are
/// whatever each neighbor last published (possibly stale) and `salt` is a
/// coarse virtual-time epoch. Protocols observe only the context, so the
/// same implementation runs unmodified under both schedulers.
pub struct NodeCtx<'a> {
    pub id: NodeId,
    /// Tag-salting value shared (at least approximately) across nodes:
    /// the round number under the synchronous scheduler, the virtual-time
    /// epoch under an asynchronous one. Protocols hashing their tags mix
    /// this in so stale hash collisions cannot persist.
    pub salt: u64,
    /// The node's own message set — a borrowed view of its row of the
    /// engine's struct-of-arrays [`gossip_core::MessageMatrix`].
    pub messages: MsgView<'a>,
    /// The tag this node itself last published: exactly
    /// `advertise(messages, salt)` for a protocol that
    /// [reads tags](Protocol::reads_tags) — every engine refreshes a
    /// node's tag immediately before asking it to decide, on the same row
    /// and salt, so a protocol comparing neighbor tags against its own
    /// reads this instead of recomputing it. For any other protocol it is
    /// `Advertisement::default()`, what such a protocol advertises.
    pub own_ad: Advertisement,
    /// Neighbors in the topology.
    pub neighbors: &'a [NodeId],
    /// The advertisement most recently scanned from each neighbor:
    /// `tags.of(v)` for `v` in `neighbors`. Read on demand — the engine
    /// gathers nothing on the node's behalf.
    pub tags: Tags<'a>,
}

/// The gossip protocols. Both rules are deterministic given the RNG: all
/// randomness flows through `rng`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Protocol {
    /// Blind uniform random spread: tags carry nothing, and each round a
    /// node flips a fair coin to propose to a uniformly random neighbor
    /// or to listen. Connections between equal message sets are wasted,
    /// the inefficiency advertisement-guided protocols eliminate.
    Uniform,
    /// Advertisement-guided gossip from the paper family: each node
    /// advertises a fingerprint of its message set, so neighbors can tell
    /// *before* spending their one connection whether a transfer would be
    /// productive.
    ///
    /// With ≤64 messages the tag is the exact membership mask, and role
    /// selection reads set differences straight off the scanned tags:
    ///
    /// - No neighbor's tag differs from ours → **idle**; every possible
    ///   connection would be wasted.
    /// - Some neighbor strictly lacks messages we hold (and no neighbor
    ///   can teach us anything) → **propose** to a random such neighbor;
    ///   we are a local frontier source and proposing is guaranteed
    ///   productive.
    /// - Some neighbor strictly exceeds us (and we cannot teach anyone) →
    ///   **listen**; the frontier will come to us.
    /// - Mixed neighborhood → fair coin between proposing to a random
    ///   productive neighbor and listening, which avoids the livelock of
    ///   two mutually-productive nodes both insisting on the same role.
    ///
    /// Larger universes hash the set down to a 64-bit tag, salted with the
    /// round number. Hashed bits carry no subset structure, so only tag
    /// (in)equality is used: differing tags mark a neighbor as (almost
    /// surely) productive and roles are chosen by coin flip. A tag is a
    /// salted `mix` of the row's 64-bit digest, and `mix` is a bijection, so
    /// under one salt two tags collide exactly when the digests do: a fresh
    /// salt does not break up such a pair, and a stall persists only while
    /// two *different* sets share a digest, a 64-bit coincidence that lasts
    /// until either row changes.
    Advert,
}

impl Protocol {
    /// Canonical names, in the order help text lists them (a test checks
    /// each round-trips through [`parse`](Self::parse) and
    /// [`name`](Self::name)).
    pub const NAMES: &'static [&'static str] = &["uniform", "advert"];

    /// Parse a protocol name.
    pub fn parse(name: &str) -> Option<Protocol> {
        [Protocol::Uniform, Protocol::Advert]
            .into_iter()
            .find(|p| p.name() == name)
    }

    /// Stable protocol name, used in CLI selection and reporting.
    pub fn name(self) -> &'static str {
        match self {
            Protocol::Uniform => "uniform",
            Protocol::Advert => "advert",
        }
    }

    /// Whether [`decide`](Self::decide) reads neighbor tags. The engines
    /// keep tag storage, and run the advertise pass, only for a protocol
    /// that does: for any other, [`NodeCtx::tags`] is empty and its
    /// [`advertise`](Self::advertise) returns `Advertisement::default()`,
    /// so no scan of an empty view can happen.
    #[inline]
    pub fn reads_tags(self) -> bool {
        match self {
            Protocol::Uniform => false,
            Protocol::Advert => true,
        }
    }

    /// The tag this node broadcasts when it (re)advertises. `salt` is the
    /// same value later visible as [`NodeCtx::salt`] to scanners of this
    /// tag's generation.
    #[inline]
    pub fn advertise(self, messages: MsgView<'_>, salt: u64) -> Advertisement {
        match self {
            Protocol::Uniform => Advertisement(0),
            Protocol::Advert => advert::advertise(messages, salt),
        }
    }

    /// The node's connection intent, after scanning neighbor tags.
    #[inline]
    pub fn decide(self, ctx: &NodeCtx<'_>, rng: &mut Rng) -> Intent {
        match self {
            Protocol::Uniform => uniform::decide(ctx, rng),
            Protocol::Advert => advert::decide(ctx, rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_tags_read_live_inside_the_range_and_the_snapshot_outside() {
        // Every (base, len) cut of every array of 0..=70 nodes: an empty
        // live chunk, a chunk at either end, the whole array, and the short
        // last region of a node count that is no multiple of the block.
        // Reading every node covers the four edges `base - 1`, `base`,
        // `base + len - 1` and `base + len` of each cut.
        for n in 0..=70usize {
            let ads: Vec<_> = (0..n as u64).map(Advertisement).collect();
            let snap: Vec<_> = (0..n as u64).map(|v| Advertisement(1000 + v)).collect();
            let all = Tags::all(&ads);
            for base in 0..=n {
                for len in 0..=n - base {
                    let live = &ads[base..base + len];
                    let split = Tags::split(live, base, &snap);
                    let one_array = Tags::split(live, base, &ads);
                    for v in 0..n {
                        let id = NodeId(v as u32);
                        let owned = (base..base + len).contains(&v);
                        let want = if owned { ads[v] } else { snap[v] };
                        assert_eq!(split.of(id), want, "n {n} base {base} len {len} v {v}");
                        assert_eq!(one_array.of(id), all.of(id));
                    }
                }
            }
        }
    }
}
