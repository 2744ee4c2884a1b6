//! Pluggable gossip protocols for the mobile telephone model.
//!
//! A protocol decides, each round and for each node, (a) what to put in the
//! node's advertisement tag and (b) whether to propose a connection, listen
//! for one, or idle — using only information the model makes locally
//! visible: the node's own message set and its neighbors' advertisements.
//!
//! Two members of the family analyzed in Newport's PODC 2017 paper (and the
//! follow-up random gossip processes work) are provided:
//!
//! - [`UniformGossip`]: blind uniform random spread — ignore advertisements,
//!   flip a coin for role, propose to a uniformly random neighbor.
//! - [`AdvertGossip`]: productive, advertisement-guided gossip — advertise a
//!   fingerprint of the held message set, and only pursue connections that
//!   can move a new message in at least one direction.

mod advert;
mod uniform;

pub use advert::AdvertGossip;
pub use uniform::UniformGossip;

use gossip_core::{Advertisement, Intent, MessageMatrix, MsgView, NodeId, Rng};

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
    /// `advertise(messages, salt)`. Every engine refreshes a node's tag
    /// immediately before asking it to decide, on the same row and salt,
    /// so a protocol comparing neighbor tags against its own reads this
    /// instead of recomputing it.
    pub own_ad: Advertisement,
    /// Neighbors in the topology.
    pub neighbors: &'a [NodeId],
    /// The advertisement most recently scanned from each neighbor:
    /// `tags.of(v)` for `v` in `neighbors`. Read on demand — the engine
    /// gathers nothing on the node's behalf.
    pub tags: Tags<'a>,
}

/// A gossip protocol in the mobile telephone model. Implementations must be
/// deterministic given the RNG: all randomness flows through `rng`.
///
/// `Sync` is a supertrait: the synchronous engine shards its advertise and
/// decide phases across worker threads that share one `&dyn
/// GossipProtocol`, so implementations must be immutable (or internally
/// synchronized) per-call — which stateless protocols trivially are.
pub trait GossipProtocol: Sync {
    /// Stable protocol name, used in CLI selection and reporting.
    fn name(&self) -> &'static str;

    /// The tag this node broadcasts when it (re)advertises. `salt` is the
    /// same value later visible as [`NodeCtx::salt`] to scanners of this
    /// tag's generation.
    fn advertise(&self, messages: MsgView<'_>, salt: u64) -> Advertisement;

    /// [`advertise`](Self::advertise) for the contiguous rows
    /// `base..base + out.len()` of `states` under one salt — how engines
    /// fill an ad table (a synchronous round's refresh, an event engine's
    /// initial epoch-0 tags). `out[i]` must equal
    /// `advertise(states.view(base + i), salt)`; the default computes
    /// exactly that, and an override may only compute it faster.
    ///
    /// A hashed tag needs no batching: the matrix keeps each row's digest
    /// current, so [`advertise`](Self::advertise) is one `mix` per row and
    /// the default loop is the whole kernel.
    fn advertise_rows(
        &self,
        states: &MessageMatrix,
        base: usize,
        salt: u64,
        out: &mut [Advertisement],
    ) {
        for (i, ad) in out.iter_mut().enumerate() {
            *ad = self.advertise(states.view(base + i), salt);
        }
    }

    /// The node's connection intent, after scanning neighbor tags.
    fn decide(&self, ctx: &NodeCtx<'_>, rng: &mut Rng) -> Intent;
}

/// Construct a protocol by its CLI name.
pub fn by_name(name: &str) -> Option<Box<dyn GossipProtocol>> {
    match name {
        "uniform" => Some(Box::new(UniformGossip)),
        "advert" => Some(Box::new(AdvertGossip)),
        _ => None,
    }
}

/// Names accepted by [`by_name`].
pub const PROTOCOL_NAMES: &[&str] = &["uniform", "advert"];

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
