//! Core abstractions of the *mobile telephone model* from
//! "Gossip in a Smartphone Peer-to-Peer Network" (Newport, PODC 2017).
//!
//! The model captures BLE-style smartphone peer-to-peer communication:
//! time proceeds in synchronous rounds, and in each round every node
//!
//! 1. **advertises** a small tag visible to its neighbors in the topology
//!    graph,
//! 2. **scans** the advertisements of its neighbors,
//! 3. either **proposes a connection** to a single neighbor or makes itself
//!    available to accept one, and
//! 4. if a proposal is accepted, the matched pair may **transfer** data.
//!
//! The defining constraint is that every node participates in **at most one
//! pairwise connection per round** — connections form a matching in the
//! topology graph. This crate provides the pieces shared by every protocol
//! and engine built on the model:
//!
//! - [`NodeId`]: dense node identifiers,
//! - [`Topology`]: static undirected communication graphs plus standard
//!   builders (line, ring, grid, complete, random geometric), behind the
//!   [`GraphView`] read trait,
//! - [`DynamicTopology`]: the mutable wrapper for changing networks —
//!   alive-node set, faded-edge overlay, wholesale rewiring, and
//!   active-neighbor views rebuilt once per mutation batch,
//! - [`Advertisement`]: the per-round tag a node broadcasts,
//! - [`MessageMatrix`]: the gossip state (which rumors a node holds), all
//!   nodes' bitsets packed struct-of-arrays, each row read through
//!   [`MsgView`],
//! - [`Intent`] / [`resolve_connections`]: connection proposals and the
//!   batch matching resolver enforcing the one-connection-per-node
//!   invariant, plus [`resolve_connections_sharded`], the partitioned
//!   parallel form with identical invariants and thread-count-independent
//!   output, and [`IncrementalMatcher`], the event-at-a-time counterpart
//!   for asynchronous executions,
//! - [`shard`]: the fixed 64-region node [`Partition`] and the one
//!   fork–join ([`shard::for_each`]) every sharded phase of either engine
//!   runs through,
//! - [`SimTime`] / [`TimingConfig`]: virtual time and the drift/latency
//!   distributions of the asynchronous mobile telephone model,
//! - [`TickQueue`]: the calendar queue both event schedules pop from in
//!   exact `(time, rank, push order)` order,
//! - [`Rng`]: a small deterministic PRNG so whole simulations are seedable.

pub mod dynamic;
pub mod matching;
pub mod message;
pub mod rng;
pub mod shard;
pub mod tick_queue;
pub mod time;
pub mod topology;

pub use dynamic::DynamicTopology;
pub use matching::{
    resolve_connections, resolve_connections_sharded, Connection, IncrementalMatcher, Intent,
    MatcherChunk, PeerState, Resolution,
};
pub use message::{MatrixChunk, MessageMatrix, MsgView, TransferStats};
pub use rng::Rng;
pub use shard::{Partition, MATCH_REGIONS};
pub use tick_queue::{append_by_tick, TickQueue};
pub use time::{SimTime, TimingConfig, TICKS_PER_ROUND};
pub use topology::{GraphView, RggGeometry, Topology};

/// Identifier of a node in a topology. Node ids are dense: a topology over
/// `n` nodes uses ids `0..n`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index into per-node arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The tag a node broadcasts during the advertisement phase of a round.
///
/// The mobile telephone model parameterizes advertisements by a tag size of
/// `b` bits; protocols decide how to spend them. We give protocols a 64-bit
/// payload — enough for the exact message-set fingerprints used by
/// advertisement-guided gossip on universes of up to 64 rumors, and for the
/// hashed summaries larger universes fall back to.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Advertisement(pub u64);
