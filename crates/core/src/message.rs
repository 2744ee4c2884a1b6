//! Gossip state: the set of rumors a node currently holds.
//!
//! The gossip problem starts `k` messages (rumors) at designated sources and
//! completes when every node holds all `k`. [`MessageMatrix`] owns that
//! state in **struct-of-arrays** form: all `n` nodes' bitset words packed
//! into one flat `Vec<u64>` (plus one flat counts array), so a round sweep
//! touches two contiguous buffers instead of chasing `n` per-node heap
//! allocations. A row is handed to protocols as a borrowed [`MsgView`].

use crate::matching::Connection;
use crate::rng::{mix, GOLDEN_GAMMA};
use crate::shard;

/// Aggregate outcome of a batch of push-pull transfers
/// ([`MessageMatrix::union_pairs_parallel`]). Every field is a sum of
/// per-pair contributions, and the pairs of a round are node-disjoint, so
/// the totals are independent of the order — and the thread count — in
/// which the pairs were processed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransferStats {
    /// Messages that moved, in both directions across all pairs.
    pub moved: usize,
    /// Pairs that moved at least one message.
    pub productive: usize,
    /// Endpoints that newly hold the full universe.
    pub newly_full: usize,
}

impl std::ops::AddAssign for TransferStats {
    fn add_assign(&mut self, rhs: TransferStats) {
        self.moved += rhs.moved;
        self.productive += rhs.productive;
        self.newly_full += rhs.newly_full;
    }
}

/// The push-pull union of two rows (both become their union), given
/// exclusive access to each row's words, count and — for a hashed
/// universe — digest. Shared by the safe serial path (slices from
/// `split_at_mut`) and the parallel path (slices reconstituted from raw
/// parts over provably disjoint rows).
///
/// The union's digest is computed once and written to both rows, and only
/// when a message moved: `moved == 0` means the rows were already equal,
/// so neither changed.
#[inline]
fn union_rows(
    a: &mut [u64],
    b: &mut [u64],
    count_a: &mut u32,
    count_b: &mut u32,
    digests: Option<[&mut u64; 2]>,
    universe: usize,
) -> TransferStats {
    let mut count = 0u32;
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let u = *x | *y;
        *x = u;
        *y = u;
        count += u.count_ones();
    }
    let full = universe as u32;
    let newly_full =
        (count == full && *count_a != full) as usize + (count == full && *count_b != full) as usize;
    let moved = ((count - *count_a) + (count - *count_b)) as usize;
    *count_a = count;
    *count_b = count;
    if let (true, Some([digest_a, digest_b])) = (moved > 0, digests) {
        let d = row_digest(a, universe);
        *digest_a = d;
        *digest_b = d;
    }
    TransferStats {
        moved,
        productive: (moved > 0) as usize,
        newly_full,
    }
}

/// Word `j`'s share of a row digest: `mix(w ^ key_j)` with a fixed odd key
/// per word index, so equal words at different positions count
/// differently. `mix` is a bijection, so for a fixed `j` different words
/// never share a term.
#[inline]
fn word_term(j: usize, w: u64) -> u64 {
    let key = ((j as u64) << 1 | 1).wrapping_mul(0xd6e8_feb8_6659_fd93);
    mix(w ^ key)
}

/// The digest of a hashed-universe row: `k·φ + Σⱼ word_term(j, wⱼ)`,
/// wrapping. A sum rather than a chain, so one word's change is one
/// term's swap ([`MessageMatrix::insert`]) and a whole row's terms are
/// independent — four accumulators keep four `mix`es in flight. Chosen by
/// measurement — transfer phase of `grid -n 4900 -m 4900 --protocol
/// advert`, 77-word rows (2 vCPUs, rustc 1.95): 1 accumulator 72 ms,
/// 4 → 62, 8 → 64; updating the digest per changed word inside the union
/// loop instead: 93.
fn row_digest(words: &[u64], universe: usize) -> u64 {
    let mut acc = [0u64; 4];
    let mut quads = words.chunks_exact(4);
    let mut j = 0;
    for quad in quads.by_ref() {
        for (l, (acc, &w)) in acc.iter_mut().zip(quad).enumerate() {
            *acc = acc.wrapping_add(word_term(j + l, w));
        }
        j += 4;
    }
    for (l, (acc, &w)) in acc.iter_mut().zip(quads.remainder()).enumerate() {
        *acc = acc.wrapping_add(word_term(j + l, w));
    }
    acc.iter()
        .fold((universe as u64).wrapping_mul(GOLDEN_GAMMA), |d, &a| {
            d.wrapping_add(a)
        })
}

/// A borrowed, read-only view of one node's message set — a row of a
/// [`MessageMatrix`], in the shape protocols see.
#[derive(Clone, Copy, Debug)]
pub struct MsgView<'a> {
    words: &'a [u64],
    universe: usize,
    count: usize,
    /// The row's cached digest (0, and unused, for `universe <= 64`).
    digest: u64,
}

impl MsgView<'_> {
    /// Size of the message universe (the `k` of k-gossip).
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of messages currently held.
    #[inline]
    pub fn count(&self) -> usize {
        self.count
    }

    /// True once every message in the universe is held.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.count == self.universe
    }

    /// Does this set contain message `id`?
    pub fn contains(&self, id: usize) -> bool {
        id < self.universe && self.words[id / 64] & (1 << (id % 64)) != 0
    }

    /// A 64-bit summary suitable for an advertisement tag.
    ///
    /// For universes of at most 64 messages this is the exact membership
    /// mask, so two fingerprints are equal iff the sets are equal and
    /// bitwise comparisons recover exact set differences. Larger universes
    /// hash down to 64 bits; equality then only implies set equality with
    /// high probability, which is the regime the paper's small-tag (`b`-bit
    /// advertisement) analysis targets.
    ///
    /// Equivalent to [`fingerprint_salted`](Self::fingerprint_salted) with
    /// salt 0.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint_salted(0)
    }

    /// [`fingerprint`](Self::fingerprint) mixed with a caller-chosen salt.
    ///
    /// For universes of at most 64 messages the salt is ignored and the
    /// exact membership mask is returned. Beyond that the tag is
    /// `mix(digest ^ mix(salt ^ k·φ))` over the row digest its matrix keeps
    /// current — one `mix` per call, not a pass over the row. `mix` is a
    /// bijection, so under one salt two tags are equal iff the digests are;
    /// protocols salt tags with the round (or epoch) so that the same
    /// digest reads differently from one salt to the next, and the hashed
    /// salt keeps tags of different salts from colliding by structure.
    pub fn fingerprint_salted(&self, salt: u64) -> u64 {
        if self.universe <= 64 {
            return self.words.first().copied().unwrap_or(0);
        }
        debug_assert_eq!(
            self.digest,
            row_digest(self.words, self.universe),
            "stale row digest"
        );
        let k_phi = (self.universe as u64).wrapping_mul(GOLDEN_GAMMA);
        mix(self.digest ^ mix(salt ^ k_phi))
    }
}

/// All `n` nodes' message sets in struct-of-arrays layout: one flat words
/// buffer (`stride` words per node) and one flat counts array, owned by
/// the engine rather than scattered across per-node heap objects. This is
/// the layout the sharded round loop reads concurrently — a `view` of any
/// row is just slice arithmetic — while transfers mutate pairs of rows in
/// place.
///
/// A universe of more than 64 messages also keeps one digest per row
/// (`digests`, empty otherwise), maintained by every mutator below, so a
/// hashed tag is one `mix` away from a row that did not change.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MessageMatrix {
    words: Vec<u64>,
    counts: Vec<u32>,
    digests: Vec<u64>,
    /// The digest of an empty row, which [`reset`](Self::reset) stores.
    empty_digest: u64,
    universe: usize,
    stride: usize,
}

impl MessageMatrix {
    /// `n` empty sets over message ids `0..universe`.
    pub fn new(n: usize, universe: usize) -> Self {
        let stride = universe.div_ceil(64);
        let empty_digest = row_digest(&vec![0; stride], universe);
        MessageMatrix {
            words: vec![0; n * stride],
            counts: vec![0; n],
            digests: if universe > 64 {
                vec![empty_digest; n]
            } else {
                Vec::new()
            },
            empty_digest,
            universe,
            stride,
        }
    }

    /// Number of per-node rows.
    pub fn num_nodes(&self) -> usize {
        self.counts.len()
    }

    /// Size of the message universe (the `k` of k-gossip).
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// A borrowed view of node `u`'s set, as handed to protocols.
    #[inline]
    pub fn view(&self, u: usize) -> MsgView<'_> {
        MsgView {
            words: &self.words[u * self.stride..(u + 1) * self.stride],
            universe: self.universe,
            count: self.counts[u] as usize,
            digest: self.digests.get(u).copied().unwrap_or(0),
        }
    }

    /// Number of messages node `u` holds.
    #[inline]
    pub fn count(&self, u: usize) -> usize {
        self.counts[u] as usize
    }

    /// Does node `u` hold every message?
    #[inline]
    pub fn is_full(&self, u: usize) -> bool {
        self.counts[u] as usize == self.universe
    }

    /// Does node `u` hold message `id`?
    pub fn contains(&self, u: usize, id: usize) -> bool {
        self.view(u).contains(id)
    }

    /// Insert message `id` into node `u`'s set; true if newly added. A
    /// digest swaps one word's term: O(1), not a pass over the row.
    pub fn insert(&mut self, u: usize, id: usize) -> bool {
        assert!(id < self.universe, "message id {id} out of universe");
        let (j, bit) = (id / 64, 1u64 << (id % 64));
        let w = u * self.stride + j;
        let old = self.words[w];
        let fresh = old & bit == 0;
        if fresh {
            self.words[w] = old | bit;
            self.counts[u] += 1;
            if let Some(d) = self.digests.get_mut(u) {
                *d = d
                    .wrapping_sub(word_term(j, old))
                    .wrapping_add(word_term(j, old | bit));
            }
        }
        fresh
    }

    /// Clear node `u`'s set (a rejoining device that lost its storage).
    pub fn reset(&mut self, u: usize) {
        self.words[u * self.stride..(u + 1) * self.stride].fill(0);
        self.counts[u] = 0;
        if let Some(d) = self.digests.get_mut(u) {
            *d = self.empty_digest;
        }
    }

    /// The whole transfer phase of a round: every connection's row pair
    /// becomes its union, sharded over up to `threads` workers, returning
    /// the summed [`TransferStats`].
    ///
    /// `pairs` **must be node-disjoint** — exactly the matching invariant
    /// the connection resolver guarantees (debug builds assert it). That
    /// disjointness is what makes the parallel mutation sound: each worker
    /// takes a contiguous chunk of pairs and touches only the rows those
    /// pairs name, which no other worker's pairs can name. It also makes
    /// the result *byte-identical at any thread count*: each pair's union
    /// is independent of every other pair, and the stats are sums, so
    /// neither processing order nor worker count can show through.
    pub fn union_pairs_parallel(&mut self, pairs: &[Connection], threads: usize) -> TransferStats {
        #[cfg(debug_assertions)]
        {
            let mut seen = vec![false; self.num_nodes()];
            for c in pairs {
                for node in [c.initiator, c.acceptor] {
                    assert!(
                        !seen[node.index()],
                        "transfer pairs must be node-disjoint: {node} appears twice"
                    );
                    seen[node.index()] = true;
                }
            }
        }

        // Below this, a fork costs more than the row unions. A property of
        // the input, and either way the same per-pair unions and the same
        // sums run, so the cut-off cannot show in a result.
        const PAR_MIN_PAIRS: usize = 512;
        let threads = if pairs.len() < PAR_MIN_PAIRS {
            1
        } else {
            threads
        };

        struct Rows {
            words: *mut u64,
            counts: *mut u32,
            /// Null for a universe of at most 64 messages: no digests.
            digests: *mut u64,
        }
        // SAFETY: `Rows` only crosses into `for_each`'s scoped workers,
        // which dereference it exclusively at row offsets named by their
        // own chunks of node-disjoint pairs — no two workers touch the same
        // row, and the scope ends before `self` is usable again.
        unsafe impl Sync for Rows {}

        let (nodes, stride, universe) = (self.num_nodes(), self.stride, self.universe);
        let rows = &Rows {
            words: self.words.as_mut_ptr(),
            counts: self.counts.as_mut_ptr(),
            digests: if self.digests.is_empty() {
                std::ptr::null_mut()
            } else {
                self.digests.as_mut_ptr()
            },
        };
        // One task per worker: a contiguous chunk of pairs and its total.
        let mut tasks: Vec<(&[Connection], TransferStats)> = pairs
            .chunks(shard::per_worker(pairs.len(), threads))
            .map(|chunk| (chunk, TransferStats::default()))
            .collect();
        shard::for_each(threads, &mut tasks, |(chunk, total)| {
            for c in chunk.iter() {
                let (i, j) = (c.initiator.index(), c.acceptor.index());
                assert!(i != j && i.max(j) < nodes, "no row pair ({i}, {j})");
                // SAFETY: rows `i` and `j` belong to this task alone — the
                // pairs are node-disjoint and chunked by pair, so no other
                // task names either row — and `i != j`, so the six
                // reconstituted borrows are themselves disjoint, and in
                // bounds: both rows were just checked against `nodes`, and
                // a non-null `digests` holds one slot per row.
                *total += unsafe {
                    let a = std::slice::from_raw_parts_mut(rows.words.add(i * stride), stride);
                    let b = std::slice::from_raw_parts_mut(rows.words.add(j * stride), stride);
                    let (count_a, count_b) = (&mut *rows.counts.add(i), &mut *rows.counts.add(j));
                    let digests = (!rows.digests.is_null())
                        .then(|| [&mut *rows.digests.add(i), &mut *rows.digests.add(j)]);
                    union_rows(a, b, count_a, count_b, digests, universe)
                };
            }
        });
        // Fold in chunk (= pair) order; the sums are order-independent
        // anyway.
        let mut total = TransferStats::default();
        for (_, chunk_total) in tasks {
            total += chunk_total;
        }
        total
    }

    /// The chunk spanning every row (`base = 0`): how serial code reaches
    /// the pair unions, which live on [`MatrixChunk`] only.
    pub fn whole(&mut self) -> MatrixChunk<'_> {
        MatrixChunk {
            base: 0,
            words: &mut self.words,
            counts: &mut self.counts,
            digests: &mut self.digests,
            universe: self.universe,
            stride: self.stride,
        }
    }

    /// Split the matrix into disjoint mutable blocks of `block` contiguous
    /// rows each (the last block may be shorter) — the region-parallel
    /// access pattern of the time-sliced event engine. Each
    /// [`MatrixChunk`] owns its rows exclusively, so workers on different
    /// chunks mutate concurrently in safe Rust; chunk methods take
    /// **global** row indices.
    pub fn region_chunks(&mut self, block: usize) -> impl Iterator<Item = MatrixChunk<'_>> {
        assert!(block > 0, "region block size must be non-zero");
        let stride = self.stride;
        let universe = self.universe;
        // No digests (k <= 64) hands every chunk an empty slice.
        let mut digests = self.digests.chunks_mut(block);
        self.words
            .chunks_mut(block * stride)
            .zip(self.counts.chunks_mut(block))
            .enumerate()
            .map(move |(i, (words, counts))| MatrixChunk {
                base: i * block,
                words,
                counts,
                digests: digests.next().unwrap_or_default(),
                universe,
                stride,
            })
    }

    /// How many nodes hold the full universe.
    pub fn full_count(&self) -> usize {
        let k = self.universe as u32;
        self.counts.iter().filter(|&&c| c == k).count()
    }

    /// Total messages held across all nodes.
    pub fn total_messages(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).sum()
    }
}

/// Exclusive access to rows `base..base + len` of a [`MessageMatrix`] —
/// one region from [`region_chunks`](MessageMatrix::region_chunks), or all
/// of it from [`whole`](MessageMatrix::whole). All row indices passed to
/// chunk methods are **global** node indices and must fall inside the
/// chunk's range (debug-asserted).
pub struct MatrixChunk<'a> {
    base: usize,
    words: &'a mut [u64],
    counts: &'a mut [u32],
    /// The chunk's rows' digests; empty for a universe of at most 64.
    digests: &'a mut [u64],
    universe: usize,
    stride: usize,
}

impl MatrixChunk<'_> {
    /// First global row of this chunk.
    #[inline]
    pub fn base(&self) -> usize {
        self.base
    }

    #[inline]
    fn local(&self, u: usize) -> usize {
        debug_assert!(
            u >= self.base && u - self.base < self.counts.len(),
            "row {u} outside chunk {}..{}",
            self.base,
            self.base + self.counts.len()
        );
        u - self.base
    }

    /// A borrowed view of global row `u`'s set, as handed to protocols.
    #[inline]
    pub fn view(&self, u: usize) -> MsgView<'_> {
        let l = self.local(u);
        MsgView {
            words: &self.words[l * self.stride..(l + 1) * self.stride],
            universe: self.universe,
            count: self.counts[l] as usize,
            digest: self.digests.get(l).copied().unwrap_or(0),
        }
    }

    /// Does global row `u` hold every message?
    #[inline]
    pub fn is_full(&self, u: usize) -> bool {
        self.counts[self.local(u)] as usize == self.universe
    }

    /// The push-pull transfer between two rows of this chunk: both become
    /// their union. Returns the per-pair stats.
    pub fn union_pair_stats(&mut self, i: usize, j: usize) -> TransferStats {
        assert_ne!(i, j, "a connection cannot join a node to itself");
        let (li, lj) = (self.local(i), self.local(j));
        let stride = self.stride;
        let (lo, hi) = (li.min(lj), li.max(lj));
        let (head, tail) = self.words.split_at_mut(hi * stride);
        let (counts_head, counts_tail) = self.counts.split_at_mut(hi);
        let digests = (!self.digests.is_empty()).then(|| {
            let (digests_head, digests_tail) = self.digests.split_at_mut(hi);
            [&mut digests_head[lo], &mut digests_tail[0]]
        });
        union_rows(
            &mut head[lo * stride..(lo + 1) * stride],
            &mut tail[..stride],
            &mut counts_head[lo],
            &mut counts_tail[0],
            digests,
            self.universe,
        )
    }

    /// [`union_pair_stats`](Self::union_pair_stats) that first itemises the
    /// transfer: `moved(from, to, msg)` for every message one row holds and
    /// the other lacks, in ascending `msg` order — what a probe's transfer
    /// events are made of. The union itself is the untraced call, so
    /// observing a transfer cannot change it.
    pub fn union_pair_traced(
        &mut self,
        i: usize,
        j: usize,
        mut moved: impl FnMut(u32, u32, u32),
    ) -> TransferStats {
        let (row_i, row_j) = (self.view(i).words, self.view(j).words);
        for (w, (x, y)) in row_i.iter().zip(row_j).enumerate() {
            let mut diff = x ^ y;
            while diff != 0 {
                let bit = diff.trailing_zeros();
                diff &= diff - 1;
                let msg = (w * 64) as u32 + bit;
                if x >> bit & 1 == 1 {
                    moved(i as u32, j as u32, msg);
                } else {
                    moved(j as u32, i as u32, msg);
                }
            }
        }
        self.union_pair_stats(i, j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-row matrix holding `ids` of `0..universe`.
    fn row(universe: usize, ids: &[usize]) -> MessageMatrix {
        let mut m = MessageMatrix::new(1, universe);
        for &id in ids {
            m.insert(0, id);
        }
        m
    }

    #[test]
    fn full_after_all_inserted() {
        let ids: Vec<usize> = (0..65).collect();
        assert!(row(65, &ids).is_full(0));
    }

    #[test]
    fn small_universe_fingerprint_is_exact_mask() {
        assert_eq!(row(64, &[0, 5]).view(0).fingerprint(), 0b100001);
    }

    #[test]
    fn large_universe_fingerprints_differ_for_different_sets() {
        let tag = |universe, id| row(universe, &[id]).view(0).fingerprint();
        assert_ne!(tag(200, 3), tag(200, 150));
        // The word-fold collision family of the old XOR-rotate scheme
        // (ids i and 64 + (i - 1) collided) must not survive the hash.
        assert_ne!(tag(128, 4), tag(128, 67));
    }

    #[test]
    fn salt_changes_large_universe_tags_but_not_small() {
        let large = row(100, &[42]);
        let large = large.view(0);
        assert_ne!(
            large.fingerprint_salted(1),
            large.fingerprint_salted(2),
            "same set must re-hash differently under a new salt"
        );
        let small = row(8, &[3]);
        let small = small.view(0);
        assert_eq!(small.fingerprint_salted(1), small.fingerprint_salted(2));
        assert_eq!(small.fingerprint_salted(7), small.fingerprint());
    }

    #[test]
    fn different_sets_do_not_share_a_tag_across_salts() {
        // A raw salt XORed into the first hashed word made `{0}` under
        // salt 1 and `∅` under salt 0 one tag: whenever `A.w0 ^ B.w0` equals
        // `s1 ^ s2` and the other words agree, the chains met.
        assert_ne!(
            row(65, &[0]).view(0).fingerprint_salted(1),
            row(65, &[]).view(0).fingerprint_salted(0)
        );
        let empty = row(130, &[]);
        // The whole family: `{id}` under `s ^ (1 << id)` against `∅` under `s`.
        for id in [0usize, 1, 5, 63] {
            let held = row(130, &[id]);
            for s in [0u64, 7, u64::MAX] {
                let salt = s ^ (1 << id);
                assert_ne!(
                    held.view(0).fingerprint_salted(salt),
                    empty.view(0).fingerprint_salted(s),
                    "id {id} salts {salt} / {s}"
                );
            }
        }
    }

    #[test]
    fn matrix_rows_behave_like_independent_sets() {
        let mut m = MessageMatrix::new(3, 130);
        assert!(m.insert(0, 0));
        assert!(m.insert(0, 100));
        assert!(!m.insert(0, 100), "double insert is not fresh");
        assert!(m.insert(2, 129));
        assert_eq!(m.count(0), 2);
        assert_eq!(m.count(1), 0);
        assert!(m.contains(0, 100));
        assert!(!m.contains(1, 100), "rows must not bleed into each other");
        assert_eq!(m.total_messages(), 3);
        assert_eq!(m.full_count(), 0);
    }

    #[test]
    fn matrix_union_pair_is_push_pull() {
        let mut m = MessageMatrix::new(2, 130);
        m.insert(0, 0);
        m.insert(0, 100);
        m.insert(1, 100);
        m.insert(1, 129);
        // 0 gains 129, 1 gains 0: two messages moved in total.
        assert_eq!(m.whole().union_pair_stats(0, 1).moved, 2);
        assert_eq!(m.count(0), 3);
        assert_eq!(m.count(1), 3);
        assert_eq!(
            m.whole().union_pair_stats(1, 0).moved,
            0,
            "re-union moves nothing"
        );
    }

    /// Every cached digest equals the digest recomputed from its row.
    fn assert_digests_fresh(m: &MessageMatrix, after: &str) {
        if m.universe <= 64 {
            assert!(m.digests.is_empty(), "k <= 64 stores no digests");
            return;
        }
        assert_eq!(m.digests.len(), m.num_nodes());
        for u in 0..m.num_nodes() {
            assert_eq!(
                m.digests[u],
                row_digest(m.view(u).words, m.universe),
                "row {u} after {after}"
            );
        }
    }

    #[test]
    fn cached_digests_match_a_recompute_after_any_mutation() {
        use crate::{NodeId, Rng};
        // 1030 rows: enough disjoint pairs (515) to cross the parallel
        // transfer's cut-off.
        let n = 1030;
        let mut rng = Rng::new(0xd16e);
        for universe in [1usize, 64, 65, 130, 320] {
            let mut m = MessageMatrix::new(n, universe);
            assert_digests_fresh(&m, "new");
            for step in 0..24 {
                for _ in 0..n {
                    m.insert(rng.gen_range(n), rng.gen_range(universe));
                }
                assert_digests_fresh(&m, "insert");
                m.reset(rng.gen_range(n));
                assert_digests_fresh(&m, "reset");
                let (i, j) = (rng.gen_range(n / 2), n / 2 + rng.gen_range(n / 2));
                m.whole().union_pair_stats(i, j);
                assert_digests_fresh(&m, "union_pair_stats");
                let (i, j) = (rng.gen_range(n / 2), n / 2 + rng.gen_range(n / 2));
                m.whole().union_pair_traced(j, i, |_, _, _| ());
                assert_digests_fresh(&m, "union_pair_traced");
                // A random perfect matching, or a short prefix of it.
                let mut order: Vec<u32> = (0..n as u32).collect();
                for k in (1..n).rev() {
                    order.swap(k, rng.gen_range(k + 1));
                }
                let pairs: Vec<Connection> = order
                    .chunks_exact(2)
                    .map(|p| Connection {
                        initiator: NodeId(p[0]),
                        acceptor: NodeId(p[1]),
                    })
                    .take(if step % 2 == 0 { n / 2 } else { 7 })
                    .collect();
                let threads = [1, 2, 8][step % 3];
                m.union_pairs_parallel(&pairs, threads);
                assert_digests_fresh(&m, "union_pairs_parallel");
                // Region chunks, the last one short: one union in each
                // chunk of at least two rows.
                let block = [2usize, 7, 64][step % 3];
                for mut chunk in m.region_chunks(block) {
                    let len = chunk.counts.len();
                    if len >= 2 {
                        let base = chunk.base();
                        let i = base + rng.gen_range(len);
                        let j = base + (i - base + 1 + rng.gen_range(len - 1)) % len;
                        chunk.union_pair_stats(i, j);
                    }
                }
                assert_digests_fresh(&m, "region chunk unions");
            }
        }
    }

    #[test]
    fn rows_differing_in_one_word_never_share_a_digest() {
        // A digest is a sum of per-word terms, so two rows that differ in
        // word j alone differ by `mix(a ^ key_j) - mix(b ^ key_j)`, which
        // `mix`'s bijectivity keeps non-zero.
        use crate::Rng;
        let mut rng = Rng::new(0x0e0d);
        for stride in [2usize, 3, 5, 77] {
            let universe = 64 * stride;
            for _ in 0..2000 {
                let a: Vec<u64> = (0..stride).map(|_| rng.next_u64()).collect();
                let j = rng.gen_range(stride);
                let mut b = a.clone();
                b[j] ^= match rng.gen_range(3) {
                    0 => 1 << rng.gen_range(64),
                    1 => u64::MAX,
                    _ => rng.next_u64() | 1,
                };
                assert_ne!(row_digest(&a, universe), row_digest(&b, universe));
            }
        }
        // Through the matrix: every single insert into an empty row moves
        // its tag away from the empty row's.
        let mut m = MessageMatrix::new(2, 130);
        for id in 0..130 {
            m.reset(0);
            m.insert(0, id);
            assert_ne!(
                m.view(0).fingerprint_salted(9),
                m.view(1).fingerprint_salted(9),
                "id {id}"
            );
        }
    }

    /// A matrix of `n` nodes over a 130-message universe (3 words/row),
    /// each row seeded pseudo-randomly, plus the disjoint pair list
    /// `(2p, 2p+1)`.
    fn transfer_fixture(n: usize) -> (MessageMatrix, Vec<Connection>) {
        use crate::{NodeId, Rng};
        let mut m = MessageMatrix::new(n, 130);
        let mut rng = Rng::new(0xabcd);
        for u in 0..n {
            for _ in 0..8 {
                m.insert(u, rng.gen_range(130));
            }
        }
        let pairs = (0..n / 2)
            .map(|p| Connection {
                initiator: NodeId((2 * p) as u32),
                acceptor: NodeId((2 * p + 1) as u32),
            })
            .collect();
        (m, pairs)
    }

    #[test]
    fn union_pairs_parallel_matches_the_serial_loop_at_any_thread_count() {
        // 2000 nodes / 1000 pairs: enough to cross the parallel cutoff.
        let (serial_m, pairs) = transfer_fixture(2000);
        let mut serial = serial_m.clone();
        let mut productive = 0usize;
        let mut moved = 0usize;
        let mut newly_full = 0usize;
        for c in &pairs {
            let (i, j) = (c.initiator.index(), c.acceptor.index());
            let before_i = serial.is_full(i);
            let before_j = serial.is_full(j);
            let m = serial.whole().union_pair_stats(i, j).moved;
            moved += m;
            productive += (m > 0) as usize;
            newly_full += (serial.is_full(i) && !before_i) as usize;
            newly_full += (serial.is_full(j) && !before_j) as usize;
        }
        for threads in [1usize, 2, 8] {
            let mut par = serial_m.clone();
            let stats = par.union_pairs_parallel(&pairs, threads);
            assert_eq!(par, serial, "threads={threads}: matrices diverged");
            assert_eq!(
                stats,
                TransferStats {
                    moved,
                    productive,
                    newly_full
                },
                "threads={threads}: stats diverged"
            );
        }
    }

    #[test]
    fn traced_union_reports_every_moved_message_and_matches_untraced() {
        // Row 2 sits between the pair: the caller's lower row need not be
        // the first in memory.
        let mut fresh = MessageMatrix::new(3, 130);
        for (row, msg) in [(0, 0), (0, 64), (0, 100), (2, 100), (2, 129), (1, 5)] {
            fresh.insert(row, msg);
        }
        // 0 and 64 move 0 → 2, 129 moves 2 → 0, 100 is held by both:
        // ascending message order, whichever row the caller names first.
        let expected = vec![(0, 2, 0), (0, 2, 64), (2, 0, 129)];
        for (i, j) in [(0, 2), (2, 0)] {
            let (mut m, mut untraced) = (fresh.clone(), fresh.clone());
            let mut moved = Vec::new();
            let stats = m
                .whole()
                .union_pair_traced(i, j, |from, to, msg| moved.push((from, to, msg)));
            assert_eq!(moved, expected, "i {i} j {j}");
            assert_eq!(stats, untraced.whole().union_pair_stats(i, j));
            assert_eq!(stats.moved, expected.len());
            assert_eq!(m, untraced, "tracing must not change the union");
            // Re-union moves nothing and reports nothing.
            let again = m
                .whole()
                .union_pair_traced(j, i, |_, _, _| panic!("nothing left to move"));
            assert_eq!(again, TransferStats::default());
        }
    }

    #[test]
    fn union_pairs_parallel_counts_newly_full_endpoints() {
        use crate::NodeId;
        let mut m = MessageMatrix::new(2, 4);
        for id in 0..4 {
            m.insert(0, id);
        }
        m.insert(1, 0);
        let stats = m.union_pairs_parallel(
            &[Connection {
                initiator: NodeId(0),
                acceptor: NodeId(1),
            }],
            4,
        );
        assert_eq!(
            stats,
            TransferStats {
                moved: 3,
                productive: 1,
                newly_full: 1
            }
        );
        assert_eq!(m.full_count(), 2);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "node-disjoint")]
    fn union_pairs_parallel_rejects_overlapping_pairs_in_debug() {
        use crate::NodeId;
        let mut m = MessageMatrix::new(3, 8);
        let overlapping = [
            Connection {
                initiator: NodeId(0),
                acceptor: NodeId(1),
            },
            Connection {
                initiator: NodeId(1),
                acceptor: NodeId(2),
            },
        ];
        m.union_pairs_parallel(&overlapping, 2);
    }

    #[test]
    fn matrix_reset_clears_one_row_only() {
        let mut m = MessageMatrix::new(2, 4);
        for id in 0..4 {
            m.insert(0, id);
            m.insert(1, id);
        }
        assert_eq!(m.full_count(), 2);
        m.reset(0);
        assert_eq!(m.count(0), 0);
        assert!(m.is_full(1));
        assert_eq!(m.full_count(), 1);
    }
}
