//! One calendar queue for both event schedules of a run: the sliced
//! engine's region queues (`RING = 8`, every item at rank 0) and the
//! dynamics mutation schedule (`RING = 256`, ranked by process). The rank
//! is data given at push, so the queue never asks who is calling.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::{SimTime, TICKS_PER_ROUND};

/// Inputs shorter than this are cheaper to comparison-sort than to zero
/// and prefix-sum a slice's worth of counters for.
const COUNTING_MIN_LEN: usize = 64;

/// Append the items of `src` to `dst` in ascending `tick` order, items
/// of equal tick in `src` order — what `sort_by_key(tick)` gives, by one
/// counting pass (no comparisons) whenever the ticks span fewer than
/// `max_span` values.
pub fn append_by_tick<'a, T: Copy + 'a>(
    src: impl Iterator<Item = &'a T> + Clone,
    dst: &mut Vec<T>,
    max_span: u64,
    tick: impl Fn(&T) -> u64,
) {
    let start = dst.len();
    dst.reserve(src.size_hint().0);
    let (mut lo, mut hi) = (u64::MAX, 0);
    for item in src.clone() {
        let t = tick(item);
        lo = lo.min(t);
        hi = hi.max(t);
        dst.push(*item);
    }
    let len = dst.len() - start;
    // `u32` counters: longer inputs (never seen; > 128 GiB of events)
    // take the comparison path rather than a wider, slower counter.
    if len < COUNTING_MIN_LEN || len > u32::MAX as usize || hi - lo >= max_span {
        dst[start..].sort_by_key(tick);
        return;
    }
    // A slice's ticks count on the stack: allocated once per opened slice,
    // the counters cost the sliced engine ~4 % of its execute time.
    let (mut stack, mut heap) = ([0u32; TICKS_PER_ROUND as usize], Vec::new());
    let next = match hi - lo < TICKS_PER_ROUND {
        true => &mut stack[..=(hi - lo) as usize],
        false => {
            heap.resize((hi - lo + 1) as usize, 0u32);
            &mut heap[..]
        }
    };
    for item in src.clone() {
        next[(tick(item) - lo) as usize] += 1;
    }
    // Counts become each tick's first output position...
    let mut at = 0;
    for slot in next.iter_mut() {
        at += std::mem::replace(slot, at);
    }
    // ...and every item lands at its tick's next free one.
    let out = &mut dst[start..];
    for item in src {
        let slot = &mut next[(tick(item) - lo) as usize];
        out[*slot as usize] = *item;
        *slot += 1;
    }
}

/// An item in a bucket or the run, whose slice gives the rest of its time.
#[derive(Clone, Copy)]
struct Slot<T> {
    item: T,
    tick: u16,
    rank: u8,
}

/// Bits of a heap entry's `rank_seq` below the rank.
const SEQ_BITS: u32 = 56;

/// A heap entry keyed `(time, rank, seq)`, compared as one `u128` but
/// 8-byte aligned (a `u128` field would widen a `u32` entry from 24 bytes
/// to 32). The earliest key is the greatest, and `seq` is unique, so the
/// item never decides.
struct Entry<T> {
    time: u64,
    rank_seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> u128 {
        (self.time as u128) << 64 | self.rank_seq as u128
    }

    fn rank(&self) -> u8 {
        (self.rank_seq >> SEQ_BITS) as u8
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key().cmp(&self.key())
    }
}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

// One record per queued timer (`u32`) or packed event (`[u32; 4]`).
const _: () = assert!(std::mem::size_of::<Slot<u32>>() == 8);
const _: () = assert!(std::mem::size_of::<Slot<[u32; 4]>>() == 20);
const _: () = assert!(std::mem::size_of::<Entry<u32>>() <= 24);
const _: () = assert!(std::mem::size_of::<Entry<[u32; 4]>>() <= 32);

/// A calendar queue over `RING` upcoming slices of [`TICKS_PER_ROUND`]
/// ticks: pops in exactly the `(time, rank, push order)` order of one heap
/// fed the same pushes (the unit tests drive both).
///
/// The horizon is the start of the first slice not yet opened.
/// `ring[s % RING]` holds slice `s`'s items in push order for the `RING`
/// slices from the horizon's. A slice opens when a pop asks for it with
/// the run and `near` spent, by one stable counting pass on `(tick, rank)`
/// into the run. Two small heaps hold the rest:
/// - `near`: pushes below the horizon, younger than the whole run, so
///   they lose a `(time, rank)` tie to it;
/// - `far`: pushes `RING` or more slices ahead. Each moves into its
///   bucket, in heap order, when the ring reaches its slice, before any
///   younger push can land there. With the ring empty, the horizon jumps
///   straight to the far heap's first slice.
pub struct TickQueue<T, const RING: usize> {
    /// Slices opened or skipped: the horizon is `opened * TICKS_PER_ROUND`.
    opened: u64,
    ring: [Vec<Slot<T>>; RING],
    /// Each bucket's earliest tick; meaningless while it is empty.
    mins: [u16; RING],
    /// Items in the ring.
    bucketed: usize,
    /// Slice `opened - 1`'s items; `run[cursor..]` are still queued.
    /// Freed once spent, so a queue at rest holds its items once.
    run: Vec<Slot<T>>,
    cursor: usize,
    near: BinaryHeap<Entry<T>>,
    far: BinaryHeap<Entry<T>>,
    /// Heap pushes so far.
    seq: u64,
    /// One more than the highest rank pushed: counting keys per tick.
    ranks: u64,
}

impl<T: Copy, const RING: usize> Default for TickQueue<T, RING> {
    fn default() -> Self {
        TickQueue {
            opened: 0,
            ring: std::array::from_fn(|_| Vec::new()),
            mins: [0; RING],
            bucketed: 0,
            run: Vec::new(),
            cursor: 0,
            near: BinaryHeap::new(),
            far: BinaryHeap::new(),
            seq: 0,
            ranks: 1,
        }
    }
}

impl<T: Copy, const RING: usize> TickQueue<T, RING> {
    /// Queue `item` at `time`; at one time, lower ranks pop first.
    pub fn push(&mut self, time: SimTime, rank: u8, item: T) {
        let slice = time.epoch();
        self.ranks = self.ranks.max(u64::from(rank) + 1);
        if slice < self.opened || slice - self.opened >= RING as u64 {
            // 2^56 heap pushes take years at any rate this program reaches.
            assert!(self.seq < 1 << SEQ_BITS, "heap push count overflow");
            let rank_seq = u64::from(rank) << SEQ_BITS | self.seq;
            let heap = match slice < self.opened {
                true => &mut self.near,
                false => &mut self.far,
            };
            heap.push(Entry {
                time: time.ticks(),
                rank_seq,
                item,
            });
            self.seq += 1;
            return;
        }
        let i = Self::bucket(slice);
        let tick = (time.ticks() % TICKS_PER_ROUND) as u16;
        self.mins[i] = match self.ring[i].is_empty() {
            true => tick,
            false => self.mins[i].min(tick),
        };
        self.ring[i].push(Slot { item, tick, rank });
        self.bucketed += 1;
    }

    /// The ring index of slice `s`'s bucket.
    fn bucket(s: u64) -> usize {
        (s % RING as u64) as usize
    }

    /// The run's head as `(time, rank, item)`.
    fn run_head(&self) -> Option<(SimTime, u8, T)> {
        let slot = self.run.get(self.cursor)?;
        let start = (self.opened - 1) * TICKS_PER_ROUND;
        Some((SimTime(start + u64::from(slot.tick)), slot.rank, slot.item))
    }

    /// The first slice from the horizon whose bucket holds an item.
    fn first_bucketed(&self) -> Option<u64> {
        if self.bucketed == 0 {
            return None;
        }
        let mut slices = self.opened..self.opened + RING as u64;
        slices.find(|&s| !self.ring[Self::bucket(s)].is_empty())
    }

    /// Time of the earliest queued item: O(1) while the run or `near`
    /// holds one, a scan of the ring's `RING` buckets otherwise.
    pub fn earliest(&self) -> Option<SimTime> {
        let run = self.run_head().map(|(time, ..)| time);
        let near = self.near.peek().map(|e| SimTime(e.time));
        let ring = || match self.first_bucketed() {
            Some(s) => Some(s * TICKS_PER_ROUND + u64::from(self.mins[Self::bucket(s)])),
            None => self.far.peek().map(|e| e.time),
        };
        run.into_iter()
            .chain(near)
            .min()
            .or_else(|| ring().map(SimTime))
    }

    /// Pop the earliest queued item as `(time, rank, item)` if its time is
    /// at or before `last`.
    pub fn pop(&mut self, last: SimTime) -> Option<(SimTime, u8, T)> {
        if self.cursor == self.run.len() {
            self.run = Vec::new();
            self.cursor = 0;
            if self.near.is_empty() {
                self.open(last);
            }
        }
        let near = self.near.peek().map(|e| (SimTime(e.time), e.rank()));
        match self.run_head() {
            Some((time, rank, item)) if near.is_none_or(|near| (time, rank) <= near) => {
                (time <= last).then(|| {
                    self.cursor += 1;
                    (time, rank, item)
                })
            }
            _ => {
                near.filter(|&(time, _)| time <= last)?;
                let e = self.near.pop()?;
                Some((SimTime(e.time), e.rank(), e.item))
            }
        }
    }

    /// With the run and `near` spent, open the first slice holding an item
    /// if it starts at or before `last`.
    fn open(&mut self, last: SimTime) {
        if self.bucketed == 0 {
            let Some(first) = self.far.peek() else {
                return;
            };
            self.opened = SimTime(first.time).epoch();
            self.reach_ring();
        }
        let slice = self.first_bucketed().expect("the ring holds an item");
        if slice > last.epoch() {
            return;
        }
        let mut bucket = std::mem::take(&mut self.ring[Self::bucket(slice)]);
        self.bucketed -= bucket.len();
        self.opened = slice + 1;
        self.reach_ring();
        let ranks = self.ranks;
        append_by_tick(
            bucket.iter(),
            &mut self.run,
            TICKS_PER_ROUND * ranks,
            |slot| u64::from(slot.tick) * ranks + u64::from(slot.rank),
        );
        // The next slice's bucket fills while this run is read: handed this
        // buffer when it is the larger, it seldom regrows from empty (that
        // cost the sliced engine ~6 % of its execute time). A bound inside
        // the slice reads no further, so then the buffer is freed: kept, it
        // raised the 10^6-node async grid's peak from ~85 to ~97 MB.
        let next = &mut self.ring[Self::bucket(self.opened)];
        let read_whole = slice * TICKS_PER_ROUND + (TICKS_PER_ROUND - 1) <= last.ticks();
        if read_whole && next.capacity() < bucket.capacity() {
            bucket.clear();
            bucket.extend_from_slice(next);
            *next = bucket;
        }
    }

    /// Move every far entry whose slice the ring now spans into its bucket.
    fn reach_ring(&mut self) {
        let end = self.opened + RING as u64;
        while self
            .far
            .peek()
            .is_some_and(|e| SimTime(e.time).epoch() < end)
        {
            let e = self.far.pop().expect("peeked");
            self.push(SimTime(e.time), e.rank(), e.item);
        }
    }

    /// Every queued item, in no particular order, for a rewrite that
    /// leaves its time and rank alone.
    pub fn for_each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        let slots = self
            .ring
            .iter_mut()
            .flatten()
            .chain(&mut self.run[self.cursor..]);
        slots.for_each(|slot| f(&mut slot.item));
        // An entry's item never decides its place: the heaps stay heaps.
        for heap in [&mut self.near, &mut self.far] {
            let mut entries = std::mem::take(heap).into_vec();
            entries.iter_mut().for_each(|e| f(&mut e.item));
            *heap = BinaryHeap::from(entries);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng;
    use std::cmp::Reverse;

    const SLICE: u64 = TICKS_PER_ROUND;

    #[test]
    fn append_by_tick_matches_the_stable_sort() {
        // (tick, original position): the position exposes any reordering
        // of equal ticks. Short inputs and spans past `max_span` take the
        // comparison path; the rest count.
        let mut rng = Rng::new(0xb1c4e7);
        for (len, span) in [
            (0, 1),
            (1, 1),
            (63, 5),
            (64, 1),
            (500, 2048),
            (500, 2049),
            (3000, 700),
        ] {
            let origin = rng.next_u64() >> 1;
            let items: Vec<(u64, usize)> = (0..len)
                .map(|i| (origin + rng.gen_range(span) as u64, i))
                .collect();
            let mut expected = vec![(7, 7)];
            expected.extend_from_slice(&items);
            expected[1..].sort_by_key(|&(t, _)| t);
            // Fed as three chunks, the way the serial phases feed region logs.
            let (a, rest) = items.split_at(len / 3);
            let (b, c) = rest.split_at(len / 3);
            let mut got = vec![(7, 7)];
            append_by_tick([a, b, c].into_iter().flatten(), &mut got, 2048, |&(t, _)| t);
            assert_eq!(got, expected, "len {len} span {span}");
        }
    }

    /// What a script exercised.
    #[derive(Debug, Default)]
    struct Stats {
        /// Pushes below the horizon and `RING` or more slices past it.
        near: usize,
        far: usize,
        /// Pops that found the run's head and `near`'s at one
        /// `(time, rank)`.
        run_near_ties: usize,
        /// Pops at `u64::MAX`.
        saturated: usize,
        /// Pops bounded inside the open slice that found nothing while
        /// the run still held items past the bound.
        capped: usize,
    }

    /// A queue and the oracle, one heap keyed `(time, rank, seq)`, fed the
    /// same pushes; each item is its push count. Every push and pop checks
    /// that both agree on the pop and on the earliest time.
    #[derive(Default)]
    struct Both<const RING: usize> {
        queue: TickQueue<u32, RING>,
        oracle: BinaryHeap<Reverse<(SimTime, u8, u32)>>,
        pushes: u32,
        stats: Stats,
    }

    impl<const RING: usize> Both<RING> {
        fn push(&mut self, time: SimTime, rank: u8) {
            let (slice, opened) = (time.epoch(), self.queue.opened);
            self.stats.near += usize::from(slice < opened);
            self.stats.far += usize::from(slice >= opened + RING as u64);
            self.queue.push(time, rank, self.pushes);
            self.oracle.push(Reverse((time, rank, self.pushes)));
            self.pushes += 1;
            self.check_earliest();
        }

        fn pop(&mut self, last: SimTime) -> Option<(SimTime, u8, u32)> {
            let run = self.queue.run_head().map(|(time, rank, _)| (time, rank));
            let near = self.queue.near.peek().map(|e| (SimTime(e.time), e.rank()));
            self.stats.run_near_ties += usize::from(run.is_some() && run == near);
            let unread = self.queue.run.len() - self.queue.cursor;
            let got = self.queue.pop(last);
            let want = match self.oracle.peek() {
                Some(&Reverse((time, ..))) if time <= last => self.oracle.pop().map(|e| e.0),
                _ => None,
            };
            assert_eq!(got, want, "pop at or before {last}");
            self.check_earliest();
            self.stats.saturated += usize::from(got.is_some_and(|(t, ..)| t.ticks() == u64::MAX));
            let inside = last.ticks() % SLICE != SLICE - 1 && last.epoch() + 1 == self.queue.opened;
            self.stats.capped += usize::from(got.is_none() && inside && unread > 0);
            got
        }

        fn check_earliest(&self) {
            let want = self.oracle.peek().map(|Reverse((time, ..))| *time);
            assert_eq!(self.queue.earliest(), want, "earliest");
        }
    }

    /// A seeded script: `initial` pushes at `delay` ticks, then `steps`
    /// pops at or before a bound of every kind a caller passes — none
    /// (the schedule), the last tick of the earliest item's slice (a
    /// pass), or a tick inside it (a capped pass). Each pop pushes zero to
    /// two items `delay` ticks after the popped one; one that finds
    /// nothing pushes one from up to three slices before its bound, as a
    /// sweep into executed windows does. Ranks are drawn below `ranks`.
    fn script<const RING: usize>(
        seed: u64,
        ranks: usize,
        initial: usize,
        steps: usize,
        mut delay: impl FnMut(&mut Rng) -> u64,
    ) -> Stats {
        let mut rng = Rng::new(seed);
        let mut both = Both::<RING>::default();
        let rank = |rng: &mut Rng| rng.gen_range(ranks) as u8;
        for _ in 0..initial {
            let time = SimTime(delay(&mut rng));
            both.push(time, rank(&mut rng));
        }
        for _ in 0..steps {
            let start = both.queue.earliest().unwrap_or_default().epoch() * SLICE;
            let last = SimTime(match rng.gen_range(8) {
                0 => u64::MAX,
                1 => start + rng.gen_range(SLICE as usize) as u64,
                _ => start + (SLICE - 1),
            });
            let (from, pushes) = match both.pop(last) {
                Some((time, ..)) => (time, [1, 1, 1, 1, 1, 2, 2, 0][rng.gen_range(8)]),
                None => {
                    let back = rng.gen_range(3 * SLICE as usize) as u64;
                    (SimTime(last.ticks().saturating_sub(back)), 1)
                }
            };
            for _ in 0..pushes {
                let time = from.after(delay(&mut rng));
                both.push(time, rank(&mut rng));
            }
        }
        both.stats
    }

    /// Every script at the sliced engine's ring and the schedule's, with
    /// one rank and with three.
    fn scripts(
        seed: u64,
        initial: usize,
        steps: usize,
        delay: impl Fn(u64, &mut Rng) -> u64 + Copy,
    ) -> Vec<Stats> {
        let mut all = Vec::new();
        for ranks in [1, 3] {
            all.push(script::<8>(seed, ranks, initial, steps, |rng| {
                delay(8, rng)
            }));
            all.push(script::<256>(seed, ranks, initial, steps, |rng| {
                delay(256, rng)
            }));
        }
        all
    }

    #[test]
    fn the_queue_pops_in_the_heaps_order() {
        // Same-tick ties across ranks, and between the run and `near`:
        // every push lands on the popped tick or one of the next three,
        // mostly in the open slice.
        for s in scripts(1, 2_000, 20_000, |_, rng| rng.gen_range(4) as u64) {
            assert!(s.near > 10_000, "{s:?}");
            assert!(s.run_near_ties > 500, "{s:?}");
        }
        // Spread over three slices: into the open slice and the ring's
        // first buckets.
        let spread = |_, rng: &mut Rng| rng.gen_range(3 * SLICE as usize) as u64;
        for s in scripts(2, 300, 20_000, spread) {
            assert!(s.near > 2_000, "{s:?}");
            assert!(s.capped > 500, "{s:?}");
        }
        // The ring's edge: `RING - 1` slices past the popped one is the
        // ring's last bucket, `RING` and `RING + 1` are past it. On slice
        // boundaries or just past them, so far items tie with the ring's.
        let edge = |ring: u64, rng: &mut Rng| {
            let slices = [0, 1, ring - 1, ring, ring + 1][rng.gen_range(5)];
            slices * SLICE + [0, 1, SLICE - 1][rng.gen_range(3)]
        };
        for s in scripts(3, 1_000, 30_000, edge) {
            assert!(s.far > 5_000, "{s:?}");
        }
        // Saturated times: an item at u64::MAX reschedules onto itself, so
        // the queue ends up all ties in the last slice there is.
        let saturating = |_, rng: &mut Rng| match rng.gen_range(4) {
            0 => u64::MAX,
            _ => rng.gen_range(600 * SLICE as usize) as u64,
        };
        for s in scripts(4, 500, 30_000, saturating) {
            assert!(s.saturated > 10_000, "{s:?}");
        }
        // Far-heavy, like churn at 0.001 (a mean of 1000 slices): about
        // three in four of the schedule's pushes go past its ring.
        let churn = |_, rng: &mut Rng| (-(1.0 - rng.gen_f64()).ln() * 1000.0 * SLICE as f64) as u64;
        for s in scripts(5, 10_000, 30_000, churn) {
            assert!(s.far > 7_000, "{s:?}");
        }
    }

    #[test]
    fn a_far_jump_walks_no_slice_and_allocates_no_bucket_on_the_way() {
        let mut both = Both::<8>::default();
        for t in [u64::MAX, u64::MAX - 1, 1 << 50, 8 * SLICE] {
            both.push(SimTime(t), 0);
        }
        assert_eq!(both.queue.far.len(), 4);
        let allocated = |q: &TickQueue<u32, 8>| q.ring.iter().filter(|b| b.capacity() > 0).count();
        assert_eq!(allocated(&both.queue), 0);
        // A pop 2^40 slices on: with the ring empty the horizon jumps to
        // the far heap's first slice at once (a walk would take hours).
        let last = SimTime(1 << 50);
        let item = |popped: Option<(SimTime, u8, u32)>| popped.map(|(.., item)| item);
        assert_eq!(item(both.pop(last)), Some(3));
        assert_eq!(item(both.pop(last)), Some(2));
        assert_eq!(both.queue.opened, (1 << 40) + 1);
        // The one buffer is the one slice 8, read whole, passed on to
        // slice 9's bucket: the bound stops inside slice 2^40, whose
        // buffer is freed, and the jump allocated nothing.
        assert_eq!(allocated(&both.queue), 1);
        assert_eq!(item(both.pop(last)), None);
        assert_eq!(item(both.pop(SimTime(u64::MAX))), Some(1));
        assert_eq!(item(both.pop(SimTime(u64::MAX))), Some(0));
        assert_eq!(item(both.pop(SimTime(u64::MAX))), None);
        // The last slice was read whole: its buffer passed to the next.
        assert_eq!(allocated(&both.queue), 2);
        assert_eq!(both.queue.run.capacity(), 0);
    }

    #[test]
    fn for_each_mut_reaches_the_buckets_the_run_and_both_heaps() {
        let mut both = Both::<8>::default();
        for t in [5, 6, 7, 3 * SLICE + 1, 100 * SLICE] {
            both.push(SimTime(t), 0);
        }
        assert_eq!(both.pop(SimTime(5)).map(|(.., item)| item), Some(0));
        both.push(SimTime(9), 1);
        let q = &both.queue;
        assert_eq!((q.run.len() - q.cursor, q.bucketed), (2, 1));
        assert_eq!((q.near.len(), q.far.len()), (1, 1));
        both.queue.for_each_mut(|item| *item += 1000);
        let rewritten = both
            .oracle
            .drain()
            .map(|Reverse((t, r, item))| Reverse((t, r, item + 1000)));
        both.oracle = rewritten.collect();
        while both.pop(SimTime(u64::MAX)).is_some() {}
        assert_eq!(both.queue.earliest(), None);
    }
}
