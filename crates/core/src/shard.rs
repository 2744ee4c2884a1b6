//! What "byte-identical at any thread count" rests on, each written once:
//! the fixed node [`Partition`] both engines shard by, and [`for_each`],
//! the fork–join every sharded pass runs through — each pass as the same
//! tasks, one per region of the partition.
//!
//! The partition is a function of `n` alone — never of the thread count —
//! so which region a node falls in, which proposals and events cross a
//! region edge, and which RNG stream serves each region are the same
//! whether 1 or 64 workers execute them. `for_each` only decides which
//! worker runs which region task: the tasks' data is disjoint, their
//! randomness keyed by node or by region, and their outputs merge in
//! region order (or are sums), so the grouping cannot show in a result.

/// Region count of the engines' fixed partition.
pub const MATCH_REGIONS: usize = 64;

/// `n` nodes cut into contiguous blocks of `block` ids: region `r` owns
/// `r * block .. ((r + 1) * block).min(n)`, which is what `chunks_mut(block)`
/// over any per-node array hands out.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Partition {
    /// Nodes per region (the last may hold fewer); at least 1.
    pub block: usize,
    /// Non-empty regions — fewer than asked for when `n` is small or the
    /// ceiling drops one (1000 nodes make 63 blocks of 16).
    pub regions: usize,
}

impl Partition {
    /// The engines' partition: `n` nodes in [`MATCH_REGIONS`] blocks.
    pub fn of(n: usize) -> Self {
        Self::split(n, MATCH_REGIONS)
    }

    /// `n` nodes in at most `regions` blocks of `ceil(n / regions)`.
    pub fn split(n: usize, regions: usize) -> Self {
        let block = n.div_ceil(regions.clamp(1, n.max(1))).max(1);
        Partition {
            block,
            regions: n.div_ceil(block),
        }
    }

    /// The region owning `node`.
    #[inline]
    pub fn region_of(&self, node: usize) -> usize {
        node / self.block
    }
}

/// How many of `len` items each of at most `threads` workers takes when
/// they split it contiguously (0 threads count as 1; never 0).
fn per_worker(len: usize, threads: usize) -> usize {
    len.div_ceil(threads.max(1)).max(1)
}

/// Run `f` on every task, on at most `threads` scoped workers: worker `w`
/// takes tasks `w * per_worker .. (w + 1) * per_worker` in order. A single
/// group runs on the calling thread with no fork; a worker's panic reaches
/// the caller once all workers have joined.
pub fn for_each<T: Send>(threads: usize, tasks: &mut [T], f: impl Fn(&mut T) + Sync) {
    let group = per_worker(tasks.len(), threads);
    if group >= tasks.len() {
        return tasks.iter_mut().for_each(f);
    }
    let f = &f;
    std::thread::scope(|s| {
        for tasks in tasks.chunks_mut(group) {
            s.spawn(move || tasks.iter_mut().for_each(f));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread::ThreadId;

    #[test]
    fn for_each_visits_every_task_once_in_order_within_a_group() {
        let caller = std::thread::current().id();
        for len in [0usize, 1, 5, 64, 100] {
            for threads in [0usize, 1, 2, 3, 7, 64, len + 9] {
                let clock = AtomicUsize::new(0);
                // (visits, when, who) per task.
                let mut tasks: Vec<(usize, usize, Option<ThreadId>)> = vec![(0, 0, None); len];
                for_each(threads, &mut tasks, |task| {
                    task.0 += 1;
                    task.1 = clock.fetch_add(1, Ordering::SeqCst);
                    task.2 = Some(std::thread::current().id());
                });
                assert!(
                    tasks.iter().all(|t| t.0 == 1),
                    "len {len} threads {threads}"
                );
                // Workers own contiguous runs of `per_worker` tasks, each
                // visited in ascending order.
                let group = per_worker(len, threads);
                let groups: Vec<_> = tasks.chunks(group).collect();
                assert!(
                    groups.len() <= threads.max(1),
                    "len {len} threads {threads}"
                );
                for tasks in &groups {
                    assert!(tasks.iter().all(|t| t.2 == tasks[0].2));
                    assert!(tasks.windows(2).all(|w| w[0].1 < w[1].1));
                }
                if groups.len() == 1 {
                    assert_eq!(groups[0][0].2, Some(caller), "one group must not fork");
                }
            }
        }
    }

    #[test]
    fn a_worker_panic_reaches_the_caller() {
        for threads in [1usize, 4] {
            let outcome = std::panic::catch_unwind(|| {
                let mut tasks = [0u32, 1, 2, 3];
                for_each(threads, &mut tasks, |t| assert_ne!(*t, 2, "task 2 fails"));
            });
            assert!(outcome.is_err(), "threads {threads}");
        }
    }

    #[test]
    fn partition_equals_the_three_formulas_it_replaced() {
        let around_multiples = (1..=40).flat_map(|m| [m * 64 - 1, m * 64, m * 64 + 1]);
        for n in (1usize..=200)
            .chain(around_multiples)
            .chain([14_400, 131_072, 1_000_001])
        {
            let part = Partition::of(n);
            let got = (part.block, part.regions);
            // The resolver's (PR 6), with its re-count of non-empty blocks:
            let block = n.div_ceil(64usize.clamp(1, n));
            assert_eq!(got, (block, n.div_ceil(block)), "n {n}");
            // the sliced engine's (PR 7):
            assert_eq!(got, (n.div_ceil(64), n.div_ceil(n.div_ceil(64))), "n {n}");
            // telemetry's `regions_for` / `region_of` (PR 8, PR 23):
            assert_eq!(part.regions, n.div_ceil(n.div_ceil(64)));
            for u in [0, part.block - 1, part.block, n / 2, n - 1] {
                let u = u.min(n - 1);
                assert_eq!(part.region_of(u), u / n.div_ceil(64), "n {n} u {u}");
                assert_eq!(part.region_of(u), (u / n.div_ceil(64).max(1)).min(63));
                assert!(part.region_of(u) < part.regions);
            }
            // Regions tile `0..n` the way `chunks_mut(block)` does.
            assert_eq!(vec![(); n].chunks(part.block).len(), part.regions);
        }
        let parts = |p: Partition| (p.block, p.regions);
        assert_eq!(parts(Partition::of(1000)), (16, 63));
        assert_eq!(parts(Partition::of(0)), (1, 0));
        assert_eq!(parts(Partition::split(6, 4)), (2, 3));
        assert_eq!(parts(Partition::split(12, 0)), (12, 1));
    }
}
