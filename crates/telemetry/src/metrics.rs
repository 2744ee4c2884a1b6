//! The fixed-width per-region load accumulator of the sharded engines
//! and its balance summary. [`RegionLoad`] is a plain `[u64; 64]` so the
//! engines' timing structs stay `Copy`.

/// The fixed region fan-out of the sharded engines. Mirrors
/// `MATCH_REGIONS` / `EVENT_REGIONS` in the engine crates (asserted equal
/// there at compile time): both are deliberately constants, never a
/// function of the thread count, so per-region counters are as
/// thread-independent as the results themselves.
pub const REGIONS: usize = 64;

/// The number of non-empty regions a fixed 64-way partition of `n` nodes
/// actually produces (fewer than 64 when `n < 64`; see the resolver's
/// block-rounding rule).
pub fn regions_for(n: usize) -> usize {
    if n == 0 {
        return 0;
    }
    n.div_ceil(n.div_ceil(REGIONS))
}

/// The region holding `node` when `nodes` nodes are cut into the fixed
/// blocks of `ceil(nodes / 64)`; an id past the end counts in the last.
pub fn region_of(node: usize, nodes: usize) -> usize {
    (node / nodes.div_ceil(REGIONS).max(1)).min(REGIONS - 1)
}

/// Per-region event/connection tallies for one run — the load-balance
/// instrument of the 64-region sharded engines. `Copy` and fixed-size on
/// purpose: it rides inside `PhaseTimings` / `SliceTimings` without
/// changing their semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionLoad {
    /// One tally per fixed region.
    pub counts: [u64; REGIONS],
}

impl Default for RegionLoad {
    fn default() -> Self {
        RegionLoad {
            counts: [0; REGIONS],
        }
    }
}

/// Min/mean/max/imbalance summary of a [`RegionLoad`] over the regions a
/// run actually had.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LoadSummary {
    pub regions: usize,
    pub total: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    /// `max / mean` — 1.0 is perfect balance; large values mean one
    /// region is doing most of the work.
    pub imbalance: f64,
}

impl RegionLoad {
    /// Add `n` to region `r`'s tally.
    #[inline]
    pub fn add(&mut self, region: usize, n: u64) {
        self.counts[region] += n;
    }

    /// Summarize the first `regions` tallies (the regions a run of its
    /// size actually populated; see [`regions_for`]).
    pub fn summary(&self, regions: usize) -> LoadSummary {
        let regions = regions.clamp(1, REGIONS);
        let used = &self.counts[..regions];
        let total: u64 = used.iter().sum();
        let mean = total as f64 / regions as f64;
        let max = *used.iter().max().expect("regions >= 1");
        LoadSummary {
            regions,
            total,
            min: *used.iter().min().expect("regions >= 1"),
            max,
            mean,
            imbalance: if total == 0 { 1.0 } else { max as f64 / mean },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_load_summary_reports_balance() {
        let mut load = RegionLoad::default();
        for r in 0..4 {
            load.add(r, 10);
        }
        load.add(0, 20);
        let s = load.summary(4);
        assert_eq!(s.regions, 4);
        assert_eq!(s.total, 60);
        assert_eq!(s.min, 10);
        assert_eq!(s.max, 30);
        assert!((s.mean - 15.0).abs() < 1e-9);
        assert!((s.imbalance - 2.0).abs() < 1e-9);
        // Regions beyond the used prefix do not drag min to zero.
        assert_eq!(load.summary(64).min, 0, "full-width summary sees empties");
    }

    #[test]
    fn regions_for_matches_the_block_rounding_rule() {
        assert_eq!(regions_for(0), 0);
        assert_eq!(regions_for(1), 1);
        assert_eq!(regions_for(6), 6);
        assert_eq!(regions_for(64), 64);
        assert_eq!(regions_for(1000), 63, "ceil rounding drops a region");
        assert_eq!(regions_for(1 << 20), 64);
        // `region_of` walks the same blocks (16 nodes each at n = 1000).
        assert_eq!([0, 15, 16, 999].map(|u| region_of(u, 1000)), [0, 0, 1, 62]);
        assert_eq!(region_of(5, 0), 5, "a headerless stream: blocks of one");
        assert_eq!(region_of(usize::MAX, 1000), REGIONS - 1);
    }
}
