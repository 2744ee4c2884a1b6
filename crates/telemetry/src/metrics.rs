//! The fixed-width per-region load accumulator of the sharded engines
//! and its balance summary, indexed by the regions of
//! [`gossip_core::Partition`]. [`RegionLoad`] is a plain
//! `[u64; MATCH_REGIONS]` so the engines' timing structs stay `Copy`.

use gossip_core::MATCH_REGIONS;

/// Per-region event/connection tallies for one run — the load-balance
/// instrument of the 64-region sharded engines. `Copy` and fixed-size on
/// purpose: it rides inside `PhaseTimings` / `SliceTimings` without
/// changing their semantics.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionLoad {
    /// One tally per fixed region.
    pub counts: [u64; MATCH_REGIONS],
}

impl Default for RegionLoad {
    fn default() -> Self {
        RegionLoad {
            counts: [0; MATCH_REGIONS],
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
    /// size actually populated: `Partition::of(n).regions`).
    pub fn summary(&self, regions: usize) -> LoadSummary {
        let regions = regions.clamp(1, MATCH_REGIONS);
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
}
