//! Order statistics for small timing samples.

/// What the benchmark reports about one timing: the median with its
/// extremes and sample count, plus a tail percentile only when the
/// sample can carry one.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub min: f64,
    pub max: f64,
    /// `(percentile, value)` for the highest of p99/p95/p90 that has at
    /// least [`MIN_BEYOND`] samples beyond it; `None` means "too few
    /// samples for a percentile" and is printed as exactly that.
    pub tail: Option<(u32, f64)>,
}

/// A tail percentile is reported only with this many samples beyond it.
pub const MIN_BEYOND: usize = 10;

/// Median of `samples` (mean of the middle two for even counts).
/// Panics on an empty slice — every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: u32) -> f64 {
    let rank = (sorted.len() * p as usize).div_ceil(100).max(1);
    sorted[rank - 1]
}

pub fn summarize(samples: &[f64]) -> Summary {
    let sorted = sorted(samples);
    let n = sorted.len();
    let tail = [99u32, 95, 90]
        .into_iter()
        .find(|p| n * (100 - *p as usize) >= MIN_BEYOND * 100)
        .map(|p| (p, percentile(&sorted, p)));
    Summary {
        n,
        median: median(&sorted),
        min: sorted[0],
        max: sorted[n - 1],
        tail,
    }
}

impl Summary {
    /// `median [min .. max] n=N` plus the tail percentile or the reason
    /// there is none.
    pub fn render(&self, unit: &str) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("p{p}={v:.6}"),
            None => "too few samples for a percentile".to_string(),
        };
        format!(
            "{:.6} {unit} [min {:.6} .. max {:.6}] n={} ({tail})",
            self.median, self.min, self.max, self.n
        )
    }
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    assert!(!samples.is_empty(), "a summary needs at least one sample");
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_of_odd_and_even_samples() {
        let s = summarize(&[3.0, 1.0, 2.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (3, 2.0, 1.0, 3.0));
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.n, s.median, s.min, s.max), (4, 2.5, 1.0, 4.0));
        assert_eq!(summarize(&[7.0]).median, 7.0);
    }

    #[test]
    fn no_percentile_without_ten_samples_beyond_it() {
        let few: Vec<f64> = (0..99).map(f64::from).collect();
        let s = summarize(&few);
        assert_eq!(s.tail, None);
        assert!(s.render("s").contains("too few samples for a percentile"));

        // 100 samples: p90 has exactly ten beyond it, p95 only five.
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(summarize(&hundred).tail, Some((90, 90.0)));
        // 200 samples carry a p95, 1000 a p99.
        let two_hundred: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(summarize(&two_hundred).tail, Some((95, 190.0)));
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(summarize(&thousand).tail, Some((99, 990.0)));
    }
}
