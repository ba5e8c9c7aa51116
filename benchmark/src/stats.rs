//! Order statistics the reports are built from.

/// One metric over the repetitions of a run: the value reported, and the
/// median and quartiles of all repetitions beside it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The value the run reports: the median, or for a timing the sum of
    /// each call's median repetition.
    pub value: f64,
    /// Median of the samples.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// How many samples the three figures rest on.
    pub n: usize,
}

impl Summary {
    /// A metric measured once per run (a peak, a pooled percentile): the
    /// quartiles collapse onto the value and `n` says how many raw samples
    /// stand behind it.
    pub fn single(value: f64, n: usize) -> Self {
        Summary {
            value,
            median: value,
            q1: value,
            q3: value,
            n,
        }
    }

    /// Summarise per-repetition values; `None` when there are none.
    pub fn of(values: &[f64]) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let median = quartile(&v, 2);
        Some(Summary {
            value: median,
            median,
            q1: quartile(&v, 1),
            q3: quartile(&v, 3),
            n: v.len(),
        })
    }

    /// Interquartile range as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// The `i`-th quartile of an ascending slice, computed the way Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), so a
/// spread printed here is the spread the acceptance check computes.
fn quartile(sorted: &[f64], i: usize) -> f64 {
    let m = sorted.len();
    if m == 1 {
        return sorted[0];
    }
    let j = (i * (m + 1) / 4).clamp(1, m - 1);
    let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
    (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
}

/// Median of unsorted values (0 for an empty slice — callers check `n`).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// A percentile written in hundredths of a percent (9 990 = p99.9), so
/// rank arithmetic stays in integers and never rounds a rank up by one.
pub type PerMyriad = u32;

/// 1-based nearest rank of percentile `p` among `n` samples: the smallest
/// rank with at least `p` of the samples at or below it.
fn rank_of(p: PerMyriad, n: usize) -> usize {
    (p as usize * n).div_ceil(10_000).clamp(1, n)
}

/// Nearest-rank percentile over an ascending-sorted slice.
pub fn nearest_rank(sorted: &[u64], p: PerMyriad) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank_of(p, sorted.len()) - 1]
}

/// The percentiles a latency report may quote, highest first.
const TAIL_LADDER: [PerMyriad; 5] = [9_999, 9_990, 9_900, 9_500, 9_000];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, or `None` when even p90 does not (n < 100).
pub fn highest_supported_percentile(n: usize) -> Option<PerMyriad> {
    TAIL_LADDER
        .into_iter()
        .find(|&p| n > 0 && n - rank_of(p, n) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 5_000), 50);
        assert_eq!(nearest_rank(&s, 9_900), 99);
        assert_eq!(nearest_rank(&s, 9_990), 100);
        assert_eq!(nearest_rank(&s, 0), 1);
        assert_eq!(nearest_rank(&[42], 5_000), 42);
        // 5 samples: p50 is the 3rd, p90 the 5th.
        assert_eq!(nearest_rank(&[10, 20, 30, 40, 50], 5_000), 30);
        assert_eq!(nearest_rank(&[10, 20, 30, 40, 50], 9_000), 50);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(99), None);
        assert_eq!(highest_supported_percentile(0), None);
        assert_eq!(highest_supported_percentile(100), Some(9_000));
        assert_eq!(highest_supported_percentile(200), Some(9_500));
        assert_eq!(highest_supported_percentile(1_000), Some(9_900));
        assert_eq!(highest_supported_percentile(9_999), Some(9_900));
        assert_eq!(highest_supported_percentile(10_000), Some(9_990));
        assert_eq!(highest_supported_percentile(100_000), Some(9_999));
    }

    #[test]
    fn summary_quartiles_match_python_exclusive() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.median, 2.5);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(s.q1, 1.25);
        assert_eq!(s.q3, 3.75);
        assert_eq!(s.n, 4);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let s = Summary::of(&[16.0, 1.0, 8.0, 2.0, 4.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.5, 4.0, 12.0));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(Summary::single(7.0, 3).spread(), 0.0);
    }
}
