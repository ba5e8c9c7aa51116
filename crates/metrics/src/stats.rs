//! Generic summary statistics.

/// Summary statistics over a set of `f64` samples.
///
/// Percentiles use linear interpolation between order statistics (the same
/// convention as numpy's default), which keeps the median of an even-sized
/// sample the average of the two central values.
#[derive(Clone, Debug, PartialEq)]
pub struct SummaryStats {
    sorted: Vec<f64>,
    mean: f64,
    std: f64,
}

impl SummaryStats {
    /// Compute statistics over `samples`. Panics if `samples` is empty or
    /// contains non-finite values — metrics feeding a figure must be real
    /// numbers.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "no samples");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "non-finite sample in metrics"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let n = sorted.len() as f64;
        let mean = sorted.iter().sum::<f64>() / n;
        let var = sorted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        SummaryStats {
            sorted,
            mean,
            std: var.sqrt(),
        }
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.std
    }

    /// The `p`-th percentile, `0 ≤ p ≤ 100`, with linear interpolation.
    pub(crate) fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.sorted.len() == 1 {
            return self.sorted[0];
        }
        let rank = p / 100.0 * (self.sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        self.sorted[lo] * (1.0 - frac) + self.sorted[hi] * frac
    }

    /// The median (50th percentile).
    pub fn median(&self) -> f64 {
        self.percentile(50.0)
    }

    /// Geometric mean. Panics if any sample is non-positive.
    pub(crate) fn geomean(&self) -> f64 {
        assert!(
            self.sorted[0] > 0.0,
            "geometric mean requires positive samples"
        );
        let log_sum: f64 = self.sorted.iter().map(|x| x.ln()).sum();
        (log_sum / self.sorted.len() as f64).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop::{self, vec_of};

    #[test]
    fn basic_moments() {
        let s = SummaryStats::from_samples(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.sorted.len(), 4);
        assert!((s.mean() - 2.5).abs() < 1e-12);
        assert!((s.std() - (1.25f64).sqrt()).abs() < 1e-12);
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(100.0), 4.0);
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(SummaryStats::from_samples(&[1.0, 2.0, 3.0]).median(), 2.0);
        assert_eq!(
            SummaryStats::from_samples(&[1.0, 2.0, 3.0, 10.0]).median(),
            2.5
        );
    }

    #[test]
    fn percentiles_interpolate() {
        let s = SummaryStats::from_samples(&[0.0, 10.0]);
        assert_eq!(s.percentile(0.0), 0.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert!((s.percentile(25.0) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn single_sample() {
        let s = SummaryStats::from_samples(&[7.0]);
        assert_eq!(s.median(), 7.0);
        assert_eq!(s.percentile(99.0), 7.0);
        assert_eq!(s.std(), 0.0);
    }

    #[test]
    fn geomean_of_ratios() {
        let s = SummaryStats::from_samples(&[2.0, 0.5]);
        assert!((s.geomean() - 1.0).abs() < 1e-12);
        let s = SummaryStats::from_samples(&[4.0, 1.0]);
        assert!((s.geomean() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_rejected() {
        let _ = SummaryStats::from_samples(&[]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn nan_rejected() {
        let _ = SummaryStats::from_samples(&[1.0, f64::NAN]);
    }

    #[test]
    #[should_panic(expected = "positive samples")]
    fn geomean_rejects_zero() {
        let _ = SummaryStats::from_samples(&[0.0, 1.0]).geomean();
    }

    #[test]
    fn bounds_and_ordering() {
        prop::check(
            "bounds_and_ordering",
            prop::Config::default(),
            vec_of(-1e6f64..1e6, 1..200),
            |samples| {
                let s = SummaryStats::from_samples(&samples);
                let (min, max) = (s.percentile(0.0), s.percentile(100.0));
                assert!(min <= s.median());
                assert!(s.median() <= max);
                assert!(min <= s.mean() && s.mean() <= max);
                assert!(s.std() >= 0.0);
                assert!(s.percentile(10.0) <= s.percentile(90.0));
            },
        );
    }

    #[test]
    fn geomean_leq_mean() {
        prop::check(
            "geomean_leq_mean",
            prop::Config::default(),
            vec_of(1e-3f64..1e6, 1..100),
            |samples| {
                // AM-GM inequality.
                let s = SummaryStats::from_samples(&samples);
                assert!(s.geomean() <= s.mean() * (1.0 + 1e-9));
            },
        );
    }
}
