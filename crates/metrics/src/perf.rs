//! Application-performance accounting (Figs. 2–3).

use crate::stats::SummaryStats;

/// Normalized performance of a system against the *Fair* baseline for one
/// experiment: performance is `1/runtime` (§4.1), so the ratio is
/// `runtime_fair / runtime_system`. Values above 1 mean the system beat
/// Fair.
pub fn normalized_performance(runtime_system_secs: f64, runtime_fair_secs: f64) -> f64 {
    assert!(
        runtime_system_secs > 0.0 && runtime_fair_secs > 0.0,
        "runtimes must be positive"
    );
    runtime_fair_secs / runtime_system_secs
}

/// Geometric mean of a set of normalized performances — how the paper
/// aggregates across application pairs ("we plot the geometric mean ...
/// across all pairs of applications", §4.1).
pub fn geometric_mean(values: &[f64]) -> f64 {
    SummaryStats::from_samples(values).geomean()
}

/// Normalized performance of one system across many application pairs at
/// one initial powercap setting.
#[derive(Clone, Debug)]
pub struct PerfSummary {
    /// Label of the power-management system (e.g. `"Penelope"`).
    pub system: String,
    /// Per-pair normalized performance, in pair order.
    pub per_pair: Vec<f64>,
}

impl PerfSummary {
    /// Build a summary. Panics if `per_pair` is empty.
    pub fn new(system: impl Into<String>, per_pair: Vec<f64>) -> Self {
        assert!(!per_pair.is_empty(), "no pairs");
        PerfSummary {
            system: system.into(),
            per_pair,
        }
    }

    /// The geometric-mean normalized performance.
    pub fn geomean(&self) -> f64 {
        geometric_mean(&self.per_pair)
    }

    /// The worst pair.
    pub fn min(&self) -> f64 {
        self.per_pair.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The best pair.
    pub fn max(&self) -> f64 {
        self.per_pair
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_direction() {
        // System finished in 80 s where Fair took 100 s → 1.25× Fair.
        assert!((normalized_performance(80.0, 100.0) - 1.25).abs() < 1e-12);
        // Slower than Fair → below 1.
        assert!(normalized_performance(125.0, 100.0) < 1.0);
        // Fair against itself is exactly 1.
        assert_eq!(normalized_performance(100.0, 100.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_runtime_rejected() {
        let _ = normalized_performance(0.0, 10.0);
    }

    #[test]
    fn geomean_aggregation() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn summary_accessors() {
        let s = PerfSummary::new("Penelope", vec![1.1, 0.9, 1.3]);
        assert_eq!(s.system, "Penelope");
        assert!((s.min() - 0.9).abs() < 1e-12);
        assert!((s.max() - 1.3).abs() < 1e-12);
        let g = s.geomean();
        assert!(g > 0.9 && g < 1.3);
    }

    #[test]
    #[should_panic(expected = "no pairs")]
    fn empty_summary_rejected() {
        let _ = PerfSummary::new("X", vec![]);
    }
}
