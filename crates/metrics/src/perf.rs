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
}
