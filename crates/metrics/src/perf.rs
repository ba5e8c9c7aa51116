//! Application-performance accounting (Figs. 2–3).

use crate::stats::SummaryStats;

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
    fn geomean_aggregation() {
        assert!((geometric_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
