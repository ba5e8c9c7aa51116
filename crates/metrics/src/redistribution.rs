//! Power-redistribution-time tracking (Figs. 4–6).

use penelope_units::{Power, SimDuration, SimTime};

/// Tracks how quickly a known amount of excess power reaches power-hungry
/// nodes.
///
/// The scale scenario (§4.5) releases a burst of excess when half the
/// cluster's application completes; the *power redistribution time* is "the
/// time necessary for some percentage of excess power to be redistributed
/// to power-hungry nodes" — 50 % for the median plots (Figs. 4, 6), 100 %
/// for the total plot (Fig. 5). The tracker is fed every grant that lands
/// on a hungry node and answers `time_to_fraction` queries afterwards.
#[derive(Clone, Debug)]
pub struct RedistributionTracker {
    total: Power,
    start: SimTime,
    shifted: Power,
    /// `(time, cumulative shifted)` at each grant, non-decreasing in both.
    timeline: Vec<(SimTime, Power)>,
}

impl RedistributionTracker {
    /// Start tracking `total` watts of excess released at `start`.
    pub fn new(total: Power, start: SimTime) -> Self {
        assert!(!total.is_zero(), "nothing to redistribute");
        RedistributionTracker {
            total,
            start,
            shifted: Power::ZERO,
            timeline: Vec::new(),
        }
    }

    /// Record `amount` of the tracked excess landing on a hungry node at
    /// `at`. Amounts beyond the tracked total are clipped (power can churn
    /// back and forth; only first-arrival counts toward redistribution).
    pub fn record(&mut self, at: SimTime, amount: Power) {
        if amount.is_zero() || self.shifted >= self.total {
            return;
        }
        let credited = amount.min(self.total - self.shifted);
        self.shifted += credited;
        self.timeline.push((at, self.shifted));
    }

    /// Power shifted so far.
    pub fn shifted(&self) -> Power {
        self.shifted
    }

    /// Fraction of the excess redistributed so far.
    pub fn fraction_shifted(&self) -> f64 {
        self.shifted.ratio(self.total).unwrap_or(0.0).min(1.0)
    }

    /// Time (since `start`) at which the cumulative shifted power first
    /// reached `fraction` of the total; `None` if it never did.
    pub(crate) fn time_to_fraction(&self, fraction: f64) -> Option<SimDuration> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction out of range: {fraction}"
        );
        let target = self.total.mul_f64(fraction);
        self.timeline
            .iter()
            .find(|&&(_, cum)| cum >= target)
            .map(|&(at, _)| at.saturating_since(self.start))
    }

    /// Convenience: the median (50 %) redistribution time.
    pub fn median_time(&self) -> Option<SimDuration> {
        self.time_to_fraction(0.5)
    }

    /// Convenience: the total (100 %) redistribution time.
    pub fn total_time(&self) -> Option<SimDuration> {
        self.time_to_fraction(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn fraction_thresholds() {
        let mut tr = RedistributionTracker::new(w(100), t(10));
        tr.record(t(11), w(30));
        tr.record(t(12), w(30));
        tr.record(t(15), w(40));
        assert_eq!(tr.time_to_fraction(0.25), Some(SimDuration::from_secs(1)));
        assert_eq!(tr.median_time(), Some(SimDuration::from_secs(2)));
        assert_eq!(tr.total_time(), Some(SimDuration::from_secs(5)));
        assert_eq!(tr.fraction_shifted(), 1.0);
    }

    #[test]
    fn incomplete_redistribution_returns_none() {
        let mut tr = RedistributionTracker::new(w(100), t(0));
        tr.record(t(1), w(49));
        assert_eq!(tr.median_time(), None);
        assert_eq!(tr.total_time(), None);
        assert!((tr.fraction_shifted() - 0.49).abs() < 1e-12);
    }

    #[test]
    fn exact_threshold_counts() {
        let mut tr = RedistributionTracker::new(w(100), t(0));
        tr.record(t(3), w(50));
        assert_eq!(tr.median_time(), Some(SimDuration::from_secs(3)));
    }

    #[test]
    fn overshoot_clipped() {
        let mut tr = RedistributionTracker::new(w(100), t(0));
        tr.record(t(1), w(250));
        assert_eq!(tr.shifted(), w(100));
        assert_eq!(tr.total_time(), Some(SimDuration::from_secs(1)));
        // Further grants are ignored.
        tr.record(t(2), w(50));
        assert_eq!(tr.shifted(), w(100));
    }

    #[test]
    fn zero_amount_ignored() {
        let mut tr = RedistributionTracker::new(w(100), t(0));
        tr.record(t(1), Power::ZERO);
        assert_eq!(tr.fraction_shifted(), 0.0);
        assert_eq!(tr.time_to_fraction(0.0), None); // no events at all
    }

    #[test]
    fn zero_fraction_satisfied_by_first_event() {
        let mut tr = RedistributionTracker::new(w(100), t(0));
        tr.record(t(4), w(1));
        assert_eq!(tr.time_to_fraction(0.0), Some(SimDuration::from_secs(4)));
    }

    #[test]
    #[should_panic(expected = "nothing to redistribute")]
    fn zero_total_rejected() {
        let _ = RedistributionTracker::new(Power::ZERO, t(0));
    }

    #[test]
    #[should_panic(expected = "fraction out of range")]
    fn bad_fraction_rejected() {
        let tr = RedistributionTracker::new(w(1), t(0));
        let _ = tr.time_to_fraction(1.5);
    }
}
