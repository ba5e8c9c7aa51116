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
/// on a hungry node and stamps the instants at which the cumulative amount
/// first reached half of the total and all of it; those two stamps are all
/// it keeps.
#[derive(Clone, Debug)]
pub struct RedistributionTracker {
    total: Power,
    start: SimTime,
    shifted: Power,
    /// The first grant at which `shifted` reached half of `total`.
    half_at: Option<SimTime>,
    /// The first grant at which `shifted` reached `total`.
    full_at: Option<SimTime>,
}

impl RedistributionTracker {
    /// Start tracking `total` watts of excess released at `start`.
    pub fn new(total: Power, start: SimTime) -> Self {
        assert!(!total.is_zero(), "nothing to redistribute");
        RedistributionTracker {
            total,
            start,
            shifted: Power::ZERO,
            half_at: None,
            full_at: None,
        }
    }

    /// Record `amount` of the tracked excess landing on a hungry node at
    /// `at`. Amounts beyond the tracked total are clipped (power can churn
    /// back and forth; only first-arrival counts toward redistribution).
    pub(crate) fn record(&mut self, at: SimTime, amount: Power) {
        if amount.is_zero() || self.shifted >= self.total {
            return;
        }
        let credited = amount.min(self.total - self.shifted);
        self.shifted += credited;
        if self.half_at.is_none() && self.shifted >= self.total.mul_f64(0.5) {
            self.half_at = Some(at);
        }
        if self.shifted >= self.total {
            self.full_at = Some(at);
        }
    }

    /// Power shifted so far.
    pub fn shifted(&self) -> Power {
        self.shifted
    }

    /// True once the whole tracked total has been redistributed: an
    /// integer compare, for the simulator's per-event stop check.
    pub fn complete(&self) -> bool {
        !self.total.is_zero() && self.shifted >= self.total
    }

    /// Fraction of the excess redistributed so far.
    pub fn fraction_shifted(&self) -> f64 {
        self.shifted.ratio(self.total).unwrap_or(0.0).min(1.0)
    }

    /// The median (50 %) redistribution time: from `start` to the grant
    /// that first brought the shifted power to half of the total; `None`
    /// if none did.
    pub fn median_time(&self) -> Option<SimDuration> {
        self.half_at.map(|at| at.saturating_since(self.start))
    }

    /// The total (100 %) redistribution time: from `start` to the grant
    /// that completed it; `None` if none did.
    pub fn total_time(&self) -> Option<SimDuration> {
        self.full_at.map(|at| at.saturating_since(self.start))
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
        assert_eq!(tr.median_time(), None);
    }

    #[test]
    fn a_zero_total_never_completes() {
        // `new` refuses a zero total; build one past it to pin the guard.
        let tr = RedistributionTracker {
            total: Power::ZERO,
            start: t(0),
            shifted: Power::ZERO,
            half_at: None,
            full_at: None,
        };
        assert!(!tr.complete());
    }

    #[test]
    fn one_milliwatt_short_is_not_complete() {
        let mut tr = RedistributionTracker::new(w(100), t(0));
        tr.record(t(1), w(100) - Power::from_milliwatts(1));
        assert!(!tr.complete());
        assert!(tr.fraction_shifted() < 1.0);
    }

    #[test]
    fn reaching_the_total_exactly_completes() {
        let mut tr = RedistributionTracker::new(w(100), t(0));
        tr.record(t(1), w(60));
        assert!(!tr.complete());
        tr.record(t(2), w(40));
        assert!(tr.complete());
        assert_eq!(tr.fraction_shifted(), 1.0);
    }

    #[test]
    fn a_clipped_over_grant_completes() {
        let mut tr = RedistributionTracker::new(w(100), t(0));
        tr.record(t(1), w(250));
        assert!(tr.complete());
        assert_eq!(tr.fraction_shifted(), 1.0);
    }

    #[test]
    #[should_panic(expected = "nothing to redistribute")]
    fn zero_total_rejected() {
        let _ = RedistributionTracker::new(Power::ZERO, t(0));
    }

    /// The reference: keep every grant's `(time, cumulative shifted)` and
    /// search for the first entry at or past `fraction` of the total.
    fn timeline_search(
        total: Power,
        start: SimTime,
        grants: &[(SimTime, Power)],
        fraction: f64,
    ) -> Option<SimDuration> {
        let mut shifted = Power::ZERO;
        let mut timeline = Vec::new();
        for &(at, amount) in grants {
            if amount.is_zero() || shifted >= total {
                continue;
            }
            shifted += amount.min(total - shifted);
            timeline.push((at, shifted));
        }
        let target = total.mul_f64(fraction);
        timeline
            .iter()
            .find(|&&(_, cum)| cum >= target)
            .map(|&(at, _)| at.saturating_since(start))
    }

    #[test]
    fn the_stamps_answer_as_the_timeline_search_did() {
        use penelope_testkit::prop::{self, one_of, vec_of};
        // Totals of up to 1 kW, half of them a multiple of 8 mW and the
        // rest off it (so the half target rounds), and grants of k/8 of the
        // total (floored), mostly in small steps so the cumulative amount
        // lands on either target exactly; zero amounts and single grants
        // past the total are drawn too.
        prop::check(
            "two stamps give the timeline search's median and total times",
            prop::Config::default(),
            (
                1u64..125_000,
                one_of(vec![0u64, 0, 0, 1, 4, 7]),
                0u64..5,
                vec_of((0u64..3, one_of(vec![0u64, 1, 1, 2, 2, 3, 4, 12])), 0..40),
            ),
            |(base, rem, start_s, grants)| {
                let total_mw = 8 * base + rem;
                let (total, start) = (Power::from_milliwatts(total_mw), t(start_s));
                let mut at = SimTime::ZERO;
                let grants: Vec<(SimTime, Power)> = grants
                    .iter()
                    .map(|&(gap, eighths)| {
                        at += SimDuration::from_secs(gap);
                        (at, Power::from_milliwatts(total_mw * eighths / 8))
                    })
                    .collect();
                let mut tr = RedistributionTracker::new(total, start);
                for &(at, amount) in &grants {
                    tr.record(at, amount);
                }
                let search = |f| timeline_search(total, start, &grants, f);
                assert_eq!(tr.median_time(), search(0.5));
                assert_eq!(tr.total_time(), search(1.0));
            },
        );
    }
}
