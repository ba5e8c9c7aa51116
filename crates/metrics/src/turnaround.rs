//! Turnaround-time tracking (Figs. 7–8).

use penelope_units::SimDuration;

/// Collects the time deciders spend waiting for responses to power
/// requests.
///
/// "For SLURM this is the server's average response time. For Penelope this
/// is the average time needed to complete a transaction in the system"
/// (§4.5). The figures plot only that mean, so each completed request adds
/// to a running sum and count; requests that never get a response (dropped
/// packets) are counted separately — they are what drive SLURM off a
/// cliff, so losing them silently would hide the effect.
#[derive(Clone, Debug, Default)]
pub struct TurnaroundStats {
    /// Sum of every completed round trip, in ns: `u128` cannot overflow
    /// before `count` does.
    sum_ns: u128,
    count: u64,
    unanswered: u64,
}

impl TurnaroundStats {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed request↔response round trip.
    pub(crate) fn record(&mut self, turnaround: SimDuration) {
        self.sum_ns += u128::from(turnaround.as_nanos());
        self.count += 1;
    }

    /// Record a request that never received a response.
    pub(crate) fn record_unanswered(&mut self) {
        self.unanswered += 1;
    }

    /// Completed round trips.
    pub fn count(&self) -> usize {
        self.count as usize
    }

    /// Requests that never got a response.
    pub fn unanswered(&self) -> u64 {
        self.unanswered
    }

    /// Fraction of all requests that went unanswered.
    pub fn unanswered_fraction(&self) -> f64 {
        let total = self.count + self.unanswered;
        if total == 0 {
            0.0
        } else {
            self.unanswered as f64 / total as f64
        }
    }

    /// Mean turnaround, truncated to the nanosecond. `None` with no
    /// completed round trips.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.count == 0 {
            return None;
        }
        Some(SimDuration::from_nanos(
            (self.sum_ns / u128::from(self.count)) as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop::{self, any_u64, vec_of};

    fn us(x: u64) -> SimDuration {
        SimDuration::from_micros(x)
    }

    #[test]
    fn mean_of_samples() {
        let mut t = TurnaroundStats::new();
        t.record(us(100));
        t.record(us(300));
        assert_eq!(t.mean(), Some(us(200)));
        assert_eq!(t.count(), 2);
    }

    #[test]
    fn empty_has_no_mean() {
        assert_eq!(TurnaroundStats::new().mean(), None);
        assert_eq!(TurnaroundStats::new().unanswered_fraction(), 0.0);
    }

    #[test]
    fn unanswered_tracked_separately() {
        let mut t = TurnaroundStats::new();
        t.record(us(100));
        t.record_unanswered();
        t.record_unanswered();
        assert_eq!(t.unanswered(), 2);
        assert!((t.unanswered_fraction() - 2.0 / 3.0).abs() < 1e-12);
        // Mean is over completed requests only.
        assert_eq!(t.mean(), Some(us(100)));
    }

    #[test]
    fn the_running_mean_is_the_mean_of_the_kept_samples() {
        // Samples up to `u64::MAX` ns: a `u64` sum would overflow on the
        // second one, the `u128` one must not.
        prop::check(
            "the running mean is the u128 mean of a sample vector",
            prop::Config::default(),
            vec_of(any_u64(), 0..64),
            |samples| {
                let mut t = TurnaroundStats::new();
                for &ns in &samples {
                    t.record(SimDuration::from_nanos(ns));
                }
                let sum: u128 = samples.iter().map(|&ns| u128::from(ns)).sum();
                let want = (!samples.is_empty())
                    .then(|| SimDuration::from_nanos((sum / samples.len() as u128) as u64));
                assert_eq!(t.mean(), want);
                assert_eq!(t.count(), samples.len());
            },
        );
    }
}
