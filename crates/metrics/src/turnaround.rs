//! Turnaround-time tracking (Figs. 7–8).

use penelope_units::SimDuration;

/// Collects the time deciders spend waiting for responses to power
/// requests.
///
/// "For SLURM this is the server's average response time. For Penelope this
/// is the average time needed to complete a transaction in the system"
/// (§4.5). One sample per completed request; requests that never get a
/// response (dropped packets) are counted separately — they are what drive
/// SLURM off a cliff, so losing them silently would hide the effect.
#[derive(Clone, Debug, Default)]
pub struct TurnaroundStats {
    samples_ns: Vec<u64>,
    unanswered: u64,
}

impl TurnaroundStats {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a completed request↔response round trip.
    pub(crate) fn record(&mut self, turnaround: SimDuration) {
        self.samples_ns.push(turnaround.as_nanos());
    }

    /// Record a request that never received a response.
    pub(crate) fn record_unanswered(&mut self) {
        self.unanswered += 1;
    }

    /// Completed round trips.
    pub fn count(&self) -> usize {
        self.samples_ns.len()
    }

    /// Requests that never got a response.
    pub fn unanswered(&self) -> u64 {
        self.unanswered
    }

    /// Fraction of all requests that went unanswered.
    pub fn unanswered_fraction(&self) -> f64 {
        let total = self.samples_ns.len() as u64 + self.unanswered;
        if total == 0 {
            0.0
        } else {
            self.unanswered as f64 / total as f64
        }
    }

    /// Mean turnaround. `None` with no completed samples.
    pub fn mean(&self) -> Option<SimDuration> {
        if self.samples_ns.is_empty() {
            return None;
        }
        let sum: u128 = self.samples_ns.iter().map(|&x| x as u128).sum();
        Some(SimDuration::from_nanos(
            (sum / self.samples_ns.len() as u128) as u64,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
