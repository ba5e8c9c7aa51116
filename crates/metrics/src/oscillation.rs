//! Power-oscillation metrics (§3.2).
//!
//! The paper motivates the pool's transaction limiter with *power
//! oscillation*: grants that are too large make a node's cap swing up and
//! down period after period. This collector quantifies that from a node's
//! cap sequence: how often the cap's direction of travel reverses, and how
//! far it travelled up and down.

use penelope_units::Power;

/// Oscillation statistics over one node's powercap trajectory.
#[derive(Clone, Debug, Default)]
pub struct OscillationStats {
    last: Option<Power>,
    /// +1 rising, -1 falling, 0 unknown.
    direction: i8,
    reversals: u64,
    total_up: Power,
    total_down: Power,
    samples: u64,
}

impl OscillationStats {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed the cap after an iteration.
    pub(crate) fn record(&mut self, cap: Power) {
        self.samples += 1;
        if let Some(prev) = self.last {
            if cap > prev {
                self.total_up += cap - prev;
                if self.direction == -1 {
                    self.reversals += 1;
                }
                self.direction = 1;
            } else if cap < prev {
                self.total_down += prev - cap;
                if self.direction == 1 {
                    self.reversals += 1;
                }
                self.direction = -1;
            }
        }
        self.last = Some(cap);
    }

    /// Number of direction reversals (rise→fall or fall→rise).
    pub fn reversals(&self) -> u64 {
        self.reversals
    }

    /// Samples fed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Total upward cap movement.
    pub fn total_up(&self) -> Power {
        self.total_up
    }

    /// Total downward cap movement.
    pub fn total_down(&self) -> Power {
        self.total_down
    }

    /// Reversals per recorded sample — comparable across runs of different
    /// length. Zero with fewer than two samples.
    pub fn reversal_rate(&self) -> f64 {
        if self.samples < 2 {
            0.0
        } else {
            self.reversals as f64 / (self.samples - 1) as f64
        }
    }

    /// Merge another collector (per-node collectors into a cluster figure;
    /// reversal counts and travel add, trajectory continuity is per-node so
    /// the merged `last`/`direction` are dropped).
    pub(crate) fn merge(&mut self, other: &OscillationStats) {
        self.reversals += other.reversals;
        self.total_up += other.total_up;
        self.total_down += other.total_down;
        self.samples += other.samples;
        self.last = None;
        self.direction = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn feed(vals: &[u64]) -> OscillationStats {
        let mut o = OscillationStats::new();
        for &v in vals {
            o.record(w(v));
        }
        o
    }

    #[test]
    fn monotone_has_no_reversals() {
        let o = feed(&[100, 110, 120, 150]);
        assert_eq!(o.reversals(), 0);
        assert_eq!(o.total_up(), w(50));
        assert_eq!(o.total_down(), Power::ZERO);
    }

    #[test]
    fn sawtooth_counts_each_turn() {
        let o = feed(&[100, 130, 100, 130, 100]);
        assert_eq!(o.reversals(), 3);
        assert_eq!(o.total_up() + o.total_down(), w(120));
        assert!((o.reversal_rate() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn plateaus_do_not_reverse() {
        let o = feed(&[100, 120, 120, 120, 140]);
        assert_eq!(o.reversals(), 0);
        assert_eq!(o.total_up(), w(40));
    }

    #[test]
    fn plateau_preserves_direction_memory() {
        // Rise, flat, fall: one reversal — the fall reverses the earlier
        // rise even across the plateau.
        let o = feed(&[100, 120, 120, 110]);
        assert_eq!(o.reversals(), 1);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = feed(&[100, 120, 110]);
        let b = feed(&[200, 180, 190]);
        a.merge(&b);
        assert_eq!(a.reversals(), 2);
        assert_eq!(a.samples(), 6);
        assert_eq!(a.total_up() + a.total_down(), w(30 + 30));
    }

    #[test]
    fn empty_collector_is_neutral() {
        let o = OscillationStats::new();
        assert_eq!(o.reversals(), 0);
        assert_eq!(o.reversal_rate(), 0.0);
    }
}
