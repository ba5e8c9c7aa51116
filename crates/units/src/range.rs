//! Safe operating ranges for node powercaps.

use crate::Power;

/// A node's safe powercap range `[min, max]`.
///
/// The paper's second hard constraint (§2.1): every node-level powercap must
/// stay within a range that is safe for the processor. Deciders clamp all
/// cap changes into this range; any power that could not be applied because
/// of clamping is returned to the local pool so the budget stays conserved.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PowerRange {
    min: Power,
    max: Power,
}

impl PowerRange {
    /// Construct a range. Panics if `min > max`.
    pub fn new(min: Power, max: Power) -> Self {
        assert!(min <= max, "invalid PowerRange: min {min:?} > max {max:?}");
        PowerRange { min, max }
    }

    /// A range expressed in whole watts.
    pub fn from_watts(min_w: u64, max_w: u64) -> Self {
        Self::new(Power::from_watts_u64(min_w), Power::from_watts_u64(max_w))
    }

    /// The lowest safe cap.
    #[inline]
    pub const fn min(&self) -> Power {
        self.min
    }

    /// The highest safe cap.
    #[inline]
    pub const fn max(&self) -> Power {
        self.max
    }

    /// The width of the range.
    #[inline]
    pub fn span(&self) -> Power {
        self.max - self.min
    }

    /// True iff `p` lies within the range (inclusive).
    #[inline]
    pub fn contains(&self, p: Power) -> bool {
        self.min <= p && p <= self.max
    }

    /// Clamp `p` into the range.
    #[inline]
    pub fn clamp(&self, p: Power) -> Power {
        p.clamp(self.min, self.max)
    }

    /// How much headroom remains between `p` and the top of the range
    /// (zero if `p` is already at or above `max`).
    #[inline]
    pub fn headroom(&self, p: Power) -> Power {
        self.max.saturating_sub(p)
    }

    /// How far `p` sits above the bottom of the range
    /// (zero if `p` is at or below `min`).
    #[inline]
    pub fn slack(&self, p: Power) -> Power {
        p.saturating_sub(self.min)
    }
}

impl Default for PowerRange {
    /// The dual-socket Skylake range from the paper's testbed: RAPL accepts
    /// roughly 40–150 W per socket on Xeon Gold 6126, i.e. 80–300 W per node.
    fn default() -> Self {
        PowerRange::from_watts(80, 300)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contains_and_clamp() {
        let r = PowerRange::from_watts(80, 300);
        assert!(r.contains(Power::from_watts_u64(80)));
        assert!(r.contains(Power::from_watts_u64(300)));
        assert!(!r.contains(Power::from_watts_u64(79)));
        assert!(!r.contains(Power::from_watts_u64(301)));
        assert_eq!(
            r.clamp(Power::from_watts_u64(10)),
            Power::from_watts_u64(80)
        );
        assert_eq!(
            r.clamp(Power::from_watts_u64(999)),
            Power::from_watts_u64(300)
        );
        assert_eq!(
            r.clamp(Power::from_watts_u64(150)),
            Power::from_watts_u64(150)
        );
    }

    #[test]
    fn headroom_and_slack() {
        let r = PowerRange::from_watts(80, 300);
        assert_eq!(
            r.headroom(Power::from_watts_u64(250)),
            Power::from_watts_u64(50)
        );
        assert_eq!(r.headroom(Power::from_watts_u64(400)), Power::ZERO);
        assert_eq!(
            r.slack(Power::from_watts_u64(100)),
            Power::from_watts_u64(20)
        );
        assert_eq!(r.slack(Power::from_watts_u64(50)), Power::ZERO);
        assert_eq!(r.span(), Power::from_watts_u64(220));
    }

    #[test]
    #[should_panic(expected = "invalid PowerRange")]
    fn inverted_range_panics() {
        let _ = PowerRange::from_watts(300, 80);
    }

    #[test]
    fn degenerate_range_is_allowed() {
        let r = PowerRange::from_watts(100, 100);
        assert!(r.contains(Power::from_watts_u64(100)));
        assert_eq!(r.span(), Power::ZERO);
        assert_eq!(
            r.clamp(Power::from_watts_u64(120)),
            Power::from_watts_u64(100)
        );
    }

    #[test]
    fn default_matches_testbed() {
        let r = PowerRange::default();
        assert_eq!(r.min(), Power::from_watts_u64(80));
        assert_eq!(r.max(), Power::from_watts_u64(300));
    }
}
