//! Virtual time for the discrete-event simulator.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Mul, Sub, SubAssign};

/// An instant on the simulator's virtual clock, in nanoseconds since the
/// start of the simulation.
///
/// `u64` nanoseconds cover ~584 years of virtual time, far beyond any
/// experiment in the paper (the longest runs are tens of minutes).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinite" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since simulation start, as `f64` (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The duration from `earlier` to `self`; zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Construct from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Construct from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Construct from fractional seconds, rounding to the nearest nanosecond.
    /// Negative and non-finite inputs map to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = (s * 1e9).round();
        if ns >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(ns as u64)
        }
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Fractional seconds (for reporting).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds (for reporting).
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional microseconds (for reporting).
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True iff zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative factor, rounding to the nearest nanosecond.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> SimDuration {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop::{self, any_u64};

    #[test]
    fn constructors_agree() {
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
        assert_eq!(SimDuration::from_millis(1), SimDuration::from_micros(1000));
        assert_eq!(SimDuration::from_micros(1), SimDuration::from_nanos(1000));
        assert_eq!(SimTime::from_secs(2), SimTime::from_nanos(2_000_000_000));
    }

    #[test]
    fn from_secs_f64_edge_cases() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs_f64(0.5),
            SimDuration::from_millis(500)
        );
        // Non-finite inputs are uniformly rejected, including +inf.
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn time_advances_by_duration() {
        let t = SimTime::from_secs(10);
        let t2 = t + SimDuration::from_millis(250);
        assert_eq!(t2.as_nanos(), 10_250_000_000);
        assert_eq!(t2 - t, SimDuration::from_millis(250));
    }

    #[test]
    fn saturating_since_is_total() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(5);
        assert_eq!(b.saturating_since(a), SimDuration::from_secs(4));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn duration_reporting_units() {
        let d = SimDuration::from_micros(85);
        assert!((d.as_micros_f64() - 85.0).abs() < 1e-9);
        assert!((d.as_millis_f64() - 0.085).abs() < 1e-9);
        assert!((d.as_secs_f64() - 0.000085).abs() < 1e-12);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
        assert_eq!(SimDuration::from_millis(25).to_string(), "25.000ms");
        assert_eq!(SimDuration::from_micros(85).to_string(), "85.000us");
        assert_eq!(SimDuration::from_nanos(12).to_string(), "12ns");
    }

    #[test]
    fn period_from_frequency() {
        // A 20 Hz decider iterates every 50 ms.
        let period = SimDuration::from_secs_f64(1.0 / 20.0);
        assert_eq!(period, SimDuration::from_millis(50));
    }

    #[test]
    fn duration_scaling() {
        let d = SimDuration::from_millis(100);
        assert_eq!(d * 3, SimDuration::from_millis(300));
        assert_eq!(d.mul_f64(0.5), SimDuration::from_millis(50));
    }

    #[test]
    fn duration_sum() {
        let total: SimDuration = (1..=4).map(SimDuration::from_secs).sum();
        assert_eq!(total, SimDuration::from_secs(10));
    }

    #[test]
    fn add_then_sub_roundtrips() {
        prop::check(
            "add_then_sub_roundtrips",
            prop::Config::default(),
            (0u64..u64::MAX / 2, 0u64..u64::MAX / 4),
            |(base, d)| {
                let t = SimTime::from_nanos(base);
                let dur = SimDuration::from_nanos(d);
                assert_eq!((t + dur) - dur, t);
                assert_eq!((t + dur) - t, dur);
            },
        );
    }

    #[test]
    fn secs_f64_roundtrip_close() {
        prop::check(
            "secs_f64_roundtrip_close",
            prop::Config::default(),
            0u64..1_000_000_000_000_000u64,
            |ns| {
                let d = SimDuration::from_nanos(ns);
                let back = SimDuration::from_secs_f64(d.as_secs_f64());
                // f64 has 52 mantissa bits; within this range the roundtrip
                // is accurate to a few hundred ns.
                assert!(back.as_nanos().abs_diff(ns) <= 256);
            },
        );
    }

    #[test]
    fn ordering_matches_nanos() {
        prop::check(
            "ordering_matches_nanos",
            prop::Config::default(),
            (any_u64(), any_u64()),
            |(a, b)| {
                assert_eq!(SimTime::from_nanos(a) <= SimTime::from_nanos(b), a <= b);
            },
        );
    }
}
