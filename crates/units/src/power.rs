//! Fixed-point power values.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative amount of electrical power, stored as integer milliwatts.
///
/// Powercap transactions in Penelope are zero-sum exchanges; storing power as
/// an integer makes "zero-sum" an exact property rather than a floating-point
/// approximation, which in turn lets the simulator assert conservation of the
/// total budget as an equality after every event.
///
/// Arithmetic panics on overflow in debug builds (like ordinary integer
/// arithmetic); the explicitly-checked and saturating variants are provided
/// for protocol code that must be total.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Power(u64);

impl Power {
    /// Zero power.
    pub const ZERO: Power = Power(0);
    /// The largest representable power value.
    pub const MAX: Power = Power(u64::MAX);

    /// Construct from integer milliwatts.
    #[inline]
    pub const fn from_milliwatts(mw: u64) -> Self {
        Power(mw)
    }

    /// Construct from integer watts.
    #[inline]
    pub const fn from_watts_u64(w: u64) -> Self {
        Power(w * 1000)
    }

    /// Construct from fractional watts, rounding to the nearest milliwatt.
    ///
    /// Negative and non-finite inputs map to zero: power is a non-negative
    /// resource in every Penelope API.
    #[inline]
    pub fn from_watts(w: f64) -> Self {
        if !w.is_finite() || w <= 0.0 {
            return Power::ZERO;
        }
        let mw = (w * 1000.0).round();
        if mw >= u64::MAX as f64 {
            Power::MAX
        } else {
            Power(mw as u64)
        }
    }

    /// The raw milliwatt count.
    #[inline]
    pub const fn milliwatts(self) -> u64 {
        self.0
    }

    /// The value in watts, for reporting.
    #[inline]
    pub fn as_watts(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// True iff this is exactly zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Checked subtraction; `None` if `rhs > self`.
    #[inline]
    pub fn checked_sub(self, rhs: Power) -> Option<Power> {
        self.0.checked_sub(rhs.0).map(Power)
    }

    /// Subtraction clamped at zero.
    #[inline]
    pub fn saturating_sub(self, rhs: Power) -> Power {
        Power(self.0.saturating_sub(rhs.0))
    }

    /// Addition clamped at `Power::MAX`.
    #[inline]
    pub fn saturating_add(self, rhs: Power) -> Power {
        Power(self.0.saturating_add(rhs.0))
    }

    /// Multiply by a non-negative scalar, rounding to the nearest milliwatt.
    ///
    /// Used by the power pool's proportional transaction limiter (10 % of the
    /// pool, Algorithm 2). Negative and non-finite factors map to zero.
    #[inline]
    pub fn mul_f64(self, factor: f64) -> Power {
        if !factor.is_finite() || factor <= 0.0 {
            return Power::ZERO;
        }
        let v = self.0 as f64 * factor;
        if v >= u64::MAX as f64 {
            Power::MAX
        } else {
            Power(v.round() as u64)
        }
    }

    /// Integer division of this power into `n` equal shares (floor).
    ///
    /// The remainder is returned so callers can keep the split exactly
    /// zero-sum (e.g. the Fair allocator gives the remainder to the first
    /// `r` nodes one milliwatt each, or withholds it).
    #[inline]
    pub fn split(self, n: u64) -> (Power, Power) {
        assert!(n > 0, "cannot split power into zero shares");
        (Power(self.0 / n), Power(self.0 % n))
    }

    /// The smaller of two power values.
    #[inline]
    pub fn min(self, other: Power) -> Power {
        Power(self.0.min(other.0))
    }

    /// The larger of two power values.
    #[inline]
    pub fn max(self, other: Power) -> Power {
        Power(self.0.max(other.0))
    }

    /// Clamp into `[lo, hi]`. Panics if `lo > hi`.
    #[inline]
    pub fn clamp(self, lo: Power, hi: Power) -> Power {
        assert!(lo <= hi, "invalid clamp range");
        Power(self.0.clamp(lo.0, hi.0))
    }

    /// The ratio `self / other` as `f64`; `None` when `other` is zero.
    #[inline]
    pub fn ratio(self, other: Power) -> Option<f64> {
        if other.is_zero() {
            None
        } else {
            Some(self.0 as f64 / other.0 as f64)
        }
    }
}

impl Add for Power {
    type Output = Power;
    #[inline]
    fn add(self, rhs: Power) -> Power {
        Power(self.0 + rhs.0)
    }
}

impl AddAssign for Power {
    #[inline]
    fn add_assign(&mut self, rhs: Power) {
        self.0 += rhs.0;
    }
}

impl Sub for Power {
    type Output = Power;
    #[inline]
    fn sub(self, rhs: Power) -> Power {
        Power(self.0 - rhs.0)
    }
}

impl SubAssign for Power {
    #[inline]
    fn sub_assign(&mut self, rhs: Power) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Power {
    type Output = Power;
    #[inline]
    fn mul(self, rhs: u64) -> Power {
        Power(self.0 * rhs)
    }
}

impl Div<u64> for Power {
    type Output = Power;
    #[inline]
    fn div(self, rhs: u64) -> Power {
        Power(self.0 / rhs)
    }
}

impl Sum for Power {
    fn sum<I: Iterator<Item = Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, |acc, p| acc + p)
    }
}

impl<'a> Sum<&'a Power> for Power {
    fn sum<I: Iterator<Item = &'a Power>>(iter: I) -> Power {
        iter.fold(Power::ZERO, |acc, p| acc + *p)
    }
}

impl fmt::Debug for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}mW", self.0)
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1000) {
            write!(f, "{}W", self.0 / 1000)
        } else {
            write!(f, "{:.3}W", self.as_watts())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop::{self, any_u64};

    #[test]
    fn watt_constructors_agree() {
        assert_eq!(Power::from_watts_u64(120), Power::from_milliwatts(120_000));
        assert_eq!(Power::from_watts(120.0), Power::from_watts_u64(120));
        assert_eq!(Power::from_watts(0.001), Power::from_milliwatts(1));
    }

    #[test]
    fn from_watts_rejects_garbage() {
        assert_eq!(Power::from_watts(-5.0), Power::ZERO);
        assert_eq!(Power::from_watts(f64::NAN), Power::ZERO);
        assert_eq!(Power::from_watts(f64::NEG_INFINITY), Power::ZERO);
        // Non-finite inputs are uniformly rejected, including +inf.
        assert_eq!(Power::from_watts(f64::INFINITY), Power::ZERO);
    }

    #[test]
    fn as_watts_roundtrip() {
        let p = Power::from_milliwatts(123_456);
        assert!((p.as_watts() - 123.456).abs() < 1e-9);
    }

    #[test]
    fn zero_identities() {
        let p = Power::from_watts_u64(50);
        assert_eq!(p + Power::ZERO, p);
        assert_eq!(p - Power::ZERO, p);
        assert!(Power::ZERO.is_zero());
        assert!(!p.is_zero());
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Power::from_watts_u64(10);
        let b = Power::from_watts_u64(30);
        assert_eq!(a.saturating_sub(b), Power::ZERO);
        assert_eq!(b.saturating_sub(a), Power::from_watts_u64(20));
    }

    #[test]
    fn checked_sub_none_on_underflow() {
        let a = Power::from_watts_u64(10);
        let b = Power::from_watts_u64(30);
        assert_eq!(a.checked_sub(b), None);
        assert_eq!(b.checked_sub(a), Some(Power::from_watts_u64(20)));
    }

    #[test]
    fn mul_f64_ten_percent() {
        // The Algorithm 2 limiter: 10% of a 200 W pool is 20 W.
        let pool = Power::from_watts_u64(200);
        assert_eq!(pool.mul_f64(0.10), Power::from_watts_u64(20));
    }

    #[test]
    fn mul_f64_rounds_to_nearest() {
        let p = Power::from_milliwatts(15);
        assert_eq!(p.mul_f64(0.1), Power::from_milliwatts(2)); // 1.5 -> 2
        assert_eq!(p.mul_f64(f64::NAN), Power::ZERO);
        assert_eq!(p.mul_f64(-1.0), Power::ZERO);
    }

    #[test]
    fn split_is_exact() {
        let total = Power::from_milliwatts(1003);
        let (share, rem) = total.split(4);
        assert_eq!(share, Power::from_milliwatts(250));
        assert_eq!(rem, Power::from_milliwatts(3));
        assert_eq!(share * 4 + rem, total);
    }

    #[test]
    #[should_panic(expected = "zero shares")]
    fn split_zero_panics() {
        let _ = Power::from_watts_u64(10).split(0);
    }

    #[test]
    fn ordering_follows_magnitude() {
        assert!(Power::from_watts_u64(60) < Power::from_watts_u64(100));
        assert!(Power::from_milliwatts(999) < Power::from_watts_u64(1));
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            Power::from_watts_u64(1),
            Power::from_watts_u64(2),
            Power::from_watts_u64(3),
        ];
        let total: Power = parts.iter().sum();
        assert_eq!(total, Power::from_watts_u64(6));
        let total2: Power = parts.into_iter().sum();
        assert_eq!(total2, Power::from_watts_u64(6));
    }

    #[test]
    fn display_formats() {
        assert_eq!(Power::from_watts_u64(30).to_string(), "30W");
        assert_eq!(Power::from_milliwatts(1500).to_string(), "1.500W");
        assert_eq!(format!("{:?}", Power::from_milliwatts(42)), "42mW");
    }

    #[test]
    fn ratio_of_zero_denominator_is_none() {
        assert_eq!(Power::from_watts_u64(5).ratio(Power::ZERO), None);
        let r = Power::from_watts_u64(5)
            .ratio(Power::from_watts_u64(10))
            .unwrap();
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn clamp_and_minmax() {
        let lo = Power::from_watts_u64(40);
        let hi = Power::from_watts_u64(120);
        assert_eq!(Power::from_watts_u64(10).clamp(lo, hi), lo);
        assert_eq!(Power::from_watts_u64(200).clamp(lo, hi), hi);
        assert_eq!(
            Power::from_watts_u64(80).clamp(lo, hi),
            Power::from_watts_u64(80)
        );
        assert_eq!(lo.min(hi), lo);
        assert_eq!(lo.max(hi), hi);
    }

    #[test]
    fn transfer_is_zero_sum() {
        let mw = 0u64..1_000_000_000;
        prop::check(
            "transfer_is_zero_sum",
            prop::Config::default(),
            (mw.clone(), mw.clone(), mw),
            |(a, b, amt)| {
                // Moving `amt` (clamped to what the donor has) between two
                // holdings never changes the total: the core property every
                // Penelope transaction relies on.
                let mut donor = Power::from_milliwatts(a);
                let mut recipient = Power::from_milliwatts(b);
                let before = donor + recipient;
                let moved = donor.min(Power::from_milliwatts(amt));
                donor -= moved;
                recipient += moved;
                assert_eq!(donor + recipient, before);
            },
        );
    }

    #[test]
    fn split_recombines() {
        prop::check(
            "split_recombines",
            prop::Config::default(),
            (0u64..u64::MAX / 2, 1u64..10_000),
            |(total, n)| {
                let p = Power::from_milliwatts(total);
                let (share, rem) = p.split(n);
                assert_eq!(share * n + rem, p);
                assert!(rem < Power::from_milliwatts(n));
            },
        );
    }

    #[test]
    fn saturating_sub_never_underflows() {
        prop::check(
            "saturating_sub_never_underflows",
            prop::Config::default(),
            (any_u64(), any_u64()),
            |(a, b)| {
                let r = Power::from_milliwatts(a).saturating_sub(Power::from_milliwatts(b));
                assert!(r.milliwatts() <= a);
            },
        );
    }

    #[test]
    fn watts_roundtrip_within_half_milliwatt() {
        prop::check(
            "watts_roundtrip_within_half_milliwatt",
            prop::Config::default(),
            0u64..1_000_000_000_000,
            |mw| {
                let p = Power::from_milliwatts(mw);
                let back = Power::from_watts(p.as_watts());
                assert!(back.0.abs_diff(p.0) <= 1);
            },
        );
    }

    #[test]
    fn mul_f64_monotone_in_factor() {
        prop::check(
            "mul_f64_monotone_in_factor",
            prop::Config::default(),
            (0u64..1_000_000_000, 0.0f64..1.0, 0.0f64..1.0),
            |(mw, f1, f2)| {
                let p = Power::from_milliwatts(mw);
                let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
                assert!(p.mul_f64(lo) <= p.mul_f64(hi));
            },
        );
    }
}
