//! Energy accounting (power integrated over virtual time).

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Sub};

use crate::{Power, SimDuration};

/// An amount of energy, stored as integer nanojoules in a `u128`.
///
/// `Power (mW) × SimDuration (ns)` yields picojoules; we divide by 1000 and
/// keep nanojoules, which still resolves a 1 mW load over 1 µs. A `u128`
/// of nanojoules covers ~10²² J — enough for any cluster-lifetime
/// integration (an exascale 30 MW system for a century is ~10¹⁷ J).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Energy(u128);

impl Energy {
    /// Zero energy.
    pub const ZERO: Energy = Energy(0);

    /// Construct from whole joules.
    #[inline]
    pub const fn from_joules_u64(j: u64) -> Self {
        Energy(j as u128 * 1_000_000_000)
    }

    /// The energy dissipated by `power` sustained for `dt`.
    #[inline]
    pub fn from_power(power: Power, dt: SimDuration) -> Self {
        // mW * ns = pJ; divide by 1000 for nJ (floor; at worst 1 nJ lost per
        // integration step, irrelevant at the scales we report).
        Energy(power.milliwatts() as u128 * dt.as_nanos() as u128 / 1000)
    }

    /// Joules, as `f64` (reporting only).
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The average power that would dissipate this energy over `dt`.
    /// Returns `Power::ZERO` for a zero-length window.
    #[inline]
    pub fn average_power(self, dt: SimDuration) -> Power {
        if dt.is_zero() {
            return Power::ZERO;
        }
        // nJ / ns = W; multiply by 1000 first for mW precision.
        Power::from_milliwatts((self.0 * 1000 / dt.as_nanos() as u128).min(u64::MAX as u128) as u64)
    }

    /// True iff zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, rhs: Energy) -> Energy {
        Energy(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Energy {
    type Output = Energy;
    #[inline]
    fn add(self, rhs: Energy) -> Energy {
        Energy(self.0 + rhs.0)
    }
}

impl AddAssign for Energy {
    #[inline]
    fn add_assign(&mut self, rhs: Energy) {
        self.0 += rhs.0;
    }
}

impl Sub for Energy {
    type Output = Energy;
    #[inline]
    fn sub(self, rhs: Energy) -> Energy {
        Energy(self.0 - rhs.0)
    }
}

impl Sum for Energy {
    fn sum<I: Iterator<Item = Energy>>(iter: I) -> Energy {
        iter.fold(Energy::ZERO, |acc, e| acc + e)
    }
}

impl fmt::Debug for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}nJ", self.0)
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}J", self.as_joules())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop;

    #[test]
    fn power_times_time() {
        // 100 W for 2 s = 200 J.
        let e = Energy::from_power(Power::from_watts_u64(100), SimDuration::from_secs(2));
        assert_eq!(e, Energy::from_joules_u64(200));
    }

    #[test]
    fn sub_second_resolution() {
        // 1 mW for 1 us = 1 nJ.
        let e = Energy::from_power(Power::from_milliwatts(1), SimDuration::from_micros(1));
        assert_eq!(e.0, 1);
    }

    #[test]
    fn average_power_inverts_integration() {
        let p = Power::from_watts_u64(150);
        let dt = SimDuration::from_millis(750);
        let e = Energy::from_power(p, dt);
        assert_eq!(e.average_power(dt), p);
    }

    #[test]
    fn average_power_of_zero_window_is_zero() {
        let e = Energy::from_joules_u64(10);
        assert_eq!(e.average_power(SimDuration::ZERO), Power::ZERO);
    }

    #[test]
    fn accumulation() {
        let mut total = Energy::ZERO;
        for _ in 0..10 {
            total += Energy::from_power(Power::from_watts_u64(50), SimDuration::from_millis(100));
        }
        assert_eq!(total, Energy::from_joules_u64(50));
    }

    #[test]
    fn display_in_joules() {
        assert_eq!(Energy::from_joules_u64(2).to_string(), "2.000J");
    }

    #[test]
    fn integration_is_additive_in_time() {
        prop::check(
            "integration_is_additive_in_time",
            prop::Config::default(),
            (
                0u64..10_000_000,
                0u64..1_000_000_000_000,
                0u64..1_000_000_000_000,
            ),
            |(mw, a_ns, b_ns)| {
                let p = Power::from_milliwatts(mw);
                let whole = Energy::from_power(p, SimDuration::from_nanos(a_ns + b_ns));
                let parts = Energy::from_power(p, SimDuration::from_nanos(a_ns))
                    + Energy::from_power(p, SimDuration::from_nanos(b_ns));
                // Floor division loses at most 1 nJ per piece.
                assert!(whole.saturating_sub(parts).0 <= 1);
                assert!(parts.saturating_sub(whole).0 <= 1);
            },
        );
    }

    #[test]
    fn average_power_close_to_input() {
        prop::check(
            "average_power_close_to_input",
            prop::Config::default(),
            (1u64..10_000_000, 1_000u64..1_000_000_000_000),
            |(mw, ns)| {
                let p = Power::from_milliwatts(mw);
                let dt = SimDuration::from_nanos(ns);
                let avg = Energy::from_power(p, dt).average_power(dt);
                assert!(avg.milliwatts().abs_diff(p.milliwatts()) <= 1);
            },
        );
    }
}
