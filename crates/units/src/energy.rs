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
        // integration step, irrelevant at the scales we report). A product
        // that fits a `u64` — every tick of a simulated node — divides in
        // `u64`: the `u128` division is a library call, the `u64` one a
        // multiply. Both floor the same quotient.
        let (mw, ns) = (power.milliwatts(), dt.as_nanos());
        match mw.checked_mul(ns) {
            Some(pj) => Energy((pj / 1000) as u128),
            None => Energy(mw as u128 * ns as u128 / 1000),
        }
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
        // nJ / ns = W; multiply by 1000 first for mW precision, in `u64`
        // when the scaled energy fits (as in `from_power`).
        let ns = dt.as_nanos();
        let pj = u64::try_from(self.0)
            .ok()
            .and_then(|nj| nj.checked_mul(1000));
        let mw = match pj {
            Some(pj) => pj / ns,
            None => (self.0 * 1000 / ns as u128).min(u64::MAX as u128) as u64,
        };
        Power::from_milliwatts(mw)
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

    /// An operand of up to `bits` significant bits: drawing the width
    /// first spreads the draws over every magnitude of the `u64` range.
    fn of_width(bits: u32, raw: u64) -> u64 {
        raw.checked_shr(64 - bits).unwrap_or(0)
    }

    #[test]
    fn u64_fast_paths_agree_with_the_u128_formulas() {
        prop::check(
            "u64_fast_paths_agree_with_the_u128_formulas",
            prop::Config::with_cases(4096),
            (
                0u32..=64,
                prop::any_u64(),
                0u32..=64,
                prop::any_u64(),
                0u64..8,
            ),
            |(a_bits, a_raw, b_bits, b_raw, nudge)| {
                let a = of_width(a_bits, a_raw);
                // Half the draws put the second operand within a few units
                // of where `a × b` stops fitting a `u64`.
                let b = if b_raw & 1 == 0 {
                    of_width(b_bits, b_raw)
                } else {
                    (u64::MAX / a.max(1))
                        .saturating_add(nudge)
                        .saturating_sub(3)
                };
                let e = Energy::from_power(Power::from_milliwatts(a), SimDuration::from_nanos(b));
                assert_eq!(
                    e.0,
                    a as u128 * b as u128 / 1000,
                    "from_power({a} mW, {b} ns)"
                );

                // Energies from zero past `u64::MAX` (up to 2^118, where the `u128` formula still fits), with the
                // `nJ × 1000` boundary drawn as often as the rest.
                let nj = match nudge % 4 {
                    0 => a as u128,
                    1 => (u64::MAX / 1000) as u128 + (b_raw % 5) as u128 - 2,
                    2 => ((a as u128) << 54) | b as u128,
                    _ => u64::MAX as u128 + (b_raw % 3) as u128,
                };
                let ns = b.max(1);
                let avg = Energy(nj).average_power(SimDuration::from_nanos(ns));
                let want = (nj * 1000 / ns as u128).min(u64::MAX as u128) as u64;
                assert_eq!(avg.milliwatts(), want, "average_power({nj} nJ, {ns} ns)");
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
