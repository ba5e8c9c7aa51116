//! The cap→performance model.

use penelope_units::Power;

/// Relates a node-level powercap to application execution speed.
///
/// The paper (§2.1) notes powercaps have "a proportional, albeit non-linear
/// relationship to application performance" [19, 37]: the first watts above
/// idle buy more speed than the last watts before the demand is satisfied.
/// We model the relative execution rate of a phase that *wants* `demand`
/// power under an effective cap `cap` as
///
/// ```text
/// rate(cap, demand) = 1                                   if cap ≥ demand
///                   = ((cap − idle) / (demand − idle))^α  if idle < cap < demand
///                   = 0                                   if cap ≤ idle
/// ```
///
/// with `α ∈ (0, 1]`. `α = 1` is the linear model; the default `α = 0.7`
/// gives the concave shape measured for hardware-enforced power bounds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerfModel {
    /// Package power at zero useful work (fans, uncore, leakage).
    pub idle_power: Power,
    /// Concavity exponent of the power→speed curve.
    pub alpha: f64,
}

impl PerfModel {
    /// A model with the given idle floor and exponent. Panics unless
    /// `0 < alpha <= 1`.
    pub fn new(idle_power: Power, alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha <= 1.0 && alpha.is_finite(),
            "alpha must be in (0, 1], got {alpha}"
        );
        PerfModel { idle_power, alpha }
    }

    /// The relative execution rate (in `[0, 1]`) of a phase demanding
    /// `demand` power under effective cap `cap`.
    pub fn rate(&self, cap: Power, demand: Power) -> f64 {
        if cap >= demand {
            return 1.0;
        }
        if cap <= self.idle_power || demand <= self.idle_power {
            return 0.0;
        }
        let num = (cap - self.idle_power).milliwatts() as f64;
        let den = (demand - self.idle_power).milliwatts() as f64;
        (num / den).powf(self.alpha)
    }
}

impl Default for PerfModel {
    /// Idle floor of 60 W per node (dual-socket Skylake package idle) and
    /// the concave default exponent.
    fn default() -> Self {
        PerfModel::new(Power::from_watts_u64(60), 0.7)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::prop;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn model() -> PerfModel {
        PerfModel::new(w(60), 0.7)
    }

    #[test]
    fn uncapped_runs_at_full_speed() {
        let m = model();
        assert_eq!(m.rate(w(200), w(200)), 1.0);
        assert_eq!(m.rate(w(300), w(200)), 1.0);
    }

    #[test]
    fn at_or_below_idle_no_progress() {
        let m = model();
        assert_eq!(m.rate(w(60), w(200)), 0.0);
        assert_eq!(m.rate(w(10), w(200)), 0.0);
    }

    #[test]
    fn rate_is_concave_above_linear() {
        // With alpha < 1 a half-power cap yields more than half speed.
        let m = model();
        let r = m.rate(w(130), w(200)); // (70/140)^0.7
        assert!(r > 0.5, "rate {r}");
        assert!(r < 1.0);
    }

    #[test]
    fn linear_alpha_matches_fraction() {
        let m = PerfModel::new(w(60), 1.0);
        let r = m.rate(w(130), w(200));
        assert!((r - 0.5).abs() < 1e-12);
    }

    #[test]
    fn degenerate_demand_below_idle() {
        // A "phase" demanding less than idle is already satisfied by any
        // cap at or above its demand, and unprogressable below it.
        let m = model();
        assert_eq!(m.rate(w(50), w(40)), 1.0);
        assert_eq!(m.rate(w(30), w(40)), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn zero_alpha_rejected() {
        let _ = PerfModel::new(w(60), 0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn superlinear_alpha_rejected() {
        let _ = PerfModel::new(w(60), 1.5);
    }

    #[test]
    fn rate_bounded_and_monotone_in_cap() {
        prop::check(
            "rate_bounded_and_monotone_in_cap",
            prop::Config::default(),
            (0u64..400, 0u64..400, 61u64..400),
            |(cap1, cap2, demand)| {
                let m = model();
                let (lo, hi) = if cap1 <= cap2 {
                    (cap1, cap2)
                } else {
                    (cap2, cap1)
                };
                let r_lo = m.rate(w(lo), w(demand));
                let r_hi = m.rate(w(hi), w(demand));
                assert!((0.0..=1.0).contains(&r_lo));
                assert!((0.0..=1.0).contains(&r_hi));
                assert!(r_lo <= r_hi + 1e-12);
            },
        );
    }

    #[test]
    fn rate_antitone_in_demand() {
        prop::check(
            "rate_antitone_in_demand",
            prop::Config::default(),
            (61u64..400, 61u64..400, 61u64..400),
            |(cap, d1, d2)| {
                // A hungrier phase is hurt at least as much by the same cap.
                let m = model();
                let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
                assert!(m.rate(w(cap), w(hi)) <= m.rate(w(cap), w(lo)) + 1e-12);
            },
        );
    }
}
