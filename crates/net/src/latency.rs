//! One-way latency models.

use penelope_testkit::rng::Rng;
use penelope_units::SimDuration;

/// Distribution of one-way message latency on the cluster interconnect.
///
/// The paper's testbed is a LAN where round trips are well under a
/// millisecond; the default models a 50 µs one-way latency with mild jitter.
#[derive(Clone, Debug)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniformly distributed in `[lo, hi]`.
    Uniform {
        /// Minimum one-way latency.
        lo: SimDuration,
        /// Maximum one-way latency.
        hi: SimDuration,
    },
}

impl LatencyModel {
    /// Sample a one-way latency.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { lo, hi } => {
                debug_assert!(lo <= hi, "uniform latency bounds inverted");
                if lo == hi {
                    lo
                } else {
                    SimDuration::from_nanos(rng.gen_range(lo.as_nanos()..=hi.as_nanos()))
                }
            }
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel::Uniform {
            lo: SimDuration::from_micros(30),
            hi: SimDuration::from_micros(70),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_testkit::rng::TestRng;

    #[test]
    fn constant_always_same() {
        let m = LatencyModel::Constant(SimDuration::from_micros(50));
        let mut rng = TestRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_micros(50));
        }
    }

    #[test]
    fn uniform_within_bounds() {
        let lo = SimDuration::from_micros(10);
        let hi = SimDuration::from_micros(100);
        let m = LatencyModel::Uniform { lo, hi };
        let mut rng = TestRng::seed_from_u64(7);
        for _ in 0..1000 {
            let s = m.sample(&mut rng);
            assert!(s >= lo && s <= hi);
        }
    }

    #[test]
    fn uniform_degenerate_bounds() {
        let d = SimDuration::from_micros(42);
        let m = LatencyModel::Uniform { lo: d, hi: d };
        let mut rng = TestRng::seed_from_u64(1);
        assert_eq!(m.sample(&mut rng), d);
    }

    #[test]
    fn uniform_mean_converges() {
        let m = LatencyModel::Uniform {
            lo: SimDuration::from_micros(0),
            hi: SimDuration::from_micros(100),
        };
        let mut rng = TestRng::seed_from_u64(3);
        let n = 20_000;
        let sum: u64 = (0..n).map(|_| m.sample(&mut rng).as_nanos()).sum();
        let mean_us = sum as f64 / n as f64 / 1000.0;
        assert!((mean_us - 50.0).abs() < 1.5, "sample mean {mean_us}");
    }

    #[test]
    fn default_is_lan_scale() {
        let mut rng = TestRng::seed_from_u64(0);
        let s = LatencyModel::default().sample(&mut rng);
        assert!(s < SimDuration::from_millis(1));
    }
}
