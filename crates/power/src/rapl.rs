//! A simulated RAPL power domain.

use penelope_testkit::rng::Rng;
use penelope_units::{Energy, Power, PowerRange, SimDuration, SimTime};

use crate::device::CappedDevice;
use crate::iface::PowerInterface;

/// Configuration of the simulated RAPL domain.
#[derive(Clone, Debug)]
pub struct RaplConfig {
    /// Safe powercap range for the node.
    pub safe_range: PowerRange,
    /// Time for a newly requested cap to take effect. Zhang's measurement
    /// (cited in §4.5) puts RAPL convergence under 0.5 s; we default to
    /// 300 ms. Zero disables the lag.
    pub actuation_delay: SimDuration,
    /// Relative standard deviation of multiplicative Gaussian noise applied
    /// to power *readings* (not to actual consumption). Zero disables noise.
    pub read_noise_std: f64,
}

impl Default for RaplConfig {
    fn default() -> Self {
        RaplConfig {
            safe_range: PowerRange::default(),
            actuation_delay: SimDuration::from_millis(300),
            read_noise_std: 0.0,
        }
    }
}

/// Software model of an Intel-RAPL-style power domain wrapping a
/// [`CappedDevice`].
///
/// * `set_cap` requests a cap; the *effective* cap switches to the requested
///   value after [`RaplConfig::actuation_delay`] (a step-delay model of the
///   measured sub-half-second convergence). Requests are clamped into the
///   safe range, exactly as the MSR interface refuses out-of-range values.
/// * `read_power` integrates the device's consumption since the previous
///   read — RAPL exposes an energy counter, and dividing by the window is
///   precisely how real deciders obtain average power.
///
/// The effective cap is piecewise constant, so integration is exact and the
/// total energy ledger is deterministic for a given seed.
#[derive(Debug)]
pub struct SimulatedRapl<D> {
    device: D,
    cfg: RaplConfig,
    /// The cap most recently requested (clamped): the decider's `C_t`.
    requested_cap: Power,
    /// The cap the hardware is currently enforcing.
    effective_cap: Power,
    /// A pending cap change: `(applies_at, cap)`.
    pending: Option<(SimTime, Power)>,
    /// Device has been advanced up to this instant.
    advanced_to: SimTime,
    /// Start of the current read window.
    window_start: SimTime,
    /// Energy consumed in the current read window.
    window_energy: Energy,
}

impl<D: CappedDevice> SimulatedRapl<D> {
    /// Create a domain around `device` with the given initial cap (clamped
    /// into the safe range).
    pub fn new(device: D, initial_cap: Power, cfg: RaplConfig) -> Self {
        let cap = cfg.safe_range.clamp(initial_cap);
        SimulatedRapl {
            device,
            cfg,
            requested_cap: cap,
            effective_cap: cap,
            pending: None,
            advanced_to: SimTime::ZERO,
            window_start: SimTime::ZERO,
            window_energy: Energy::ZERO,
        }
    }

    /// Advance the device model to `now`, splitting the window at the
    /// pending-cap boundary so integration sees only constant caps.
    fn advance_to(&mut self, now: SimTime) {
        if now <= self.advanced_to {
            return;
        }
        if let Some((applies_at, cap)) = self.pending {
            if applies_at <= now {
                if applies_at > self.advanced_to {
                    let e = self
                        .device
                        .advance(self.advanced_to, applies_at, self.effective_cap);
                    self.window_energy += e;
                    self.advanced_to = applies_at;
                }
                self.effective_cap = cap;
                self.pending = None;
            }
        }
        let e = self
            .device
            .advance(self.advanced_to, now, self.effective_cap);
        self.window_energy += e;
        self.advanced_to = now;
    }

    /// Read average power since the last read, applying read noise via `rng`.
    /// This is the seam used by the simulator, which owns per-node RNGs;
    /// [`PowerInterface::read_power`] (noise-free) delegates here.
    pub fn read_power_with<R: Rng + ?Sized>(&mut self, now: SimTime, rng: &mut R) -> Power {
        let raw = self.read_power_raw(now);
        if self.cfg.read_noise_std > 0.0 {
            // Box-Muller: two uniforms -> one standard normal.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            raw.mul_f64((1.0 + self.cfg.read_noise_std * z).max(0.0))
        } else {
            raw
        }
    }

    fn read_power_raw(&mut self, now: SimTime) -> Power {
        self.advance_to(now);
        let dt = now.saturating_since(self.window_start);
        let avg = if dt.is_zero() {
            // Degenerate window: report the instantaneous draw.
            self.device.demand(now).min(self.effective_cap)
        } else {
            self.window_energy.average_power(dt)
        };
        self.window_start = now;
        self.window_energy = Energy::ZERO;
        avg
    }

    /// The cap the hardware is enforcing *right now* (lags the requested
    /// cap by up to the actuation delay).
    pub fn effective_cap(&self, now: SimTime) -> Power {
        match self.pending {
            Some((applies_at, cap)) if applies_at <= now => cap,
            _ => self.effective_cap,
        }
    }

    /// Borrow the wrapped device.
    pub fn device(&self) -> &D {
        &self.device
    }
}

impl<D: CappedDevice> PowerInterface for SimulatedRapl<D> {
    fn read_power(&mut self, now: SimTime) -> Power {
        self.read_power_raw(now)
    }

    fn set_cap(&mut self, cap: Power, now: SimTime) {
        self.advance_to(now);
        let clamped = self.cfg.safe_range.clamp(cap);
        self.requested_cap = clamped;
        if self.cfg.actuation_delay.is_zero() {
            self.effective_cap = clamped;
            self.pending = None;
        } else {
            self.pending = Some((now + self.cfg.actuation_delay, clamped));
        }
    }

    fn cap(&self) -> Power {
        self.requested_cap
    }

    fn safe_range(&self) -> PowerRange {
        self.cfg.safe_range
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::tests::StepDevice;
    use crate::device::ConstantDevice;
    use penelope_testkit::prop;
    use penelope_testkit::rng::TestRng;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn cfg_no_lag() -> RaplConfig {
        RaplConfig {
            safe_range: PowerRange::from_watts(10, 300),
            actuation_delay: SimDuration::ZERO,
            read_noise_std: 0.0,
        }
    }

    #[test]
    fn reading_is_average_since_last_read() {
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(100)), w(200), cfg_no_lag());
        assert_eq!(rapl.read_power(SimTime::from_secs(1)), w(100));
        // Nothing changed: still 100 W.
        assert_eq!(rapl.read_power(SimTime::from_secs(2)), w(100));
    }

    #[test]
    fn cap_binds_consumption() {
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(250)), w(120), cfg_no_lag());
        assert_eq!(rapl.read_power(SimTime::from_secs(1)), w(120));
    }

    #[test]
    fn set_cap_clamps_into_safe_range() {
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(100)), w(120), cfg_no_lag());
        rapl.set_cap(w(5), SimTime::ZERO);
        assert_eq!(rapl.cap(), w(10));
        rapl.set_cap(w(999), SimTime::ZERO);
        assert_eq!(rapl.cap(), w(300));
    }

    #[test]
    fn initial_cap_is_clamped() {
        let rapl = SimulatedRapl::new(ConstantDevice::new(w(100)), w(1), cfg_no_lag());
        assert_eq!(rapl.cap(), w(10));
    }

    #[test]
    fn actuation_delay_holds_old_cap() {
        let cfg = RaplConfig {
            actuation_delay: SimDuration::from_millis(500),
            ..cfg_no_lag()
        };
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(250)), w(100), cfg);
        // Raise the cap at t=0; for the first 500 ms the old 100 W cap holds.
        rapl.set_cap(w(200), SimTime::ZERO);
        assert_eq!(rapl.effective_cap(SimTime::from_millis(499)), w(100));
        assert_eq!(rapl.effective_cap(SimTime::from_millis(500)), w(200));
        // Average over 1 s: 0.5 s at 100 W + 0.5 s at 200 W = 150 W.
        assert_eq!(rapl.read_power(SimTime::from_secs(1)), w(150));
    }

    #[test]
    fn rapid_recap_overwrites_pending() {
        let cfg = RaplConfig {
            actuation_delay: SimDuration::from_millis(300),
            ..cfg_no_lag()
        };
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(250)), w(100), cfg);
        rapl.set_cap(w(200), SimTime::ZERO);
        // Before the first request lands, request something else.
        rapl.set_cap(w(150), SimTime::from_millis(100));
        // 0..400ms: 100 W effective; from 400 ms: 150 W.
        assert_eq!(rapl.effective_cap(SimTime::from_millis(350)), w(100));
        assert_eq!(rapl.effective_cap(SimTime::from_millis(400)), w(150));
        assert_eq!(rapl.cap(), w(150));
    }

    #[test]
    fn degenerate_read_window_reports_instantaneous() {
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(90)), w(120), cfg_no_lag());
        let t = SimTime::from_secs(3);
        let _ = rapl.read_power(t);
        assert_eq!(rapl.read_power(t), w(90));
    }

    #[test]
    fn step_device_through_rapl() {
        // App draws 200 W for 1 s then idles at 20 W; cap is 150 W.
        let dev = StepDevice::new(vec![
            (SimTime::from_secs(1), w(200)),
            (SimTime::from_secs(2), w(20)),
        ]);
        let mut rapl = SimulatedRapl::new(dev, w(150), cfg_no_lag());
        assert_eq!(rapl.read_power(SimTime::from_secs(1)), w(150)); // capped
        assert_eq!(rapl.read_power(SimTime::from_secs(2)), w(20)); // idle
    }

    #[test]
    fn read_noise_perturbs_but_preserves_scale() {
        let cfg = RaplConfig {
            read_noise_std: 0.05,
            ..cfg_no_lag()
        };
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(100)), w(200), cfg);
        let mut rng = TestRng::seed_from_u64(42);
        let mut sum = 0.0;
        let n = 200;
        for i in 1..=n {
            let p = rapl.read_power_with(SimTime::from_secs(i), &mut rng);
            sum += p.as_watts();
            // 5-sigma bound: no reading should stray far from 100 W.
            assert!(p.as_watts() > 70.0 && p.as_watts() < 130.0, "reading {p}");
        }
        let mean = sum / n as f64;
        assert!((mean - 100.0).abs() < 2.0, "noisy mean {mean}");
    }

    #[test]
    fn noise_disabled_is_deterministic() {
        let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(100)), w(200), cfg_no_lag());
        let mut rng = TestRng::seed_from_u64(1);
        assert_eq!(
            rapl.read_power_with(SimTime::from_secs(1), &mut rng),
            w(100)
        );
    }

    #[test]
    fn consumption_never_exceeds_effective_cap() {
        prop::check(
            "consumption_never_exceeds_effective_cap",
            prop::Config::default(),
            (1u64..400, 1u64..400, 1u64..100),
            |(demand_w, cap_w, secs)| {
                let cfg = cfg_no_lag();
                let cap = cfg.safe_range.clamp(w(cap_w));
                let mut rapl = SimulatedRapl::new(ConstantDevice::new(w(demand_w)), w(cap_w), cfg);
                let reading = rapl.read_power(SimTime::from_secs(secs));
                assert!(reading <= cap);
                assert!(reading <= w(demand_w));
            },
        );
    }

    #[test]
    fn split_reads_integrate_like_one() {
        prop::check(
            "split_reads_integrate_like_one",
            prop::Config::default(),
            (1u64..400, 1u64..50, 1u64..50),
            |(demand_w, a, b)| {
                // Reading at t=a then t=a+b must account for the same energy
                // as one read at t=a+b.
                let mk =
                    || SimulatedRapl::new(ConstantDevice::new(w(demand_w)), w(300), cfg_no_lag());
                let energy =
                    |p: Power, secs: u64| Energy::from_power(p, SimDuration::from_secs(secs));
                let mut one = mk();
                let whole = one.read_power(SimTime::from_secs(a + b));
                let mut two = mk();
                let first = two.read_power(SimTime::from_secs(a));
                let second = two.read_power(SimTime::from_secs(a + b));
                assert_eq!(energy(whole, a + b), energy(first, a) + energy(second, b));
            },
        );
    }
}
