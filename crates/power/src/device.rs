//! Devices that live under a powercap.

use penelope_units::{Energy, Power, SimTime};

/// Something that consumes power under a cap: the node's sockets plus
/// whatever application is running on them.
///
/// The simulated RAPL advances the device over windows during which the
/// *effective* cap is constant, so implementations only ever see
/// piecewise-constant caps and can integrate exactly.
pub trait CappedDevice {
    /// Consume energy over `[from, to)` under a constant effective cap.
    /// Returns the energy actually dissipated (which must not exceed
    /// `cap × (to - from)`).
    fn advance(&mut self, from: SimTime, to: SimTime, effective_cap: Power) -> Energy;

    /// The instantaneous power the device *wants* right now (its demand),
    /// used by diagnostics and by tests; not consulted for integration.
    fn demand(&self, at: SimTime) -> Power;
}

/// A device with constant demand: consumes `min(cap, demand)` forever.
#[derive(Clone, Debug)]
pub struct ConstantDevice {
    demand: Power,
}

impl ConstantDevice {
    /// A device that always wants `demand`.
    pub fn new(demand: Power) -> Self {
        ConstantDevice { demand }
    }
}

impl CappedDevice for ConstantDevice {
    fn advance(&mut self, from: SimTime, to: SimTime, effective_cap: Power) -> Energy {
        let dt = to.saturating_since(from);
        Energy::from_power(self.demand.min(effective_cap), dt)
    }

    fn demand(&self, _at: SimTime) -> Power {
        self.demand
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use penelope_units::SimDuration;

    /// A device whose demand steps through a fixed schedule of
    /// `(until_time, demand)` segments — the tests' script for a time-varying
    /// load (e.g. "hungry for 5 s, then idle").
    #[derive(Clone, Debug)]
    pub(crate) struct StepDevice {
        /// Sorted `(segment_end, demand)` pairs; demand of the last segment
        /// continues forever.
        steps: Vec<(SimTime, Power)>,
    }

    impl StepDevice {
        /// Build from `(segment_end, demand)` pairs. Panics if `steps` is empty
        /// or segment ends are not strictly increasing.
        pub(crate) fn new(steps: Vec<(SimTime, Power)>) -> Self {
            assert!(!steps.is_empty(), "StepDevice needs at least one segment");
            for w in steps.windows(2) {
                assert!(w[0].0 < w[1].0, "StepDevice segments must be increasing");
            }
            StepDevice { steps }
        }

        fn demand_in_segment(&self, t: SimTime) -> Power {
            for &(end, d) in &self.steps {
                if t < end {
                    return d;
                }
            }
            self.steps.last().expect("non-empty").1
        }
    }

    impl CappedDevice for StepDevice {
        fn advance(&mut self, from: SimTime, to: SimTime, effective_cap: Power) -> Energy {
            let mut energy = Energy::ZERO;
            let mut cursor = from;
            while cursor < to {
                let demand = self.demand_in_segment(cursor);
                // End of the current segment, or `to`, whichever is sooner.
                let seg_end = self
                    .steps
                    .iter()
                    .map(|&(end, _)| end)
                    .find(|&end| end > cursor)
                    .unwrap_or(SimTime::MAX)
                    .min(to);
                let dt: SimDuration = seg_end.saturating_since(cursor);
                energy += Energy::from_power(demand.min(effective_cap), dt);
                cursor = seg_end;
            }
            energy
        }

        fn demand(&self, at: SimTime) -> Power {
            self.demand_in_segment(at)
        }
    }

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    #[test]
    fn constant_device_respects_cap() {
        let mut d = ConstantDevice::new(w(150));
        let e = d.advance(SimTime::ZERO, SimTime::from_secs(2), w(100));
        assert_eq!(e, Energy::from_joules_u64(200)); // capped at 100 W
        let e = d.advance(SimTime::from_secs(2), SimTime::from_secs(3), w(200));
        assert_eq!(e, Energy::from_joules_u64(150)); // demand-limited
    }

    #[test]
    fn step_device_transitions() {
        // 100 W until t=2s, then 20 W forever.
        let mut d = StepDevice::new(vec![
            (SimTime::from_secs(2), w(100)),
            (SimTime::from_secs(4), w(20)),
        ]);
        // Window straddles the step: 1s at 100 W + 2s at 20 W = 140 J.
        let e = d.advance(SimTime::from_secs(1), SimTime::from_secs(4), w(300));
        assert_eq!(e, Energy::from_joules_u64(140));
        // Past the last segment end, the final demand persists.
        let e = d.advance(SimTime::from_secs(4), SimTime::from_secs(6), w(300));
        assert_eq!(e, Energy::from_joules_u64(40));
    }

    #[test]
    fn step_device_demand_lookup() {
        let d = StepDevice::new(vec![
            (SimTime::from_secs(1), w(80)),
            (SimTime::from_secs(2), w(40)),
        ]);
        assert_eq!(d.demand(SimTime::ZERO), w(80));
        assert_eq!(d.demand(SimTime::from_nanos(999_999_999)), w(80));
        assert_eq!(d.demand(SimTime::from_secs(1)), w(40));
        assert_eq!(d.demand(SimTime::from_secs(100)), w(40));
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn empty_step_device_panics() {
        let _ = StepDevice::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "must be increasing")]
    fn non_monotone_steps_panic() {
        let _ = StepDevice::new(vec![
            (SimTime::from_secs(2), w(10)),
            (SimTime::from_secs(1), w(20)),
        ]);
    }

    #[test]
    fn zero_length_window_consumes_nothing() {
        let mut d = ConstantDevice::new(w(100));
        let t = SimTime::from_secs(1);
        assert_eq!(d.advance(t, t, w(100)), Energy::ZERO);
    }

    #[test]
    fn energy_never_exceeds_cap_times_dt() {
        let mut d = StepDevice::new(vec![
            (SimTime::from_secs(1), w(500)),
            (SimTime::from_secs(2), w(10)),
        ]);
        let cap = w(90);
        let e = d.advance(SimTime::ZERO, SimTime::from_secs(3), cap);
        let max = Energy::from_power(cap, SimDuration::from_secs(3));
        assert!(e <= max);
    }
}

impl<T: CappedDevice + ?Sized> CappedDevice for Box<T> {
    fn advance(&mut self, from: SimTime, to: SimTime, effective_cap: Power) -> Energy {
        (**self).advance(from, to, effective_cap)
    }

    fn demand(&self, at: SimTime) -> Power {
        (**self).demand(at)
    }
}

#[cfg(test)]
mod boxed_tests {
    use super::*;

    #[test]
    fn boxed_device_delegates() {
        let mut d: Box<dyn CappedDevice + Send> =
            Box::new(ConstantDevice::new(Power::from_watts_u64(120)));
        let e = d.advance(
            SimTime::ZERO,
            SimTime::from_secs(1),
            Power::from_watts_u64(100),
        );
        assert_eq!(e, Energy::from_joules_u64(100));
        assert_eq!(d.demand(SimTime::ZERO), Power::from_watts_u64(120));
    }
}
