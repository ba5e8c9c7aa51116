//! Progress integration for a workload running under a powercap.

use penelope_power::CappedDevice;
use penelope_units::{Energy, Power, SimDuration, SimTime};

use crate::profile::Profile;

/// A running instance of a [`Profile`]: tracks which phase the application
/// is in and how much of it is done, integrating progress under the
/// piecewise-constant effective cap supplied by the simulated RAPL domain.
///
/// Implements [`CappedDevice`], so a node is assembled as
/// `SimulatedRapl<WorkloadState>`.
#[derive(Clone, Debug)]
pub struct WorkloadState {
    profile: Profile,
    phase_idx: usize,
    /// Seconds-at-full-speed completed within the current phase.
    work_done: f64,
    finished_at: Option<SimTime>,
    /// Fractional slowdown imposed by co-located management daemons
    /// (`0.013` reproduces the paper's measured 1.3 % Penelope overhead,
    /// §4.2). Applied as a multiplier on the execution rate.
    overhead: f64,
}

impl WorkloadState {
    /// Start the profile from its first phase with no management overhead.
    pub fn new(profile: Profile) -> Self {
        Self::with_overhead(profile, 0.0)
    }

    /// Start the profile with a management-overhead slowdown in `[0, 1)`.
    pub fn with_overhead(profile: Profile, overhead: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&overhead),
            "overhead must be in [0,1), got {overhead}"
        );
        WorkloadState {
            profile,
            phase_idx: 0,
            work_done: 0.0,
            finished_at: None,
            overhead,
        }
    }

    /// The profile being executed.
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// True iff every phase has completed.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// The virtual time at which the application finished, if it has.
    pub fn finished_at(&self) -> Option<SimTime> {
        self.finished_at
    }

    /// Fraction of total work completed, in `[0, 1]`.
    #[cfg(test)]
    fn progress(&self) -> f64 {
        if self.is_finished() {
            return 1.0;
        }
        let done: f64 = self.profile.phases[..self.phase_idx]
            .iter()
            .map(|p| p.work)
            .sum::<f64>()
            + self.work_done;
        (done / self.profile.nominal_runtime_secs()).clamp(0.0, 1.0)
    }

    /// The power the application wants right now (the current phase's
    /// demand, or the idle floor once finished).
    pub fn current_demand(&self) -> Power {
        match self.profile.phases.get(self.phase_idx) {
            Some(p) if !self.is_finished() => p.demand,
            _ => self.profile.perf.idle_power,
        }
    }
}

impl CappedDevice for WorkloadState {
    fn advance(&mut self, from: SimTime, to: SimTime, effective_cap: Power) -> Energy {
        let mut energy = Energy::ZERO;
        let mut cursor = from;
        while cursor < to {
            if self.is_finished() {
                // Idle draw for the remainder of the window (still subject
                // to the cap, though idle is normally below any safe cap).
                let dt = to.saturating_since(cursor);
                energy += Energy::from_power(self.profile.perf.idle_power.min(effective_cap), dt);
                break;
            }
            let phase = self.profile.phases[self.phase_idx];
            let rate = self
                .profile
                .phase_perf(self.phase_idx)
                .rate(effective_cap, phase.demand)
                * (1.0 - self.overhead);
            let draw = phase.demand.min(effective_cap);
            if rate <= 0.0 {
                // Stalled: burns the cap without progressing.
                energy += Energy::from_power(draw, to.saturating_since(cursor));
                break;
            }
            let remaining_work = phase.work - self.work_done;
            let secs_to_finish = remaining_work / rate;
            let window_secs = to.saturating_since(cursor).as_secs_f64();
            if secs_to_finish <= window_secs {
                // Phase completes within this window.
                // Guarantee ≥1 ns of forward motion so float rounding can
                // never stall the integration loop.
                let dt = SimDuration::from_nanos(
                    SimDuration::from_secs_f64(secs_to_finish).as_nanos().max(1),
                );
                let end = (cursor + dt).min(to);
                energy += Energy::from_power(draw, end.saturating_since(cursor));
                cursor = end;
                self.phase_idx += 1;
                self.work_done = 0.0;
                if self.phase_idx >= self.profile.phases.len() {
                    self.finished_at = Some(cursor);
                }
            } else {
                // Window ends mid-phase.
                energy += Energy::from_power(draw, to.saturating_since(cursor));
                self.work_done += window_secs * rate;
                cursor = to;
            }
        }
        energy
    }

    fn demand(&self, _at: SimTime) -> Power {
        self.current_demand()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perf::PerfModel;
    use crate::profile::Phase;
    use penelope_testkit::prop;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn linear_profile() -> Profile {
        Profile::new(
            "toy",
            vec![Phase::new(w(200), 10.0), Phase::new(w(120), 20.0)],
            PerfModel::new(w(60), 1.0),
        )
    }

    #[test]
    fn uncapped_finishes_at_nominal_runtime() {
        let mut st = WorkloadState::new(linear_profile());
        st.advance(SimTime::ZERO, SimTime::from_secs(100), w(300));
        assert!(st.is_finished());
        assert_eq!(st.finished_at(), Some(SimTime::from_secs(30)));
        assert_eq!(st.progress(), 1.0);
    }

    #[test]
    fn capped_phase_stretches_runtime() {
        // Cap 130 W: phase 1 at half speed (20 s), phase 2 uncapped (20 s).
        let mut st = WorkloadState::new(linear_profile());
        st.advance(SimTime::ZERO, SimTime::from_secs(100), w(130));
        assert_eq!(st.finished_at(), Some(SimTime::from_secs(40)));
    }

    #[test]
    fn matches_analytic_runtime_under_cap() {
        let profile = linear_profile();
        let analytic = profile.runtime_under_cap_secs(w(150)).unwrap();
        let mut st = WorkloadState::new(profile);
        st.advance(SimTime::ZERO, SimTime::from_secs(1000), w(150));
        let simulated = st.finished_at().unwrap().as_secs_f64();
        assert!((simulated - analytic).abs() < 1e-6);
    }

    #[test]
    fn concatenated_jobs_advance_by_their_own_perf_models() {
        // `then` stamps the second job's phases with its own model; the
        // integrator must honour it, matching the analytic runtime.
        let a = Profile::new(
            "A",
            vec![Phase::new(w(200), 10.0)],
            PerfModel::new(w(60), 1.0),
        );
        let b = Profile::new(
            "B",
            vec![Phase::new(w(200), 10.0)],
            PerfModel::new(w(120), 1.0),
        );
        let ab = a.then(&b);
        let analytic = ab.runtime_under_cap_secs(w(130)).unwrap();
        assert!((analytic - 100.0).abs() < 1e-9);
        let mut st = WorkloadState::new(ab);
        st.advance(SimTime::ZERO, SimTime::from_secs(1000), w(130));
        let simulated = st.finished_at().unwrap().as_secs_f64();
        assert!((simulated - analytic).abs() < 1e-6, "got {simulated}");
    }

    #[test]
    fn progress_accumulates_across_windows() {
        let mut st = WorkloadState::new(linear_profile());
        // 5 s uncapped: half of phase 1 = 1/6 of total work.
        st.advance(SimTime::ZERO, SimTime::from_secs(5), w(300));
        assert!((st.progress() - 5.0 / 30.0).abs() < 1e-9);
        assert!(!st.is_finished());
        // Many small windows must integrate like few large ones.
        for s in 5..30 {
            st.advance(SimTime::from_secs(s), SimTime::from_secs(s + 1), w(300));
        }
        assert!(st.is_finished());
    }

    #[test]
    fn energy_reflects_capped_draw() {
        let mut st = WorkloadState::new(linear_profile());
        // Phase 1 demands 200 W; cap 130 W -> draws 130 W.
        let e = st.advance(SimTime::ZERO, SimTime::from_secs(10), w(130));
        assert_eq!(e, Energy::from_joules_u64(1300));
    }

    #[test]
    fn stalled_below_idle_burns_cap_forever() {
        let profile = linear_profile(); // idle 60 W
        let mut st = WorkloadState::new(profile);
        let e = st.advance(SimTime::ZERO, SimTime::from_secs(10), w(50));
        assert!(!st.is_finished());
        assert_eq!(st.progress(), 0.0);
        assert_eq!(e, Energy::from_joules_u64(500)); // 50 W * 10 s
    }

    #[test]
    fn idles_after_finish() {
        let mut st = WorkloadState::new(linear_profile());
        let _ = st.advance(SimTime::ZERO, SimTime::from_secs(30), w(300));
        assert!(st.is_finished());
        let e = st.advance(SimTime::from_secs(30), SimTime::from_secs(40), w(300));
        assert_eq!(e, Energy::from_joules_u64(600)); // 60 W idle * 10 s
        assert_eq!(st.current_demand(), w(60));
    }

    #[test]
    fn overhead_slows_execution() {
        let mut plain = WorkloadState::new(linear_profile());
        let mut loaded = WorkloadState::with_overhead(linear_profile(), 0.013);
        plain.advance(SimTime::ZERO, SimTime::from_secs(1000), w(300));
        loaded.advance(SimTime::ZERO, SimTime::from_secs(1000), w(300));
        let t0 = plain.finished_at().unwrap().as_secs_f64();
        let t1 = loaded.finished_at().unwrap().as_secs_f64();
        let slowdown = t1 / t0 - 1.0;
        assert!(
            (slowdown - 0.013 / (1.0 - 0.013)).abs() < 1e-6,
            "slowdown {slowdown}"
        );
    }

    #[test]
    #[should_panic(expected = "overhead must be in")]
    fn full_overhead_rejected() {
        let _ = WorkloadState::with_overhead(linear_profile(), 1.0);
    }

    #[test]
    fn window_straddling_phase_boundary() {
        let mut st = WorkloadState::new(linear_profile());
        // One window covering phase 1 (10 s @ 200 W) + 5 s of phase 2 @ 120 W.
        let e = st.advance(SimTime::ZERO, SimTime::from_secs(15), w(300));
        assert_eq!(e, Energy::from_joules_u64(200 * 10 + 120 * 5));
        assert_eq!(st.current_demand(), w(120));
    }

    #[test]
    fn chunked_integration_equals_whole() {
        prop::check(
            "chunked_integration_equals_whole",
            prop::Config::default(),
            (70u64..300, 1usize..50),
            |(cap_w, chunks)| {
                let total = SimTime::from_secs(60);
                let mut whole = WorkloadState::new(linear_profile());
                let e_whole = whole.advance(SimTime::ZERO, total, w(cap_w));

                let mut parts = WorkloadState::new(linear_profile());
                let mut e_parts = Energy::ZERO;
                let step = SimDuration::from_nanos(total.as_nanos() / chunks as u64);
                let mut t = SimTime::ZERO;
                for i in 0..chunks {
                    let next = if i == chunks - 1 { total } else { t + step };
                    e_parts += parts.advance(t, next, w(cap_w));
                    t = next;
                }
                // Progress and energy agree to float/ns tolerance.
                assert!((whole.progress() - parts.progress()).abs() < 1e-6);
                let diff = e_whole.saturating_sub(e_parts) + e_parts.saturating_sub(e_whole);
                assert!(diff.as_joules() < 0.01, "energy diff {}", diff.as_joules());
            },
        );
    }

    #[test]
    fn energy_never_exceeds_cap_budget() {
        prop::check(
            "energy_never_exceeds_cap_budget",
            prop::Config::default(),
            (1u64..400, 1u64..200),
            |(cap_w, secs)| {
                let mut st = WorkloadState::new(linear_profile());
                let e = st.advance(SimTime::ZERO, SimTime::from_secs(secs), w(cap_w));
                let budget = Energy::from_power(w(cap_w), SimDuration::from_secs(secs));
                assert!(e <= budget);
            },
        );
    }
}
