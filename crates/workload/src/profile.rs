//! Application power/work profiles.

use penelope_units::Power;

use crate::perf::PerfModel;

/// One phase of an application: a power demand sustained while performing a
/// fixed amount of work.
///
/// `work` is expressed in seconds-at-full-speed: a phase with `work = 10.0`
/// completes in 10 s when uncapped and in `10 / rate` seconds under a cap.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Phase {
    /// Node-level power the phase wants (both sockets).
    pub demand: Power,
    /// Seconds of execution at full speed needed to finish the phase.
    pub work: f64,
    /// Cap→performance model for this phase alone. `None` means the phase
    /// follows the owning profile's model; `Some` overrides it — the case
    /// a concatenated job sequence needs when the jobs were measured with
    /// different curves.
    pub perf: Option<PerfModel>,
}

impl Phase {
    /// Construct a phase. Panics if `work` is not a positive finite number.
    pub fn new(demand: Power, work: f64) -> Self {
        assert!(
            work.is_finite() && work > 0.0,
            "phase work must be positive and finite, got {work}"
        );
        Phase {
            demand,
            work,
            perf: None,
        }
    }
}

/// A named application profile: an ordered list of phases plus the
/// performance model parameters for the node it runs on.
///
/// These are the "curated profiles of power consumption over time" the
/// paper's scale study replays in place of live hardware (§4.5).
#[derive(Clone, Debug, PartialEq)]
pub struct Profile {
    /// Application name (e.g. `"EP"`).
    pub name: String,
    /// Ordered phases.
    pub phases: Vec<Phase>,
    /// The node's cap→performance model while running this application.
    pub perf: PerfModel,
}

impl Profile {
    /// Construct a profile. Panics if `phases` is empty.
    pub fn new(name: impl Into<String>, phases: Vec<Phase>, perf: PerfModel) -> Self {
        let name = name.into();
        assert!(!phases.is_empty(), "profile {name} has no phases");
        Profile { name, phases, perf }
    }

    /// Total work in seconds-at-full-speed — the uncapped (nominal) runtime.
    pub fn nominal_runtime_secs(&self) -> f64 {
        self.phases.iter().map(|p| p.work).sum()
    }

    /// The largest phase demand.
    pub fn peak_demand(&self) -> Power {
        self.phases
            .iter()
            .map(|p| p.demand)
            .max()
            .expect("profiles are non-empty")
    }

    /// Work-weighted mean demand — the average power the app draws uncapped.
    pub fn mean_demand(&self) -> Power {
        let total_work = self.nominal_runtime_secs();
        let weighted: f64 = self
            .phases
            .iter()
            .map(|p| p.demand.milliwatts() as f64 * p.work)
            .sum();
        Power::from_milliwatts((weighted / total_work).round() as u64)
    }

    /// A copy with every phase's work scaled by `factor` (durations shrink
    /// or grow, power demands unchanged). Used to run the full experiment
    /// matrix quickly in benches while preserving phase structure.
    pub fn scaled(&self, factor: f64) -> Profile {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be positive, got {factor}"
        );
        Profile {
            name: self.name.clone(),
            phases: self
                .phases
                .iter()
                .map(|p| Phase {
                    work: p.work * factor,
                    ..*p
                })
                .collect(),
            perf: self.perf,
        }
    }

    /// The performance model governing phase `idx`: the phase's own
    /// override if it has one, the profile-level model otherwise.
    pub(crate) fn phase_perf(&self, idx: usize) -> PerfModel {
        self.phases
            .get(idx)
            .and_then(|p| p.perf)
            .unwrap_or(self.perf)
    }

    /// Concatenate another profile after this one: the back-to-back job
    /// sequence of §4.4's "generalized environment". Each appended phase
    /// keeps `next`'s performance model (as a per-phase override when it
    /// differs from this profile's), so a capped phase of the second job
    /// stretches by *its* curve, not the first job's.
    pub fn then(&self, next: &Profile) -> Profile {
        let mut phases = self.phases.clone();
        phases.extend(next.phases.iter().enumerate().map(|(i, p)| Phase {
            perf: Some(next.phase_perf(i)).filter(|m| *m != self.perf),
            ..*p
        }));
        Profile {
            name: format!("{}+{}", self.name, next.name),
            phases,
            perf: self.perf,
        }
    }

    /// The runtime of this profile under a *fixed* cap, analytically.
    /// Returns `None` if some phase can make no progress under `cap`.
    #[cfg(test)]
    pub(crate) fn runtime_under_cap_secs(&self, cap: Power) -> Option<f64> {
        let mut total = 0.0;
        for (i, ph) in self.phases.iter().enumerate() {
            let rate = self.phase_perf(i).rate(cap, ph.demand);
            if rate <= 0.0 {
                return None;
            }
            total += ph.work / rate;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn two_phase() -> Profile {
        Profile::new(
            "toy",
            vec![Phase::new(w(200), 10.0), Phase::new(w(120), 30.0)],
            PerfModel::new(w(60), 1.0),
        )
    }

    #[test]
    fn nominal_runtime_sums_work() {
        assert_eq!(two_phase().nominal_runtime_secs(), 40.0);
    }

    #[test]
    fn peak_and_mean_demand() {
        let p = two_phase();
        assert_eq!(p.peak_demand(), w(200));
        // (200*10 + 120*30) / 40 = 140 W.
        assert_eq!(p.mean_demand(), w(140));
    }

    #[test]
    fn uncapped_runtime_is_nominal() {
        let p = two_phase();
        assert_eq!(p.runtime_under_cap_secs(w(300)), Some(40.0));
    }

    #[test]
    fn capped_runtime_stretches() {
        let p = two_phase(); // linear perf model, idle 60 W
                             // Cap 130 W: phase 1 rate = 70/140 = 0.5 -> 20 s; phase 2 uncapped -> 30 s.
        let rt = p.runtime_under_cap_secs(w(130)).unwrap();
        assert!((rt - 50.0).abs() < 1e-9);
    }

    #[test]
    fn unprogressable_cap_returns_none() {
        let p = two_phase();
        assert_eq!(p.runtime_under_cap_secs(w(60)), None);
    }

    #[test]
    fn scaled_preserves_power_scales_work() {
        let p = two_phase().scaled(0.1);
        assert!((p.nominal_runtime_secs() - 4.0).abs() < 1e-12);
        assert_eq!(p.peak_demand(), w(200));
        assert_eq!(p.name, "toy");
    }

    #[test]
    #[should_panic(expected = "no phases")]
    fn empty_profile_rejected() {
        let _ = Profile::new("empty", vec![], PerfModel::default());
    }

    #[test]
    #[should_panic(expected = "work must be positive")]
    fn zero_work_phase_rejected() {
        let _ = Phase::new(w(100), 0.0);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn bad_scale_factor_rejected() {
        let _ = two_phase().scaled(0.0);
    }
}
#[cfg(test)]
mod then_tests {
    use super::*;
    use crate::perf::PerfModel;
    use penelope_units::Power;

    #[test]
    fn then_concatenates_phases_and_names() {
        let perf = PerfModel::new(Power::from_watts_u64(60), 1.0);
        let a = Profile::new("A", vec![Phase::new(Power::from_watts_u64(100), 5.0)], perf);
        let b = Profile::new("B", vec![Phase::new(Power::from_watts_u64(200), 7.0)], perf);
        let ab = a.then(&b);
        assert_eq!(ab.name, "A+B");
        assert_eq!(ab.phases.len(), 2);
        assert_eq!(ab.nominal_runtime_secs(), 12.0);
        assert_eq!(ab.peak_demand(), Power::from_watts_u64(200));
        // Associative in runtime terms.
        let abc = ab.then(&a);
        assert_eq!(abc.nominal_runtime_secs(), 17.0);
    }

    #[test]
    fn then_carries_each_jobs_perf_model() {
        // Job A is linear; job B has a high idle floor that makes the
        // same cap bite much harder. The concatenation must stretch B's
        // phase by B's curve — flattening both jobs onto A's model
        // silently under-reports the capped runtime.
        let w = Power::from_watts_u64;
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
        assert_eq!(ab.phase_perf(0), a.perf);
        assert_eq!(ab.phase_perf(1), b.perf);
        // Under a 130 W cap: A runs at (130−60)/(200−60) = 0.5 → 20 s;
        // B at (130−120)/(200−120) = 0.125 → 80 s.
        let rt = ab.runtime_under_cap_secs(w(130)).unwrap();
        assert!((rt - 100.0).abs() < 1e-9, "got {rt}");
        // And the concatenation agrees with the jobs run separately.
        let separate =
            a.runtime_under_cap_secs(w(130)).unwrap() + b.runtime_under_cap_secs(w(130)).unwrap();
        assert!((rt - separate).abs() < 1e-9);
    }

    #[test]
    fn then_with_matching_models_stays_override_free() {
        let w = Power::from_watts_u64;
        let perf = PerfModel::new(w(60), 1.0);
        let a = Profile::new("A", vec![Phase::new(w(100), 5.0)], perf);
        let b = Profile::new("B", vec![Phase::new(w(200), 7.0)], perf);
        assert!(a.then(&b).phases.iter().all(|p| p.perf.is_none()));
    }

    #[test]
    fn scaled_preserves_phase_perf_overrides() {
        let w = Power::from_watts_u64;
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
        let half = a.then(&b).scaled(0.5);
        assert_eq!(half.phase_perf(1), b.perf);
        assert_eq!(half.phases[1].work, 5.0);
    }
}
