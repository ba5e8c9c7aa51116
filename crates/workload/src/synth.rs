//! Seeded job sequences for the multi-job experiments, deterministic in
//! the seed.

use penelope_testkit::rng::Rng;
use penelope_testkit::rng::TestRng;

use crate::profile::Profile;

/// A random back-to-back job sequence drawn from the NPB suite — the
/// "generalized environment where multiple workloads would run on the
/// same hardware back to back" of §4.4. The sequence is concatenated into
/// one profile via [`Profile::then`].
pub fn npb_sequence(seed: u64, jobs: usize) -> Profile {
    assert!(jobs >= 1, "need at least one job");
    let mut rng = TestRng::seed_from_u64(seed);
    let apps = crate::npb::all_profiles();
    let mut it = (0..jobs).map(|_| apps[rng.gen_range(0..apps.len())].clone());
    let first = it.next().expect("jobs >= 1");
    it.fold(first, |acc, next| acc.then(&next))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn npb_sequence_concatenates_jobs() {
        let seq = npb_sequence(5, 3);
        let apps = crate::npb::all_profiles();
        let min_rt = apps
            .iter()
            .map(|p| p.nominal_runtime_secs())
            .fold(f64::INFINITY, f64::min);
        assert!(seq.nominal_runtime_secs() >= 3.0 * min_rt);
        assert_eq!(npb_sequence(5, 3), npb_sequence(5, 3));
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_sequence_rejected() {
        let _ = npb_sequence(0, 0);
    }
}
