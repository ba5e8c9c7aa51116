//! Synthetic stand-ins for the NAS Parallel Benchmarks.
//!
//! The paper runs NPB 3.4 class D, omitting IS, leaving nine applications
//! (§4.1). These profiles are *synthetic equivalents*: phase structures and
//! node-level power appetites chosen to span the same qualitative space —
//! compute-bound kernels near the package limit (EP, FT), memory-bound
//! kernels with lower draw (CG, DC), long pseudo-applications with
//! alternating compute/communication phases (BT, SP, LU), and irregular
//! adaptive behaviour (UA, MG). Demands are node-level (two sockets) with a
//! 60 W idle floor; the paper's tested caps of 60–100 W *per socket*
//! correspond to 120–200 W per node here.

use penelope_units::Power;

use crate::perf::PerfModel;
use crate::profile::{Phase, Profile};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

fn model() -> PerfModel {
    PerfModel::default()
}

/// Repeat a phase pattern `n` times.
fn repeat(pattern: &[(u64, f64)], n: usize) -> Vec<Phase> {
    let mut v = Vec::with_capacity(pattern.len() * n);
    for _ in 0..n {
        for &(demand_w, work) in pattern {
            v.push(Phase::new(w(demand_w), work));
        }
    }
    v
}

/// BT — block tri-diagonal solver: long pseudo-application, sustained
/// moderately-high draw with short communication dips.
pub fn bt() -> Profile {
    Profile::new("BT", repeat(&[(205, 28.0), (185, 5.0)], 12), model())
}

/// CG — conjugate gradient: memory-bound, mid-range draw alternating with
/// lower-power sparse traversals.
pub fn cg() -> Profile {
    Profile::new("CG", repeat(&[(145, 12.0), (125, 8.0)], 10), model())
}

/// DC — data cube: I/O heavy, mostly low draw with periodic compute bursts.
pub fn dc() -> Profile {
    Profile::new("DC", repeat(&[(105, 18.0), (135, 7.0)], 6), model())
}

/// EP — embarrassingly parallel: one long, flat, compute-bound phase at the
/// highest draw in the suite.
pub fn ep() -> Profile {
    Profile::new("EP", vec![Phase::new(w(245), 185.0)], model())
}

/// FT — 3-D FFT: high-power transform phases separated by all-to-all
/// communication at much lower draw.
pub fn ft() -> Profile {
    Profile::new("FT", repeat(&[(235, 20.0), (205, 8.0)], 6), model())
}

/// LU — lower-upper Gauss-Seidel: long, high draw with brief sync dips.
pub fn lu() -> Profile {
    Profile::new("LU", repeat(&[(210, 28.0), (190, 4.0)], 10), model())
}

/// MG — multigrid: shortest app in the suite, alternating V-cycle levels.
fn mg() -> Profile {
    Profile::new("MG", repeat(&[(215, 10.0), (190, 5.0)], 8), model())
}

/// SP — scalar penta-diagonal: the longest pseudo-application, slightly
/// lower draw than BT.
fn sp() -> Profile {
    Profile::new("SP", repeat(&[(195, 26.0), (175, 4.0)], 12), model())
}

/// UA — unstructured adaptive: irregular mix of mesh adaptation (high),
/// communication (low) and solve (mid) phases.
fn ua() -> Profile {
    Profile::new(
        "UA",
        repeat(&[(220, 12.0), (185, 10.0), (200, 26.0)], 5),
        model(),
    )
}

/// All nine applications, in the suite's alphabetical order.
pub fn all_profiles() -> Vec<Profile> {
    vec![bt(), cg(), dc(), ep(), ft(), lu(), mg(), sp(), ua()]
}

/// The 36 unordered pairs of distinct applications the paper sweeps
/// ("every unique combination of these 9 applications", §4.1). Each pair
/// runs one app on each half of the cluster.
pub fn all_pairs() -> Vec<(Profile, Profile)> {
    let apps = all_profiles();
    let mut pairs = Vec::with_capacity(36);
    for i in 0..apps.len() {
        for j in (i + 1)..apps.len() {
            pairs.push((apps[i].clone(), apps[j].clone()));
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nine_apps_thirty_six_pairs() {
        assert_eq!(all_profiles().len(), 9);
        assert_eq!(all_pairs().len(), 36);
    }

    #[test]
    fn pairs_are_unordered_and_distinct() {
        let pairs = all_pairs();
        let mut seen = std::collections::HashSet::new();
        for (a, b) in &pairs {
            assert_ne!(a.name, b.name, "self-pair {}", a.name);
            let key = if a.name < b.name {
                (a.name.clone(), b.name.clone())
            } else {
                (b.name.clone(), a.name.clone())
            };
            assert!(seen.insert(key), "duplicate pair {} {}", a.name, b.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all_profiles().into_iter().map(|p| p.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn runtimes_span_the_paper_range() {
        // Class D: everything runs for minutes; MG is the shortest here.
        for p in all_profiles() {
            let rt = p.nominal_runtime_secs();
            assert!(rt >= 100.0, "{} too short ({rt}s)", p.name);
            assert!(rt <= 500.0, "{} too long ({rt}s)", p.name);
        }
    }

    #[test]
    fn demands_are_heterogeneous() {
        let profiles = all_profiles();
        let means: Vec<_> = profiles.iter().map(|p| p.mean_demand()).collect();
        let min = means.iter().min().unwrap();
        let max = means.iter().max().unwrap();
        // Dynamic power shifting needs donors and recipients: the spread of
        // mean demand across the suite must be large.
        assert!(
            max.milliwatts() - min.milliwatts() > 50_000,
            "demand spread too small: {min} .. {max}"
        );
    }

    #[test]
    fn ep_is_the_hungriest() {
        let ep_mean = ep().mean_demand();
        for p in all_profiles() {
            assert!(p.mean_demand() <= ep_mean, "{} hungrier than EP", p.name);
        }
    }

    #[test]
    fn all_demands_exceed_idle() {
        for p in all_profiles() {
            for ph in &p.phases {
                assert!(ph.demand > p.perf.idle_power);
            }
        }
    }

    #[test]
    fn demands_fit_safe_range() {
        // Peak demand must be attainable inside the default 80-300 W node
        // safe range, else no cap assignment could ever satisfy an app.
        for p in all_profiles() {
            assert!(p.peak_demand() <= Power::from_watts_u64(300));
            assert!(p.peak_demand() >= Power::from_watts_u64(80));
        }
    }

    #[test]
    fn tight_cap_hurts_hungry_apps_more() {
        // Under a 140 W node cap, EP (hungry) stretches much more than DC
        // (mostly low-power) — the heterogeneity dynamic systems exploit.
        let cap = Power::from_watts_u64(140);
        let ep_stretch = ep().runtime_under_cap_secs(cap).unwrap() / ep().nominal_runtime_secs();
        let dc_stretch = dc().runtime_under_cap_secs(cap).unwrap() / dc().nominal_runtime_secs();
        assert!(
            ep_stretch > dc_stretch * 1.2,
            "EP {ep_stretch} vs DC {dc_stretch}"
        );
    }
}
