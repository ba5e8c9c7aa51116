//! Differential oracle: the paper's §4.2–§4.3 ordering claims, checked by
//! running the *same* scenario under Penelope, the static Fair baseline
//! and the centralized SLURM-style manager, and feeding the normalized
//! performance triple to `penelope::conformance::oracle`.
//!
//! Normalization follows the paper: performance = fair_runtime / runtime,
//! so Fair is 1.0 by construction and higher is better.

use penelope::conformance::oracle::{
    check_centralized_no_better, check_fault_advantage, check_nominal, PerfTriple,
};
use penelope::experiments::faulty::run_faulty_cell;
use penelope::experiments::nominal::run_cell;
use penelope::sim::{ClusterConfig, ClusterSim, SystemKind};
use penelope::units::{Power, SimTime};
use penelope::workload::{npb, PerfModel, Phase, Profile};

const NODES: usize = 4;
const CAP_PER_SOCKET_W: u64 = 80;
const TIME_SCALE: f64 = 0.08;

fn watts(w: u64) -> Power {
    Power::from_watts_u64(w)
}

fn triple(fair: f64, slurm: f64, penelope: f64) -> PerfTriple {
    PerfTriple {
        penelope: fair / penelope,
        fair: 1.0,
        slurm: fair / slurm,
    }
}

/// §4.2 / Fig. 2: under nominal conditions the three systems are nearly
/// equivalent — Penelope within a few percent of Fair and of SLURM.
#[test]
fn nominal_ordering_matches_paper() {
    let pair = (npb::ep(), npb::dc());
    let seed = 0x04AC_1E00;
    let fair = run_cell(
        SystemKind::Fair,
        CAP_PER_SOCKET_W,
        &pair,
        NODES,
        TIME_SCALE,
        seed,
    );
    let slurm = run_cell(
        SystemKind::Slurm,
        CAP_PER_SOCKET_W,
        &pair,
        NODES,
        TIME_SCALE,
        seed,
    );
    let pen = run_cell(
        SystemKind::Penelope,
        CAP_PER_SOCKET_W,
        &pair,
        NODES,
        TIME_SCALE,
        seed,
    );
    let t = triple(fair, slurm, pen);
    check_nominal(t, 0.05).unwrap();
    check_centralized_no_better(t, 0.05).unwrap();
}

/// The stranded-power scenario: half the cluster finishes early and its
/// power sits idle; the other half stays hungry. A static division
/// strands the released watts, while Penelope (and SLURM, while its
/// server lives) move them to the hungry nodes.
fn stranded_power_runtime(system: SystemKind, seed: u64) -> f64 {
    let perf = PerfModel::default();
    let donor = Profile::new("donor", vec![Phase::new(watts(150), 5.0)], perf);
    let recipient = Profile::new("recipient", vec![Phase::new(watts(260), 40.0)], perf);
    let workloads = vec![donor.clone(), donor, recipient.clone(), recipient];
    let horizon = SimTime::from_secs(900);
    let mut cfg = ClusterConfig::paper_defaults(system, watts(NODES as u64 * 160));
    cfg.seed = seed;
    let report = ClusterSim::new(cfg, workloads).run(horizon);
    assert!(report.conservation_ok, "{system:?}: conservation violated");
    report.runtime_secs().unwrap_or(horizon.as_secs_f64())
}

/// §4.3 / §4.5: when released power would otherwise be stranded,
/// Penelope's redistribution must beat the static baseline by a clear
/// margin, and the centralized manager has no information advantage.
#[test]
fn stranded_power_redistribution_beats_static_division() {
    let seed = 0x04AC_1E01;
    let fair = stranded_power_runtime(SystemKind::Fair, seed);
    let slurm = stranded_power_runtime(SystemKind::Slurm, seed);
    let pen = stranded_power_runtime(SystemKind::Penelope, seed);
    let t = triple(fair, slurm, pen);
    check_fault_advantage(t, 0.10).unwrap();
    check_centralized_no_better(t, 0.10).unwrap();
}

/// §4.3 / Fig. 3: kill the coordinator mid-run. SLURM loses all
/// redistribution (and drops toward or below Fair); Penelope only loses
/// one ordinary client and keeps redistributing among survivors.
#[test]
fn coordinator_loss_breaks_slurm_not_penelope() {
    let pair = (npb::ep(), npb::dc());
    let seed = 0x04AC_1E02;
    let fair = run_cell(
        SystemKind::Fair,
        CAP_PER_SOCKET_W,
        &pair,
        NODES,
        TIME_SCALE,
        seed,
    );
    let slurm = run_faulty_cell(
        SystemKind::Slurm,
        CAP_PER_SOCKET_W,
        &pair,
        NODES,
        TIME_SCALE,
        seed,
        fair,
    );
    let pen = run_faulty_cell(
        SystemKind::Penelope,
        CAP_PER_SOCKET_W,
        &pair,
        NODES,
        TIME_SCALE,
        seed,
        fair,
    );
    let t = triple(fair, slurm, pen);
    check_centralized_no_better(t, 0.05).unwrap();
}
