//! Cross-crate integration: the public facade API end to end — NPB
//! profiles → simulator → metrics, DES vs daemon agreement, and the NPB
//! suite running under all three systems.

use penelope::conformance::{check_run, MultiplexedDaemon, Scenario, Substrate};
use penelope::metrics::geometric_mean;
use penelope::prelude::*;
use penelope::sim::ClusterConfig;

#[test]
fn npb_profiles_run_through_the_simulation() {
    // Replay the suite's profiles — the "curated profiles" flow of the
    // paper's scale study.
    let profiles = npb::all_profiles();
    assert_eq!(profiles.len(), 9);
    let workloads: Vec<Profile> = profiles
        .into_iter()
        .take(4)
        .map(|p| p.scaled(0.05))
        .collect();
    let cfg = ClusterConfig::checked(SystemKind::Penelope, Power::from_watts_u64(4 * 160));
    let report = ClusterSim::new(cfg, workloads).run(SimTime::from_secs(600));
    assert!(report.conservation_ok);
    assert!(report.runtime_secs().is_some());
}

#[test]
fn all_three_systems_run_the_whole_suite() {
    // One node per NPB application (plus a repeat to make it even), under
    // each manager; everything finishes and dynamic systems do not lose to
    // Fair by more than the management overhead.
    let mut profiles: Vec<Profile> = npb::all_profiles();
    profiles.push(npb::dc());
    let profiles: Vec<Profile> = profiles.into_iter().map(|p| p.scaled(0.1)).collect();
    let budget = Power::from_watts_u64(10 * 160);
    let horizon = SimTime::from_secs(3000);

    let runtime = |system: SystemKind| -> f64 {
        let cfg = ClusterConfig::checked(system, budget);
        ClusterSim::new(cfg, profiles.clone())
            .run(horizon)
            .runtime_secs()
            .expect("finished")
    };
    let fair = runtime(SystemKind::Fair);
    let pen = runtime(SystemKind::Penelope);
    let slurm = runtime(SystemKind::Slurm);
    assert!(pen < fair * 1.05, "Penelope {pen}s vs Fair {fair}s");
    assert!(slurm < fair * 1.05, "SLURM {slurm}s vs Fair {fair}s");
}

#[test]
fn des_and_threaded_runtime_agree_on_who_wins() {
    // The same donor/recipient imbalance through both substrates: each
    // must show Penelope moving the donor's slack to the recipient.
    let perf = PerfModel::new(Power::from_watts_u64(60), 1.0);
    let donor = Profile::new(
        "donor",
        vec![Phase::new(Power::from_watts_u64(100), 1.0)],
        perf,
    );
    let rcpt = Profile::new(
        "rcpt",
        vec![Phase::new(Power::from_watts_u64(250), 1.0)],
        perf,
    );
    let budget = Power::from_watts_u64(2 * 160);

    // DES (virtual seconds; scale the work up so many decider periods fit).
    let scale = 40.0;
    let workloads = vec![donor.scaled(scale), rcpt.scaled(scale)];
    let des_runtime = |system: SystemKind| {
        let mut cfg = ClusterConfig::checked(system, budget);
        cfg.management_overhead = 0.0;
        ClusterSim::new(cfg, workloads.clone())
            .run(SimTime::from_secs(4000))
            .runtime_secs()
            .expect("finished")
    };
    let des_fair = des_runtime(SystemKind::Fair);
    let des_pen = des_runtime(SystemKind::Penelope);
    assert!(des_pen < des_fair, "DES: {des_pen} !< {des_fair}");

    // The daemon's reactor over loopback datagrams (rounds on the virtual
    // clock, no makespan to compare): the same imbalance must move power
    // the same way — the recipient ends above its even share, the donor
    // below — with the books exact at every cut.
    let mut cfg = ClusterConfig::checked(SystemKind::Penelope, budget);
    cfg.management_overhead = 0.0;
    let scenario = Scenario {
        name: "donor-recipient".into(),
        periods: 20,
        cfg,
        profiles: workloads,
        faults: FaultScript::none(),
        dup_permille: 0,
        jitter_ms: 0,
    };
    let run = MultiplexedDaemon.run(&scenario).expect("daemon runs");
    let violations = check_run(&scenario, &run);
    assert!(violations.is_empty(), "daemon: {violations:#?}");
    assert!(run.snapshots.iter().all(|cut| cut.consistent_cut));
    let share = Power::from_watts_u64(160);
    let (donor_cap, rcpt_cap) = (run.final_caps[0], run.final_caps[1]);
    assert!(rcpt_cap > share, "daemon: recipient at {rcpt_cap}");
    assert!(donor_cap < share, "daemon: donor at {donor_cap}");
}

#[test]
fn normalized_performance_pipeline() {
    // The metrics path used by Figs. 2-3, driven end to end over two pairs.
    let pairs = [(npb::dc(), npb::ep()), (npb::cg(), npb::ft())];
    let mut norms = Vec::new();
    for (a, b) in &pairs {
        let workloads: Vec<Profile> = (0..3)
            .map(|_| a.scaled(0.05))
            .chain((0..3).map(|_| b.scaled(0.05)))
            .collect();
        let budget = Power::from_watts_u64(6 * 140);
        let run = |system: SystemKind| {
            let cfg = ClusterConfig::checked(system, budget);
            ClusterSim::new(cfg, workloads.clone())
                .run(SimTime::from_secs(2000))
                .runtime_secs()
                .expect("finished")
        };
        norms.push(run(SystemKind::Fair) / run(SystemKind::Penelope));
    }
    let g = geometric_mean(&norms);
    assert!(g > 0.95, "Penelope badly under Fair: {g}");
    assert!(g < 2.0, "implausible speedup: {g}");
}

#[test]
fn fault_script_composition_end_to_end() {
    // Drop rate + partition + node kill + heal, all in one Penelope run.
    let profiles: Vec<Profile> = (0..6).map(|_| npb::lu().scaled(0.1)).collect();
    let mut cfg = ClusterConfig::checked(SystemKind::Penelope, Power::from_watts_u64(6 * 160));
    cfg.seed = 99;
    let mut sim = ClusterSim::new(cfg, profiles);
    let left: Vec<NodeId> = (0..3).map(NodeId::new).collect();
    let right: Vec<NodeId> = (3..6).map(NodeId::new).collect();
    sim.install_faults(
        &FaultScript::none()
            .at(SimTime::from_secs(2), FaultAction::SetDropRate(0.1))
            .at(
                SimTime::from_secs(5),
                FaultAction::Partition(vec![left, right]),
            )
            .at(SimTime::from_secs(10), FaultAction::Kill(NodeId::new(5)))
            .at(SimTime::from_secs(15), FaultAction::Heal),
    );
    let report = sim.run(SimTime::from_secs(2000));
    assert!(report.conservation_ok);
    assert_eq!(report.dead, vec![NodeId::new(5)]);
    // Survivors finish despite the chaos.
    assert!(report.runtime_secs().is_some());
}
