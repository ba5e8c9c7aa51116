//! Property tests of the system-wide safety invariant across the whole
//! stack: for arbitrary workload mixes, budgets, seeds and fault schedules,
//! no power-management system ever mints power — the conservation ledger
//! holds after every event (asserted inside the simulator when
//! `check_invariants` is on), and the budget is fully accounted at the end.

use penelope::prelude::*;
use penelope::sim::ClusterConfig;
use penelope_testkit::prop::{self, any_bool, any_u64, vec_of, Gen};

/// Each case runs whole 600 s simulations, so these run 24 cases, not 64.
const CASES: u32 = 24;

fn workload_strategy(n: usize) -> impl Gen<Value = Vec<Profile>> {
    vec_of((100u64..260, 5.0f64..40.0, 0usize..3), n..n + 1).prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (demand, work, shape))| {
                let perf = PerfModel::new(Power::from_watts_u64(60), 0.7);
                let phases = match shape {
                    0 => vec![Phase::new(Power::from_watts_u64(demand), work)],
                    1 => vec![
                        Phase::new(Power::from_watts_u64(demand), work / 2.0),
                        Phase::new(
                            Power::from_watts_u64(demand.saturating_sub(40).max(70)),
                            work / 2.0,
                        ),
                    ],
                    _ => vec![
                        Phase::new(
                            Power::from_watts_u64(demand.saturating_sub(60).max(70)),
                            work / 2.0,
                        ),
                        Phase::new(Power::from_watts_u64(demand), work / 2.0),
                    ],
                };
                Profile::new(format!("w{i}"), phases, perf)
            })
            .collect()
    })
}

fn assert_sim_conserves(
    system: SystemKind,
    workloads: Vec<Profile>,
    seed: u64,
    budget_per_node_w: u64,
    faults: FaultScript,
) {
    assert_sim_conserves_noisy(system, workloads, seed, budget_per_node_w, faults, 0.0)
}

fn assert_sim_conserves_noisy(
    system: SystemKind,
    workloads: Vec<Profile>,
    seed: u64,
    budget_per_node_w: u64,
    faults: FaultScript,
    read_noise_std: f64,
) {
    let n = workloads.len();
    let mut cfg =
        ClusterConfig::checked(system, Power::from_watts_u64(budget_per_node_w * n as u64));
    cfg.rapl.read_noise_std = read_noise_std;
    cfg.seed = seed;
    let mut sim = ClusterSim::new(cfg, workloads);
    sim.install_faults(&faults);
    // `checked` configs panic inside the run on any ledger violation; the
    // report flag is belt and braces.
    let report = sim.run(SimTime::from_secs(600));
    assert!(report.conservation_ok);
}

#[test]
fn penelope_conserves_power() {
    prop::check(
        "penelope_conserves_power",
        prop::Config::with_cases(CASES),
        (workload_strategy(6), any_u64(), 140u64..220),
        |(workloads, seed, budget)| {
            assert_sim_conserves(
                SystemKind::Penelope,
                workloads,
                seed,
                budget,
                FaultScript::none(),
            );
        },
    );
}

#[test]
fn slurm_conserves_power() {
    prop::check(
        "slurm_conserves_power",
        prop::Config::with_cases(CASES),
        (workload_strategy(6), any_u64(), 140u64..220),
        |(workloads, seed, budget)| {
            assert_sim_conserves(
                SystemKind::Slurm,
                workloads,
                seed,
                budget,
                FaultScript::none(),
            );
        },
    );
}

#[test]
fn penelope_conserves_power_under_faults() {
    prop::check(
        "penelope_conserves_power_under_faults",
        prop::Config::with_cases(CASES),
        (
            workload_strategy(6),
            any_u64(),
            1u64..60,
            0u32..6,
            0.0f64..0.4,
        ),
        |(workloads, seed, kill_at, victim, drop_rate)| {
            let faults = FaultScript::none()
                .at(SimTime::ZERO, FaultAction::SetDropRate(drop_rate))
                .at(
                    SimTime::from_secs(kill_at),
                    FaultAction::Kill(NodeId::new(victim)),
                );
            assert_sim_conserves(SystemKind::Penelope, workloads, seed, 160, faults);
        },
    );
}

#[test]
fn slurm_conserves_power_under_server_and_client_faults() {
    prop::check(
        "slurm_conserves_power_under_server_and_client_faults",
        prop::Config::with_cases(CASES),
        (workload_strategy(6), any_u64(), 1u64..60, any_bool()),
        |(workloads, seed, kill_at, kill_client_too)| {
            let mut faults = FaultScript::kill_server_at(SimTime::from_secs(kill_at));
            if kill_client_too {
                faults = faults.at(
                    SimTime::from_secs(kill_at + 5),
                    FaultAction::Kill(NodeId::new(2)),
                );
            }
            assert_sim_conserves(SystemKind::Slurm, workloads, seed, 160, faults);
        },
    );
}

#[test]
fn conservation_survives_noisy_power_readings() {
    prop::check(
        "conservation_survives_noisy_power_readings",
        prop::Config::with_cases(CASES),
        (workload_strategy(6), any_u64(), 0.0f64..0.10, any_bool()),
        |(workloads, seed, noise, slurm)| {
            // Real RAPL readings are noisy; deciders then misjudge excess and
            // hunger — but every action stays zero-sum, so the ledger must
            // hold no matter how wrong the readings are.
            let system = if slurm {
                SystemKind::Slurm
            } else {
                SystemKind::Penelope
            };
            assert_sim_conserves_noisy(system, workloads, seed, 160, FaultScript::none(), noise);
        },
    );
}

#[test]
fn penelope_conserves_power_under_partitions() {
    prop::check(
        "penelope_conserves_power_under_partitions",
        prop::Config::with_cases(CASES),
        (workload_strategy(6), any_u64(), 1u64..30, 31u64..90),
        |(workloads, seed, split_at, heal_at)| {
            let left: Vec<NodeId> = (0..3).map(NodeId::new).collect();
            let right: Vec<NodeId> = (3..6).map(NodeId::new).collect();
            let faults = FaultScript::none()
                .at(
                    SimTime::from_secs(split_at),
                    FaultAction::Partition(vec![left, right]),
                )
                .at(SimTime::from_secs(heal_at), FaultAction::Heal);
            assert_sim_conserves(SystemKind::Penelope, workloads, seed, 160, faults);
        },
    );
}
