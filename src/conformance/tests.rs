//! What `check_run`, `check_divergence` and the oracle flag, on hand-built
//! runs.

use super::*;

/// Two hungry nodes for two periods, under `faults`.
fn scenario(faults: FaultScript) -> Scenario {
    let hungry = vec![Phase::new(watts(200), 10.0)];
    let mut s = Scenario::new("unit", 0xABCD, 2, [hungry.clone(), hungry]);
    s.faults = faults;
    s
}

fn drop_rate_from(period: u64, rate: f64) -> FaultScript {
    FaultScript::none().at(at_period(period), FaultAction::SetDropRate(rate))
}

fn node(n: u32, cap: u64, avail: u64, dep: u64, granted: u64) -> NodeSnapshot {
    NodeSnapshot {
        node: n,
        alive: true,
        cap: watts(cap),
        pool_available: watts(avail),
        pool_deposited: watts(dep),
        pool_granted: watts(granted),
        pool_drained: Power::ZERO,
    }
}

fn cut(period: u64, consistent_cut: bool, lost: u64, nodes: [NodeSnapshot; 2]) -> Snapshot {
    Snapshot {
        period,
        consistent_cut,
        in_flight: Power::ZERO,
        lost: watts(lost),
        nodes: nodes.to_vec(),
    }
}

/// Books that balance (310 live + 10 lost = 320) with 10 W retired.
fn cut_with_loss() -> Snapshot {
    cut(0, true, 10, [node(0, 150, 0, 0, 0), node(1, 160, 0, 0, 0)])
}

fn run_of(snaps: Vec<Snapshot>, total: u64) -> SubstrateRun {
    SubstrateRun {
        substrate: "unit".into(),
        snapshots: snaps,
        final_caps: vec![watts(160), watts(160)],
        final_alive: vec![true, true],
        final_total: watts(total),
        injected_drops: None,
        send_attempts: None,
        duplicated: None,
        delayed: None,
    }
}

fn broken(scenario: &Scenario, run: &SubstrateRun) -> Vec<Invariant> {
    check_run(scenario, run)
        .iter()
        .map(|v| v.invariant)
        .collect()
}

#[test]
fn balanced_snapshot_is_conformant() {
    let snap = cut(
        0,
        true,
        0,
        [node(0, 150, 10, 30, 20), node(1, 160, 0, 0, 0)],
    );
    let run = run_of(vec![snap], 320);
    assert!(check_run(&scenario(FaultScript::none()), &run).is_empty());
}

#[test]
fn minting_detected_on_consistent_cut() {
    // 200 + 160 > 320 budget: a watt was minted somewhere.
    let snap = cut(0, true, 0, [node(0, 200, 0, 0, 0), node(1, 160, 0, 0, 0)]);
    let run = run_of(vec![snap], 320);
    let v = check_run(&scenario(FaultScript::none()), &run);
    assert!(
        v.iter().any(|v| v.invariant == Invariant::NoMinting),
        "{v:?}"
    );
    assert!(v.iter().all(|v| v.seed == 0xABCD));
}

#[test]
fn undercount_is_zero_sum_violation_but_not_minting() {
    let snap = cut(1, true, 0, [node(0, 150, 0, 0, 0), node(1, 160, 0, 0, 0)]);
    let v = broken(&scenario(FaultScript::none()), &run_of(vec![snap], 310));
    assert!(v.contains(&Invariant::ZeroSum));
    assert!(!v.contains(&Invariant::NoMinting));
}

#[test]
fn inconsistent_cut_skips_cross_node_sums() {
    // Would be minting on a consistent cut; tolerated on an async one.
    let snap = cut(0, false, 0, [node(0, 200, 0, 0, 0), node(1, 160, 0, 0, 0)]);
    let run = run_of(vec![snap], 320);
    assert!(check_run(&scenario(FaultScript::none()), &run).is_empty());
}

#[test]
fn unsafe_cap_and_unbalanced_pool_detected_everywhere() {
    let bad = node(0, 301, 0, 0, 0); // above safe max
    let unbalanced = node(1, 160, 5, 10, 0); // 10 != 0 + 0 + 5
    let run = run_of(vec![cut(0, false, 0, [bad, unbalanced])], 320);
    let v = broken(&scenario(FaultScript::none()), &run);
    assert!(v.contains(&Invariant::CapWithinSafe));
    assert!(v.contains(&Invariant::PoolBalanced));
}

#[test]
fn lost_power_under_random_loss_is_flagged() {
    let sc = scenario(drop_rate_from(0, 0.2));
    assert_eq!(sc.drop_rate_in(0), 0.2);
    assert_eq!(scenario(FaultScript::none()).drop_rate_in(1), 0.0);
    // Totals balance, but a lossy run with no dead nodes has nothing
    // legitimate to retire.
    let v = broken(&sc, &run_of(vec![cut_with_loss()], 320));
    assert!(v.contains(&Invariant::NoPeerLoss), "{v:?}");
    assert!(!v.contains(&Invariant::ZeroSum));
}

#[test]
fn a_mid_run_drop_rate_alone_is_still_held_to_no_peer_loss() {
    let sc = scenario(drop_rate_from(1, 0.3));
    assert_eq!((sc.drop_rate_in(0), sc.drop_rate_in(1)), (0.0, 0.3));
    assert!(!sc.kills_a_node());
    let v = broken(&sc, &run_of(vec![cut_with_loss()], 320));
    assert!(v.contains(&Invariant::NoPeerLoss), "{v:?}");
}

#[test]
fn vacuous_lossy_run_is_flagged() {
    let sc = scenario(drop_rate_from(0, 0.2));
    let snap = cut(0, true, 0, [node(0, 160, 0, 0, 0), node(1, 160, 0, 0, 0)]);
    let vacuous = |sc: &Scenario, run: &SubstrateRun| {
        let v = check_run(sc, run);
        v.into_iter()
            .find(|v| v.invariant == Invariant::NonVacuousLoss)
    };
    // A substrate that counts drops but not attempts and counted
    // zero: the lossy run never demonstrably injected loss — flag it.
    let mut run = run_of(vec![snap], 320);
    run.injected_drops = Some(0);
    assert!(vacuous(&sc, &run).is_some());
    // Zero drops over heavy traffic is a dead fault plane (expected
    // 500 · 0.2 = 100 drops), flagged with the attempt count.
    run.send_attempts = Some(500);
    assert!(vacuous(&sc, &run).is_some_and(|v| v.detail.contains("500")));
    // Zero drops over thin traffic is honest randomness (expected
    // 40 · 0.2 = 8 < 20): no violation.
    run.send_attempts = Some(40);
    assert!(vacuous(&sc, &run).is_none());
    // Real drops pass; so does a substrate that does not count.
    run.send_attempts = None;
    run.injected_drops = Some(7);
    assert!(vacuous(&sc, &run).is_none());
    run.injected_drops = None;
    assert!(vacuous(&sc, &run).is_none());
    // And a fault-free scenario never triggers the guard.
    run.injected_drops = Some(0);
    assert!(vacuous(&scenario(FaultScript::none()), &run).is_none());
}

#[test]
fn a_late_drop_rate_is_judged_against_the_attempts_made_under_it() {
    // 20 % from period 8 of 10: a fifth of 400 attempts were made under
    // the rate, 16 expected drops — zero is still honest. The same
    // count under a rate in force from the start expects 80.
    let mut run = run_of(vec![], 320);
    run.injected_drops = Some(0);
    run.send_attempts = Some(400);
    for (from, flagged) in [(8, false), (0, true)] {
        let mut sc = scenario(drop_rate_from(from, 0.2));
        sc.periods = 10;
        let v = broken(&sc, &run);
        assert_eq!(v.contains(&Invariant::NonVacuousLoss), flagged, "{from}");
    }
}

#[test]
fn kill_restart_carries_its_drop_rate_but_tolerates_losses() {
    let churn = FaultScript::kill_restart(NodeId::new(1), at_period(3), at_period(9))
        .at(at_period(0), FaultAction::SetDropRate(0.2));
    let sc = scenario(churn);
    assert_eq!(sc.drop_rate_in(1), 0.2);
    assert!(sc.kills_a_node());
    // Unlike a pure lossy run, churn legitimately retires power while
    // the node is down, so a non-zero `lost` is not a violation.
    let v = broken(&sc, &run_of(vec![cut_with_loss()], 320));
    assert!(!v.contains(&Invariant::NoPeerLoss));
    assert!(!v.contains(&Invariant::ZeroSum));
}

#[test]
fn partition_faults_are_pure_connectivity() {
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let split = FaultScript::none()
        .at(at_period(3), FaultAction::Partition(vec![vec![a], vec![b]]))
        .at(at_period(9), FaultAction::Heal)
        .at(at_period(0), FaultAction::SetDropRate(0.2));
    let deaf = FaultScript::none()
        .partition_link_at(at_period(3), a, b)
        .heal_link_at(at_period(9), a, b);
    let flap = FaultScript::none()
        .isolate_at(at_period(3), b, 2)
        .heal_link_at(at_period(4), a, b)
        .heal_link_at(at_period(4), b, a);
    // A restart of a node nothing killed is a no-op, not a death.
    let idle_restart = FaultScript::none().restart_at(at_period(1), b);
    for faults in [split, deaf, flap, idle_restart] {
        let sc = scenario(faults);
        assert!(!sc.kills_a_node(), "{:?}", sc.faults);
        // Nothing is retired: `lost` is a violation on every snapshot.
        let v = broken(&sc, &run_of(vec![cut_with_loss()], 320));
        assert!(v.contains(&Invariant::NoPeerLoss), "{:?}: {v:?}", sc.faults);
    }
}

#[test]
fn partition_churn_tolerates_retired_power() {
    let (a, b) = (NodeId::new(0), NodeId::new(1));
    let sc = scenario(
        FaultScript::none()
            .at(at_period(2), FaultAction::Partition(vec![vec![a], vec![b]]))
            .at(at_period(3), FaultAction::Kill(b))
            .at(at_period(8), FaultAction::Heal)
            .restart_at(at_period(8), b),
    );
    assert!(sc.kills_a_node());
    let mut snap = cut_with_loss();
    snap.period = 4;
    let v = broken(&sc, &run_of(vec![snap], 320));
    assert!(!v.contains(&Invariant::NoPeerLoss));
}

#[test]
fn convergence_bound_violation_renders() {
    let v = Violation {
        invariant: Invariant::ConvergenceBound,
        substrate: "sim".into(),
        seed: 0xFEED,
        period: 7,
        node: Some(3),
        detail: "suspicion of node 1 took 5 rounds, bound 3".into(),
    };
    let s = v.to_string();
    assert!(
        s.contains("ConvergenceBound") && s.contains("node=3"),
        "{s}"
    );
}

#[test]
fn divergence_bound_flags_drift() {
    let a = run_of(vec![], 320);
    let mut b = run_of(vec![], 320);
    b.substrate = "other".into();
    b.final_caps = vec![watts(160), watts(200)];
    let bound = DivergenceBound {
        max_cap_diff: watts(20),
        max_total_diff: watts(1),
    };
    let d = check_divergence(&scenario(FaultScript::none()), &a, &b, bound);
    assert_eq!(d.len(), 1, "{d:?}");
    assert!(d[0].contains("node 1"));
}

#[test]
fn oracle_orderings() {
    use oracle::*;
    let nominal = PerfTriple {
        penelope: 0.95,
        fair: 0.96,
        slurm: 0.94,
    };
    assert!(check_nominal(nominal, 0.05).is_ok());
    assert!(check_nominal(
        PerfTriple {
            penelope: 0.5,
            ..nominal
        },
        0.05
    )
    .is_err());
    let faulty = PerfTriple {
        penelope: 0.9,
        fair: 0.6,
        slurm: 0.8,
    };
    assert!(check_fault_advantage(faulty, 0.2).is_ok());
    assert!(check_fault_advantage(
        PerfTriple {
            penelope: 0.61,
            ..faulty
        },
        0.2
    )
    .is_err());
    assert!(check_centralized_no_better(faulty, 0.05).is_ok());
}
