//! What `check_run`, `normalize_protocol` and the oracle flag, on hand-built
//! runs.

use penelope_trace::Stamper;

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

/// A run of `snaps` ending on `total`, in which node 0 sends one request.
fn run_of(snaps: Vec<Snapshot>, total: u64) -> SubstrateRun {
    SubstrateRun {
        substrate: "unit".into(),
        snapshots: snaps,
        final_caps: vec![watts(160), watts(160)],
        final_alive: vec![true, true],
        final_total: watts(total),
        duplicated: None,
        delayed: None,
        events: stream([sent(0, 0)]),
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

/// A stream of `sent` delivered sends and `dropped` drops from node 0.
fn traffic(sent: usize, dropped: usize) -> Vec<TraceEvent> {
    let (dst, carried) = (NodeId::new(1), Power::ZERO);
    let sends = std::iter::repeat_n((0, EventKind::MsgSent { dst, carried }), sent);
    let drops = std::iter::repeat_n((0, EventKind::MsgDropped { dst, carried }), dropped);
    stream(sends.chain(drops))
}

#[test]
fn drops_and_attempts_are_counted_off_the_stream() {
    let mut run = run_of(vec![], 320);
    run.events = traffic(30, 4);
    let ack = EventKind::AckDropped {
        dst: NodeId::new(1),
        seq: 3,
    };
    run.events.extend(stream([(0, ack)]));
    assert_eq!((run.injected_drops(), run.send_attempts()), (5, 35));
}

#[test]
fn vacuous_lossy_run_is_flagged() {
    let sc = scenario(drop_rate_from(0, 0.2));
    let snap = cut(0, true, 0, [node(0, 160, 0, 0, 0), node(1, 160, 0, 0, 0)]);
    let vacuous = |sc: &Scenario, events: Vec<TraceEvent>| {
        let mut run = run_of(vec![snap.clone()], 320);
        run.events.extend(events);
        let v = check_run(sc, &run);
        v.into_iter().find(|v| v.invariant == Invariant::NonVacuous)
    };
    // Zero drops over heavy traffic is a dead fault plane (expected
    // 500 · 0.2 = 100 drops), flagged with the attempt count.
    let dead = vacuous(&sc, traffic(500, 0));
    assert!(dead.is_some_and(|v| v.detail.contains("500")));
    // Zero drops over thin traffic is honest randomness (expected
    // 40 · 0.2 = 8 < 20): no violation.
    assert!(vacuous(&sc, traffic(40, 0)).is_none());
    // Real drops pass.
    assert!(vacuous(&sc, traffic(493, 7)).is_none());
    // And a fault-free scenario never triggers the guard.
    assert!(vacuous(&scenario(FaultScript::none()), traffic(500, 0)).is_none());
}

#[test]
fn a_late_drop_rate_is_judged_against_the_attempts_made_under_it() {
    // 20 % from period 8 of 10: a fifth of 400 attempts were made under
    // the rate, 16 expected drops — zero is still honest. The same
    // count under a rate in force from the start expects 80.
    let mut run = run_of(vec![], 320);
    run.events.extend(traffic(400, 0));
    for (from, flagged) in [(8, false), (0, true)] {
        let mut sc = scenario(drop_rate_from(from, 0.2));
        sc.periods = 10;
        let v = broken(&sc, &run);
        assert_eq!(v.contains(&Invariant::NonVacuous), flagged, "{from}");
    }
}

#[test]
fn a_run_that_sends_no_request_is_vacuous() {
    let mut run = run_of(vec![], 320);
    run.events.clear();
    let v = check_run(&scenario(FaultScript::none()), &run);
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].invariant, Invariant::NonVacuous);
    assert!(v[0].detail.contains("request"), "{}", v[0]);
}

#[test]
fn a_wire_that_never_duplicates_or_delays_is_flagged() {
    // 150 ‰ duplication over 500 attempts expects 75 copies; a leg that
    // counts and reports none never wired the leg in. Jitter delays every
    // datagram. A leg that cannot count (`None`) is not held to either.
    let mut sc = scenario(FaultScript::none());
    sc.dup_permille = 150;
    let mut run = run_of(vec![], 320);
    run.events.extend(traffic(500, 0));
    let flagged = |run: &SubstrateRun, sc: &Scenario| broken(sc, run) == [Invariant::NonVacuous];
    assert!(!flagged(&run, &sc));
    run.duplicated = Some(0);
    assert!(flagged(&run, &sc));
    run.duplicated = Some(70);
    assert!(!flagged(&run, &sc));
    (sc.dup_permille, sc.jitter_ms, run.delayed) = (0, 5, Some(0));
    assert!(flagged(&run, &sc));
    // Thin traffic (19 attempts) expects fewer than 20 copies.
    run.events.truncate(20);
    assert!(!flagged(&run, &sc));
}

/// Two balanced cuts, periods 0 and 1, with node 1's liveness `alive`
/// (a dead node's 160 W booked lost).
fn liveness_run(alive: [bool; 2], final_alive: bool) -> SubstrateRun {
    let cuts = alive.iter().enumerate().map(|(p, &up)| {
        let lost = if up { 0 } else { 160 };
        let mut c = cut(
            p as u64,
            true,
            lost,
            [node(0, 160, 0, 0, 0), node(1, 160, 0, 0, 0)],
        );
        c.nodes[1].alive = up;
        c
    });
    let mut run = run_of(cuts.collect(), 320);
    run.final_alive[1] = final_alive;
    run
}

#[test]
fn a_kill_the_cuts_never_show_is_flagged() {
    // Killed at the start of period 1: dead in cut 1, not in cut 0.
    let killed = scenario(FaultScript::kill_node_at(at_period(1), NodeId::new(1)));
    let v = check_run(&killed, &liveness_run([true, true], false));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(
        (v[0].invariant, v[0].period, v[0].node),
        (Invariant::NonVacuous, 1, Some(1))
    );
    // A kill read one cut early is as wrong as one never read.
    assert_eq!(
        broken(&killed, &liveness_run([false, false], false)),
        [Invariant::NonVacuous]
    );
    assert_eq!(broken(&killed, &liveness_run([true, false], false)), []);
}

#[test]
fn a_restart_the_end_state_ignores_is_flagged() {
    let churn = FaultScript::kill_restart(NodeId::new(1), at_period(0), at_period(1));
    let sc = scenario(churn);
    assert_eq!(broken(&sc, &liveness_run([false, true], true)), []);
    let v = check_run(&sc, &liveness_run([false, true], false));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(
        (v[0].invariant, v[0].period, v[0].node),
        (Invariant::NonVacuous, 2, Some(1))
    );
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
fn the_end_state_must_land_exactly_on_the_budget() {
    // Every cut balances, but the run ends 10 W short: power vanished
    // after the last cut, which only the end balance sees.
    let snap = cut(0, true, 0, [node(0, 150, 0, 0, 0), node(1, 170, 0, 0, 0)]);
    let sc = scenario(FaultScript::none());
    let v = check_run(&sc, &run_of(vec![snap], 310));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(
        (v[0].invariant, v[0].period),
        (Invariant::ZeroSum, sc.periods)
    );
}

#[test]
fn an_inconsistent_end_may_fall_short_but_never_exceed_the_budget() {
    // After a daemon write-off the last cut is inconsistent: a grant lost
    // with its frame is in no term, so the end may undercount — but power
    // beyond the budget is minted whatever the cut.
    let snap = cut(0, false, 0, [node(0, 150, 0, 0, 0), node(1, 160, 0, 0, 0)]);
    let sc = scenario(FaultScript::none());
    assert_eq!(broken(&sc, &run_of(vec![snap.clone()], 310)), []);
    let v = check_run(&sc, &run_of(vec![snap], 330));
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(
        (v[0].invariant, v[0].period),
        (Invariant::ZeroSum, sc.periods)
    );
}

#[test]
fn a_slurm_cluster_is_held_to_the_same_verdict() {
    // Every conformance scenario is a Penelope cluster; the simulator's
    // SLURM path serves and applies grants through the same events, so
    // its cuts and its stream meet the same rules.
    let mut sc = nominal_scenario(7);
    sc.cfg.system = SystemKind::Slurm;
    let run = assert_conformant(&SimSubstrate, &sc);
    let moved = run.events.iter().any(|ev| match ev.kind {
        EventKind::GrantApplied { granted, .. } => !granted.is_zero(),
        _ => false,
    });
    assert!(moved, "no grant moved power");
}

/// One hand-built event: the node it is recorded on, and what happened.
type Step = (u32, EventKind);

/// The stream `steps` make, each stamped in period 1 through a `Stamper`
/// into a ring, as every substrate records its own.
fn stream(steps: impl IntoIterator<Item = Step>) -> Vec<TraceEvent> {
    let ring = Arc::new(RingBufferObserver::unbounded());
    let stamper = Stamper::new(SharedObserver::from(Arc::clone(&ring)), PERIOD);
    for (node, kind) in steps {
        stamper.emit(at_period(1), NodeId::new(node), || kind);
    }
    ring.events()
}

/// Node 0's pool serves node 1's request `seq` with `granted` watts.
fn served(seq: u64, granted: u64) -> Step {
    let kind = EventKind::RequestServed {
        requester: NodeId::new(1),
        seq,
        granted: watts(granted),
        urgent: false,
    };
    (0, kind)
}

/// Node 1 applies a grant of `granted` watts for its request `seq`.
fn applied(seq: u64, granted: u64) -> Step {
    let kind = EventKind::GrantApplied {
        seq,
        granted: watts(granted),
        applied: watts(granted),
    };
    (1, kind)
}

/// `node` asks the other node for power under `seq`.
fn sent(node: u32, seq: u64) -> Step {
    let kind = EventKind::RequestSent {
        dst: NodeId::new(1 - node),
        urgent: false,
        alpha: Power::ZERO,
        seq,
    };
    (node, kind)
}

/// What `check_run` reports for the stream `steps` make, after node 0's
/// one request, on a run whose books balance.
fn stream_violations(steps: impl IntoIterator<Item = Step>) -> Vec<Violation> {
    let mut run = run_of(vec![], 320);
    run.events.extend(stream(steps));
    check_run(&scenario(FaultScript::none()), &run)
}

fn stream_breaks(steps: impl IntoIterator<Item = Step>) -> Vec<Invariant> {
    stream_violations(steps)
        .iter()
        .map(|v| v.invariant)
        .collect()
}

#[test]
fn a_zero_grant_retransmit_is_served_again() {
    // An empty pool's zero grant is not escrowed, so the retransmit of
    // that seq is served afresh — once more with nothing, then with power.
    let steps = [
        sent(1, 15),
        served(15, 0),
        applied(15, 0),
        sent(1, 15),
        served(15, 0),
        applied(15, 0),
        sent(1, 16),
        served(16, 5),
        applied(16, 5),
    ];
    assert_eq!(stream_breaks(steps), []);
}

#[test]
fn a_double_debit_is_flagged() {
    let v = stream_breaks([served(7, 5), served(7, 5), applied(7, 5)]);
    assert_eq!(v, [Invariant::SingleDebit]);
}

#[test]
fn a_double_apply_is_flagged() {
    let v = stream_breaks([served(7, 5), applied(7, 5), applied(7, 5)]);
    assert_eq!(v, [Invariant::GrantAppliedOnce]);
}

#[test]
fn pairing_accepts_served_never_applied() {
    // A grant to a dead node is served but never applied: legal.
    assert_eq!(stream_breaks([served(6, 5)]), []);
}

#[test]
fn pairing_rejects_unserved_grant() {
    // Power applied with no debit behind it is not.
    let v = stream_breaks([served(6, 5), applied(7, 5)]);
    assert_eq!(v, [Invariant::SingleDebit]);
}

#[test]
fn urgency_alternation_allows_raise_clear_raise() {
    let raised = (0, EventKind::UrgencyRaised { by: NodeId::new(1) });
    let released = Power::ZERO;
    let cleared = (0, EventKind::UrgencyCleared { released });
    let readmitted = watts(160);
    let reborn = (0, EventKind::NodeRestarted { readmitted });
    // Clears are idempotent, and a rebirth brings a fresh pool.
    let ok = [raised, cleared, cleared, raised, reborn, raised];
    assert_eq!(stream_breaks(ok), []);
    let v = stream_breaks([raised, raised]);
    assert_eq!(v, [Invariant::UrgencyAlternates]);
}

#[test]
fn seq_epochs_allow_repeats_and_reject_a_rewind() {
    // A retransmit repeats its seq; another node's seqs are its own.
    let clean = [sent(0, 4), sent(1, 0), sent(0, 4), sent(0, 5)];
    assert_eq!(stream_breaks(clean), []);
    let v = stream_violations([sent(0, 4), sent(0, 5), sent(0, 0)]);
    assert_eq!(v.len(), 1, "{v:?}");
    let (invariant, period, node) = (v[0].invariant, v[0].period, v[0].node);
    assert_eq!((invariant, period), (Invariant::SeqEpochMonotone, 1));
    assert_eq!(node, Some(0));
    assert!(v[0].detail.contains("5 -> 0"), "{}", v[0]);
}

#[test]
fn normalize_drops_transport_and_groups_by_node() {
    let (n0, n1, carried) = (NodeId::new(0), NodeId::new(1), Power::ZERO);
    let events = stream([
        (1, EventKind::MsgSent { dst: n0, carried }),
        served(7, 5),
        applied(7, 5),
        (0, EventKind::MsgRecv { src: n1, carried }),
    ]);
    let norm = normalize_protocol(&events);
    assert_eq!(norm.len(), 2);
    assert_eq!(norm[&0], [served(7, 5).1]);
    assert_eq!(norm[&1], [applied(7, 5).1]);
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
