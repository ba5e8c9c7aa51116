//! Cross-substrate conformance: the same scenarios on the DES simulator
//! and the daemon's reactor multiplexed on real UDP datagrams, with the
//! safety invariants checked every period on both. (The exact sim↔daemon
//! comparison, equal protocol-event streams, is `tests/trace_conformance.rs`.)
//!
//! These are the tentpole tests of the conformance harness: if any
//! substrate mints power, lets a cap escape the safe range, or unbalances
//! a pool ledger, the failure report carries the scenario's reproducing
//! seed.

use penelope::conformance::{
    at_period, check_run, churn_scenario, lossy_wire_scenario, node_fault_scenario,
    noisy_power_scenario, nominal_scenario, partition_churn_scenario, Invariant, MultiplexedDaemon,
    NodeSnapshot, Scenario, SimSubstrate, Snapshot, Substrate, SubstrateRun,
};
use penelope::units::{NodeId, Power};
use penelope::workload::Phase;
use penelope_sim::FaultAction;
use penelope_trace::EventKind;

fn watts(w: u64) -> Power {
    Power::from_watts_u64(w)
}

/// Runs `scenario` on both legs and holds each to `check_run`, with one
/// cut per period.
fn check_all_substrates(scenario: &Scenario) {
    for leg in [&SimSubstrate as &dyn Substrate, &MultiplexedDaemon] {
        let run = leg.run(scenario).expect("substrate runs");
        let violations = check_run(scenario, &run);
        assert!(
            violations.is_empty(),
            "{} on {} (seed {:#x}): {violations:#?}",
            scenario.name,
            leg.name(),
            scenario.cfg.seed
        );
        assert_eq!(
            run.snapshots.len() as u64,
            scenario.periods,
            "{}",
            leg.name()
        );
    }
}

#[test]
fn nominal_scenario_is_conformant_on_all_substrates() {
    check_all_substrates(&nominal_scenario(0x5EED_0001));
}

#[test]
fn node_fault_scenario_is_conformant_on_all_substrates() {
    check_all_substrates(&node_fault_scenario(0x5EED_0002));
}

#[test]
fn noisy_power_scenario_is_conformant_on_all_substrates() {
    check_all_substrates(&noisy_power_scenario(0x5EED_0003));
}

#[test]
fn fault_scenario_actually_kills_the_node_everywhere() {
    let scenario = node_fault_scenario(0x5EED_0004);
    for s in [&SimSubstrate as &dyn Substrate, &MultiplexedDaemon] {
        let run = s.run(&scenario).expect("substrate runs");
        assert!(
            !run.final_alive[1],
            "{}: node 1 should be dead at the end",
            s.name()
        );
        let last = run.snapshots.last().expect("snapshots");
        assert!(!last.nodes[1].alive);
        assert!(
            !last.lost.is_zero(),
            "{}: the killed node's holdings must be retired as lost",
            s.name()
        );
    }
}

#[test]
fn sim_consistent_cuts_report_in_flight_power() {
    // On a consistent cut the accounted total must equal the budget
    // *including* in-flight power — check the field is actually being fed
    // by running a scenario busy enough to have requests airborne.
    let scenario = nominal_scenario(0x5EED_0005);
    let run = SimSubstrate.run(&scenario).expect("sim runs");
    assert!(check_run(&scenario, &run).is_empty());
    assert!(run.snapshots.iter().all(|snap| snap.consistent_cut));
}

// ---------------------------------------------------------------------
// The daemon leg: consistent cuts, replay, urgency
// ---------------------------------------------------------------------

#[test]
fn the_daemon_legs_books_are_exact_at_every_period() {
    // Each round is pumped until every frame it sent — and every copy the
    // shim added — has been dispatched, so the cut between rounds is a
    // consistent global state and zero-sum holds at every period, not
    // only at the end: under kills, restarts, loss and duplication.
    let wire = lossy_wire_scenario(0x5EED_0A01, 100, 150, 0, 12);
    for scenario in [
        nominal_scenario(0x5EED_0A02),
        node_fault_scenario(0x5EED_0A03),
        churn_scenario(0x5EED_0A04, 200, 16),
        partition_churn_scenario(0x5EED_0A05, 16),
        wire,
    ] {
        // `check_run` holds every consistent cut to the exact budget.
        let run = MultiplexedDaemon.run(&scenario).expect("daemon leg runs");
        let violations = check_run(&scenario, &run);
        assert!(violations.is_empty(), "{}: {violations:#?}", scenario.name);
        assert_eq!(run.snapshots.len() as u64, scenario.periods);
        for snap in &run.snapshots {
            assert!(
                snap.consistent_cut,
                "{}: period {}",
                scenario.name, snap.period
            );
        }
    }
}

#[test]
fn the_daemon_leg_stamps_round_p_as_period_p() {
    // Round `p` ticks at `p × PERIOD`, the instant the simulator ticks
    // period `p` at. A multiplexer that ticked a period late stamped round
    // `p`'s events `p + 1`, read the plant a period late, and lost its
    // last round to any `period < periods` filter. Loss-free, every grant
    // lands within its round, so every node classifies once per round.
    let scenario = nominal_scenario(0x5EED_0A07);
    let run = MultiplexedDaemon.run(&scenario).expect("runs");
    for node in (0..scenario.nodes() as u32).map(NodeId::new) {
        let classified: Vec<(u64, u64)> = run
            .events
            .iter()
            .filter(|e| e.node == node && matches!(e.kind, EventKind::Classified { .. }))
            .map(|e| (e.period, e.at.as_nanos()))
            .collect();
        let rounds: Vec<(u64, u64)> = (0..scenario.periods)
            .map(|p| (p, at_period(p).as_nanos()))
            .collect();
        assert_eq!(classified, rounds, "node {}", node.raw());
    }
}

#[test]
fn the_daemon_leg_replays_a_seed_bit_identically() {
    // With no wire delay — the one wall-clock input — a seed fixes every
    // frame's fate and every engine input: two runs agree cut for cut and
    // event for event, under loss, duplication, a partition and a crash
    // and restart inside it.
    let halves = vec![
        vec![NodeId::new(0), NodeId::new(1)],
        vec![NodeId::new(2), NodeId::new(3)],
    ];
    let mut scenario = lossy_wire_scenario(0x5EED_4E01, 150, 400, 0, 14);
    scenario.faults = scenario
        .faults
        .at(at_period(3), FaultAction::Partition(halves))
        .at(at_period(5), FaultAction::Kill(NodeId::new(2)))
        .at(at_period(8), FaultAction::Heal)
        .restart_at(at_period(9), NodeId::new(2));
    let a = MultiplexedDaemon.run(&scenario).expect("runs");
    let b = MultiplexedDaemon.run(&scenario).expect("reruns");
    assert!(check_run(&scenario, &a).is_empty());
    assert!(a.injected_drops() > 0 && a.duplicated > Some(0), "{a:?}");
    assert!(
        a.final_alive.iter().all(|alive| *alive),
        "node 2 never came back"
    );
    assert_eq!(a.snapshots, b.snapshots, "same seed, other books");
    assert_eq!(a.events, b.events, "same seed, other events");
    assert_eq!(
        (a.injected_drops(), a.duplicated),
        (b.injected_drops(), b.duplicated)
    );

    let mut reseeded = scenario.clone();
    reseeded.cfg.seed += 1;
    let c = MultiplexedDaemon.run(&reseeded).expect("runs");
    assert_ne!(a.snapshots, c.snapshots, "the seed fixes nothing");
}

#[test]
fn a_donor_goes_urgent_and_recovers_on_the_daemon_leg() {
    // A donor (100 W) beside one hungry node (250 W), both at 160 W: the
    // donor sheds its excess, the hungry node drains the donor's pool, and
    // the donor — now below its initial cap and short of power — asks
    // urgently, with alpha, is served, and ends at its demand. On the
    // virtual clock this order is fixed; on the wall clock whether the
    // donor ever goes short depends on how the two nodes' ticks interleave
    // (`penelope-daemon`'s `udp_cluster::urgency_recovers_over_udp`).
    let scenario = Scenario::new(
        "urgency",
        0x5EED_0A06,
        40,
        [
            vec![Phase::new(watts(100), 600.0)],
            vec![Phase::new(watts(250), 600.0)],
        ],
    );
    let run = MultiplexedDaemon.run(&scenario).expect("runs");
    assert!(check_run(&scenario, &run).is_empty());
    let events = &run.events;
    let (donor, hungry) = (NodeId::new(0), NodeId::new(1));
    let first_urgent = events
        .iter()
        .find(|e| e.node == donor && matches!(e.kind, EventKind::RequestSent { urgent: true, .. }))
        .expect("the donor never went urgent");
    assert!(
        matches!(first_urgent.kind, EventKind::RequestSent { alpha, .. } if !alpha.is_zero()),
        "an urgent request without alpha: {first_urgent:?}"
    );
    assert!(
        events
            .iter()
            .any(|e| e.node == hungry && e.kind == EventKind::UrgencyRaised { by: donor }),
        "the hungry node never served the donor urgently"
    );
    assert!(
        events.iter().any(|e| {
            e.node == donor
                && e.at >= first_urgent.at
                && matches!(e.kind, EventKind::GrantApplied { applied, .. } if !applied.is_zero())
        }),
        "no power came back to the donor"
    );
    assert!(
        run.final_caps[0] >= watts(100),
        "donor stranded below its demand: {:?}",
        run.final_caps[0]
    );
}

// ---------------------------------------------------------------------
// The deliberately buggy substrate: double-applied grants
// ---------------------------------------------------------------------

/// A miniature two-node substrate whose transport re-applies every pool
/// grant twice — the classic retransmission-without-dedup conservation
/// bug. The pools themselves are the real `PowerPool` (and stay
/// internally balanced); the *system* mints power, which only the
/// cross-node conformance sums can see.
struct DoubleApplyBug;

impl Substrate for DoubleApplyBug {
    fn name(&self) -> &'static str {
        "double-apply"
    }

    fn run(&self, scenario: &Scenario) -> Result<SubstrateRun, String> {
        use penelope::core::{PoolConfig, PowerPool};
        let budget_each = scenario.budget_per_node();
        let mut donor_cap = budget_each;
        let mut taker_cap = budget_each;
        let mut pool = PowerPool::new(PoolConfig::default());
        let mut snapshots = Vec::new();
        for p in 0..scenario.periods {
            // Donor sheds 10 W into its pool (zero-sum, correct).
            let shed = watts(10).min(donor_cap);
            donor_cap -= shed;
            pool.deposit(shed);
            // Taker requests; the grant is debited once...
            let amount = pool.handle_request(false, Power::ZERO);
            // ...but the buggy transport delivers it twice.
            taker_cap = taker_cap + amount + amount;
            let row = |node, cap, pool: &PowerPool| NodeSnapshot::of(node, true, cap, pool);
            let empty = PowerPool::new(PoolConfig::default());
            snapshots.push(Snapshot {
                period: p,
                consistent_cut: true,
                in_flight: Power::ZERO,
                lost: Power::ZERO,
                nodes: vec![row(0, donor_cap, &pool), row(1, taker_cap, &empty)],
            });
        }
        Ok(SubstrateRun {
            substrate: self.name().into(),
            snapshots,
            final_caps: vec![donor_cap, taker_cap],
            final_alive: vec![true, true],
            final_total: donor_cap + taker_cap + pool.available(),
            duplicated: None,
            delayed: None,
            events: Vec::new(),
        })
    }
}

/// Two light nodes: the scenario the buggy substrate is handed.
fn two_node_scenario(name: &str, seed: u64, periods: u64) -> Scenario {
    let light = vec![Phase::new(watts(100), 60.0)];
    let mut s = Scenario::new(name, seed, periods, [light.clone(), light]);
    s.cfg.node.safe_range = penelope::units::PowerRange::from_watts(80, 400);
    s
}

#[test]
fn injected_double_grant_bug_is_caught_with_reproducing_seed() {
    let scenario = two_node_scenario("double-grant-injection", 0xBAD_5EED, 6);
    let run = DoubleApplyBug.run(&scenario).expect("bug substrate runs");
    let violations = check_run(&scenario, &run);
    assert!(
        violations
            .iter()
            .any(|v| v.invariant == Invariant::NoMinting),
        "double-applied grants must read as minted power, got {violations:?}"
    );
    assert!(
        violations.iter().any(|v| v.invariant == Invariant::ZeroSum),
        "consistent cuts must also fail zero-sum, got {violations:?}"
    );
    // Every violation names the reproducing seed, and the human-readable
    // report surfaces it in hex.
    assert!(violations.iter().all(|v| v.seed == 0xBAD_5EED));
    let rendered = violations[0].to_string();
    assert!(
        rendered.contains("0x000000000bad5eed"),
        "rendered violation should carry the seed: {rendered}"
    );
    // The pools themselves stayed balanced — only cross-node accounting
    // exposes the bug, which is exactly why the harness checks it.
    assert!(
        !violations
            .iter()
            .any(|v| v.invariant == Invariant::PoolBalanced),
        "the pool ledger itself is consistent; the transport minted the power"
    );
}

#[test]
fn violations_render_readably() {
    let scenario = two_node_scenario("render", 0xFACE, 3);
    let run = DoubleApplyBug.run(&scenario).expect("bug substrate runs");
    let violations = check_run(&scenario, &run);
    assert!(!violations.is_empty());
    let rendered: String = violations.iter().map(|v| format!("{v}\n")).collect();
    assert!(rendered.contains("NoMinting"), "{rendered}");
    assert!(rendered.contains("seed=0x000000000000face"), "{rendered}");
}
