//! Cross-substrate conformance: the same scenarios on the DES simulator,
//! the lockstep threaded runtime, and real UDP daemons, with the safety
//! invariants checked every period and sim↔runtime divergence bounded.
//!
//! These are the tentpole tests of the conformance harness: if any
//! substrate mints power, lets a cap escape the safe range, or unbalances
//! a pool ledger, the failure report carries the scenario's reproducing
//! seed.

use penelope::conformance::{
    check_run, node_fault_scenario, noisy_power_scenario, nominal_scenario, run_conformance,
    DivergenceBound, Invariant, LockstepRuntime, NodeSnapshot, Scenario, SimSubstrate, Snapshot,
    Substrate, SubstrateRun, UdpDaemonSubstrate,
};
use penelope::units::Power;
use penelope::workload::Phase;

fn watts(w: u64) -> Power {
    Power::from_watts_u64(w)
}

/// Generous but meaningful: substrates share algorithms and seeds but not
/// event interleaving, so caps may drift within the operating regime; a
/// substrate collapsing to the 80 W floor or pinning at the 300 W ceiling
/// while the other holds ~160 W is what this must catch.
fn bound() -> DivergenceBound {
    DivergenceBound {
        max_cap_diff: watts(70),
        max_total_diff: watts(1),
    }
}

fn check_all_substrates(scenario: &Scenario) {
    let sim = SimSubstrate;
    let runtime = LockstepRuntime;
    let daemon = UdpDaemonSubstrate;
    let substrates: [&dyn Substrate; 3] = [&sim, &runtime, &daemon];
    // Divergence is bounded for the deterministic pair (sim vs lockstep
    // runtime); the free-running daemons run on a different clock and are
    // held to the invariants, not to trajectory agreement.
    let report = run_conformance(scenario, &substrates, &[(0, 1)], bound());
    report.assert_conformant();
    assert_eq!(report.substrates, ["sim", "runtime", "daemon"]);
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
    for s in [&SimSubstrate as &dyn Substrate, &LockstepRuntime] {
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
    for snap in &run.snapshots {
        assert!(snap.consistent_cut);
        assert_eq!(
            snap.accounted_live() + snap.lost,
            scenario.cfg.budget,
            "period {}",
            snap.period
        );
    }
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
            let row = |node, cap, pool: &PowerPool| NodeSnapshot {
                node,
                alive: true,
                cap,
                pool_available: pool.available(),
                pool_deposited: pool.total_deposited(),
                pool_granted: pool.total_granted() + pool.total_taken_local(),
                pool_drained: pool.total_drained(),
            };
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
            injected_drops: None,
            send_attempts: None,
            duplicated: None,
            delayed: None,
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
fn conformance_report_renders_failures_readably() {
    let scenario = two_node_scenario("render", 0xFACE, 3);
    let bug = DoubleApplyBug;
    let substrates: [&dyn Substrate; 1] = [&bug];
    let report = run_conformance(&scenario, &substrates, &[], bound());
    assert!(!report.conformant());
    let rendered = report.render();
    assert!(rendered.contains("NoMinting"), "{rendered}");
    assert!(rendered.contains("seed=0x000000000000face"), "{rendered}");
}
