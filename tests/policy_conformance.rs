//! Cross-substrate conformance for the non-default decider policies.
//!
//! The `DeciderPolicy` seam swaps the tick-time urgency/threshold logic
//! (Alg. 1) while the shared engine — escrow, suspicion, gossip,
//! seq/epochs — stays byte-for-byte identical. These tests pin the two
//! claims that seam makes:
//!
//! 1. **Portability is policy-independent.** For an idealized scenario
//!    (zero latency, zero service time, exact meters) the simulator and
//!    the lockstep threaded runtime must emit *equal* normalized
//!    protocol-event streams under the predictive and market policies,
//!    exactly as they already must under urgency — including the new
//!    `BidPlaced` / `ForecastJump` events, which are part of the diffed
//!    protocol stream.
//! 2. **Conservation is policy-independent.** Every safety invariant
//!    (no minting, safe caps, pool balance, zero-sum on consistent cuts)
//!    holds under every policy, with and without message loss — a market
//!    bid in flight is just a request; losing it must strand zero power.

use penelope::conformance::{
    check_run, policy_scenario, LockstepRuntime, Scenario, SimSubstrate, Substrate,
};
use penelope_core::{DeciderPolicy, MarketConfig, PredictiveConfig};
use penelope_testkit::events::normalize_protocol;
use penelope_trace::{EventKind, TraceEvent};
use penelope_units::Power;
use penelope_workload::Phase;

fn watts(w: u64) -> Power {
    Power::from_watts_u64(w)
}

fn challenger_policies() -> [DeciderPolicy; 2] {
    [
        DeciderPolicy::Predictive(PredictiveConfig::default()),
        DeciderPolicy::Market(MarketConfig::default()),
    ]
}

/// A two-node exact-meter scenario in the mold of the urgency
/// stream-equality test (one pool with one possible requester, so serve
/// order is deterministic across substrates), re-run under `policy`.
/// Node 1 runs hungry for four periods and then *drops* to 100 W: a
/// falling demand edge shows up in the power reading at full size (a
/// rising one is clipped by the cap), so the predictive jump detector
/// provably fires on the ≥15 W downward step. Node 0 is hungry from the
/// start, so the market provably bids — and node 1's post-drop excess
/// gives the pool something to match those bids against.
fn ideal_policy_scenario(seed: u64, policy: DeciderPolicy) -> Scenario {
    let hungry = vec![Phase::new(watts(220), 60.0)];
    let falling = vec![Phase::new(watts(210), 4.0), Phase::new(watts(100), 60.0)];
    let name = format!("event-stream-{}", policy.name());
    let mut s = Scenario::new(name, seed, 10, [hungry, falling]).idealized();
    s.cfg.node.decider.policy = policy;
    s
}

/// The event kinds only one policy family can emit, used as non-vacuity
/// evidence that the scenario actually drove the policy-specific paths.
fn count_kind(events: &[TraceEvent], pred: fn(&EventKind) -> bool) -> usize {
    events.iter().filter(|e| pred(&e.kind)).count()
}

#[test]
fn sim_and_lockstep_emit_identical_streams_under_every_policy() {
    for policy in challenger_policies() {
        for seed in [11, 4242] {
            let scenario = ideal_policy_scenario(seed, policy);
            let (_, sim_events) = SimSubstrate.run_recorded(&scenario).expect("sim run");
            let (_, rt_events) = LockstepRuntime
                .run_recorded(&scenario)
                .expect("lockstep run");

            // The sim's final advance_to also fires the tick sitting on
            // the last boundary; compare complete periods only (same cut
            // the urgency-policy stream test uses).
            let cut = |evs: Vec<TraceEvent>| -> Vec<TraceEvent> {
                evs.into_iter()
                    .filter(|e| e.period < scenario.periods)
                    .collect()
            };
            let sim_events = cut(sim_events);
            let rt_events = cut(rt_events);

            // Non-vacuity: the challenger-specific protocol paths must
            // actually run in both streams.
            match policy {
                DeciderPolicy::Market(_) => {
                    for (name, evs) in [("sim", &sim_events), ("runtime", &rt_events)] {
                        assert!(
                            count_kind(evs, |k| matches!(k, EventKind::BidPlaced { .. })) > 0,
                            "seed {seed} {name}: market stream placed no bids"
                        );
                    }
                }
                DeciderPolicy::Predictive(_) => {
                    for (name, evs) in [("sim", &sim_events), ("runtime", &rt_events)] {
                        assert!(
                            count_kind(evs, |k| matches!(k, EventKind::ForecastJump { .. })) > 0,
                            "seed {seed} {name}: predictive stream never snapped its forecast"
                        );
                    }
                }
                DeciderPolicy::Urgency => unreachable!("challengers only"),
            }
            assert!(
                count_kind(&sim_events, |k| matches!(k, EventKind::RequestSent { .. })) > 0,
                "seed {seed}: {} stream sent no requests",
                policy.name()
            );

            let sim_norm = normalize_protocol(&sim_events);
            let rt_norm = normalize_protocol(&rt_events);
            assert_eq!(
                sim_norm,
                rt_norm,
                "seed {seed}: sim and lockstep diverge under the {} policy",
                policy.name()
            );
        }
    }
}

/// Run `scenario` on `substrate`, assert the invariant set, and require
/// exact conservation: zero `lost` everywhere and every consistent cut
/// summing to the initial budget.
fn assert_conserves(scenario: &Scenario, substrate: &dyn Substrate) {
    let run = substrate
        .run(scenario)
        .unwrap_or_else(|e| panic!("{} failed {}: {e}", substrate.name(), scenario.name));
    let violations = check_run(scenario, &run);
    assert!(
        violations.is_empty(),
        "{} violated invariants on {} (seed {:#x}): {violations:#?}",
        substrate.name(),
        scenario.name,
        scenario.cfg.seed
    );
    for snap in &run.snapshots {
        assert!(
            snap.lost.is_zero(),
            "{} booked {:?} lost at period {} of {}",
            substrate.name(),
            snap.lost,
            snap.period,
            scenario.name
        );
        if snap.consistent_cut {
            assert_eq!(
                snap.accounted_live(),
                scenario.cfg.budget,
                "{} period {} of {} does not conserve the budget",
                substrate.name(),
                snap.period,
                scenario.name
            );
        }
    }
    assert_eq!(
        run.final_total,
        scenario.cfg.budget,
        "{} final total drifted on {}",
        substrate.name(),
        scenario.name
    );
}

#[test]
fn every_policy_conserves_power_on_clean_links() {
    for policy in challenger_policies() {
        let scenario = policy_scenario(0x70C1_0001, policy, 0, 10);
        for substrate in [&SimSubstrate as &dyn Substrate, &LockstepRuntime] {
            assert_conserves(&scenario, substrate);
        }
    }
}

#[test]
fn market_bids_in_flight_under_loss_strand_zero_power() {
    // The market-specific risk: a granted bid is power in motion. At 20%
    // loss, dropped bid-requests, dropped grants and dropped acks must
    // all resolve through the same escrow machinery as urgency traffic —
    // every consistent cut still sums to the budget exactly, with real
    // bids provably in the mix.
    let scenario = policy_scenario(
        0x70C1_0002,
        DeciderPolicy::Market(MarketConfig::default()),
        200,
        20,
    );
    let (run, events) = SimSubstrate
        .run_recorded(&scenario)
        .expect("lossy market sim runs");
    assert!(
        count_kind(&events, |k| matches!(k, EventKind::BidPlaced { .. })) > 0,
        "no bids placed under loss — the scenario is vacuous"
    );
    assert!(
        count_kind(&events, |k| matches!(k, EventKind::MsgDropped { .. })) > 0,
        "no messages dropped at 200‰ — the loss leg is vacuous"
    );
    let violations = check_run(&scenario, &run);
    assert!(violations.is_empty(), "{violations:#?}");
    for snap in &run.snapshots {
        assert!(snap.lost.is_zero(), "market loss stranded power");
        if snap.consistent_cut {
            assert_eq!(snap.accounted_live(), scenario.cfg.budget);
        }
    }

    // And the lockstep substrate agrees end to end.
    assert_conserves(&scenario, &LockstepRuntime);
}

#[test]
fn predictive_policy_conserves_under_loss() {
    let scenario = policy_scenario(
        0x70C1_0003,
        DeciderPolicy::Predictive(PredictiveConfig::default()),
        200,
        20,
    );
    for substrate in [&SimSubstrate as &dyn Substrate, &LockstepRuntime] {
        assert_conserves(&scenario, substrate);
    }
}
