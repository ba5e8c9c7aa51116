//! Event-level conformance: the structured protocol-event streams the
//! substrates emit through the `Observer` API.
//!
//! Three layers of checking, strongest first:
//!
//! 1. **Stream equality** — on an idealized scenario (zero message
//!    latency, zero service time, zero tick jitter, exact power meters)
//!    the simulator and the lockstep threaded runtime must emit *equal*
//!    normalized protocol-event streams for the same seed: same events,
//!    same per-node order, timestamps erased.
//! 2. **Stream invariants** — every `GrantApplied` pairs with exactly one
//!    `RequestServed`, and urgency raise/clear strictly alternate per
//!    pool, on every substrate's stream.
//! 3. **Fold agreement** — turnaround, redistribution and oscillation
//!    computed as pure folds over the event stream must agree with the
//!    summary statistics the simulator accumulates inline.

use std::sync::Arc;

use penelope::conformance::{LockstepRuntime, Scenario, SimSubstrate, Substrate};
use penelope::prelude::*;
use penelope_core::DiscoveryStrategy;
use penelope_testkit::events::{
    check_grant_served_pairing, check_urgency_alternation, normalize_protocol,
};
use penelope_trace::{validate_jsonl, EventKind, JsonlObserver, RingBufferObserver};

fn watts(w: u64) -> Power {
    Power::from_watts_u64(w)
}

/// A two-node scenario with exact meters: one node hungry from the
/// start, one light-then-hungry, so deposits, take-local, peer requests,
/// urgency and grants all occur — while each pool has exactly one
/// possible requester, keeping serve order deterministic across
/// substrates.
fn ideal_scenario(seed: u64) -> Scenario {
    let hungry = vec![Phase::new(watts(220), 60.0)];
    let ramp = vec![Phase::new(watts(100), 4.0), Phase::new(watts(210), 60.0)];
    Scenario::new("event-stream", seed, 10, [hungry, ramp]).idealized()
}

#[test]
fn sim_and_lockstep_emit_identical_protocol_streams() {
    for seed in [7, 1234] {
        let scenario = ideal_scenario(seed);
        let (_, sim_events) = SimSubstrate.run_recorded(&scenario).expect("sim run");
        let (_, rt_events) = LockstepRuntime
            .run_recorded(&scenario)
            .expect("lockstep run");

        // The sim's `advance_to(periods * PERIOD)` also fires the tick
        // sitting exactly on the final boundary — an extra period the
        // lockstep loop never starts. Compare the complete periods.
        let cut = |evs: Vec<TraceEvent>| -> Vec<TraceEvent> {
            evs.into_iter()
                .filter(|e| e.period < scenario.periods)
                .collect()
        };
        let sim_events = cut(sim_events);
        let rt_events = cut(rt_events);
        // The scenario must actually exercise the protocol, not match on
        // two empty streams.
        let count = |evs: &[TraceEvent], pred: fn(&EventKind) -> bool| {
            evs.iter().filter(|e| pred(&e.kind)).count()
        };
        assert!(
            count(&sim_events, |k| matches!(k, EventKind::RequestSent { .. })) > 0,
            "seed {seed}: no requests in the sim stream"
        );
        assert!(
            count(&sim_events, |k| matches!(k, EventKind::GrantApplied { .. })) > 0,
            "seed {seed}: no grants in the sim stream"
        );
        assert!(
            count(&sim_events, |k| matches!(k, EventKind::PoolDeposit { .. })) > 0,
            "seed {seed}: no deposits in the sim stream"
        );

        let sim_norm = normalize_protocol(&sim_events);
        let rt_norm = normalize_protocol(&rt_events);
        assert_eq!(
            sim_norm, rt_norm,
            "seed {seed}: sim and lockstep protocol-event streams diverge"
        );

        for (name, events) in [("sim", &sim_events), ("runtime", &rt_events)] {
            let v = check_grant_served_pairing(events);
            assert!(v.is_empty(), "seed {seed} {name}: {v:?}");
            let v = check_urgency_alternation(events);
            assert!(v.is_empty(), "seed {seed} {name}: {v:?}");
        }
    }
}

/// Both adapters read the scenario's one `ClusterConfig`, discovery
/// strategy included:
/// the lockstep side used to rebuild its engine configuration from the
/// node parameters alone and ran uniform-random discovery whatever the
/// configuration said. One hungry node between two donors: the strategy
/// decides which pool each request goes to, and each pool still has only
/// one possible requester.
#[test]
fn sim_and_lockstep_agree_under_round_robin_discovery() {
    let flat = |demand: u64| vec![Phase::new(watts(demand), 60.0)];
    let mut scenario =
        Scenario::new("round-robin", 7, 10, [flat(220), flat(100), flat(100)]).idealized();
    scenario.cfg.discovery = DiscoveryStrategy::RoundRobin;
    let (_, sim_events) = SimSubstrate.run_recorded(&scenario).expect("sim run");
    let (_, rt_events) = LockstepRuntime
        .run_recorded(&scenario)
        .expect("lockstep run");
    let complete = |evs: Vec<TraceEvent>| -> Vec<TraceEvent> {
        evs.into_iter()
            .filter(|e| e.period < scenario.periods)
            .collect()
    };
    let sim_events = complete(sim_events);
    // The sweep itself: node 0 asks its two peers in turn.
    let asked: Vec<u32> = sim_events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestSent { dst, .. } => Some(dst.raw()),
            _ => None,
        })
        .collect();
    assert!(asked.len() >= 4, "only {} requests", asked.len());
    assert!(asked.windows(2).all(|w| w[0] != w[1]), "asked {asked:?}");
    assert_eq!(
        normalize_protocol(&sim_events),
        normalize_protocol(&complete(rt_events)),
        "sim and lockstep diverge under round-robin discovery"
    );
}

/// The §4.2-style nominal mix on four 160 W nodes: two modest DC-like
/// applications (nodes 0–1) and two power-hungry EP-like ones (nodes 2–3).
fn nominal_sim(observer: SharedObserver) -> ClusterSim {
    let profiles: Vec<_> = vec![npb::dc(), npb::dc(), npb::ep(), npb::ep()]
        .into_iter()
        .map(|p| p.scaled(0.05))
        .collect();
    ClusterSim::builder()
        .budget(watts(4 * 160))
        .workloads(profiles)
        .observer(observer)
        .seed(42)
        .build()
}

#[test]
fn folds_over_event_stream_agree_with_inline_summaries() {
    let ring = Arc::new(RingBufferObserver::unbounded());
    let mut sim = nominal_sim(SharedObserver::from(ring.clone()));
    let hungry = vec![NodeId::new(2), NodeId::new(3)];
    let total = watts(100);
    sim.track_redistribution(total, hungry.clone(), SimTime::ZERO);
    let report = sim.run(SimTime::from_secs(120));
    let events = ring.events();
    assert!(!events.is_empty());

    // Turnaround: same trips, same durations, same unanswered count.
    let fold = penelope_metrics::turnaround_from_events(&events);
    assert_eq!(fold.count(), report.turnaround.count());
    assert_eq!(fold.unanswered(), report.turnaround.unanswered());
    assert_eq!(fold.mean(), report.turnaround.mean());
    assert!(
        fold.count() > 0,
        "nominal run produced no grant round trips"
    );

    // Redistribution: same shifted total and crossing times.
    let inline = report.redistribution.expect("tracker installed");
    let fold = penelope_metrics::redistribution_from_events(&events, total, &hungry, SimTime::ZERO);
    assert_eq!(fold.shifted(), inline.shifted());
    assert_eq!(fold.fraction_shifted(), inline.fraction_shifted());
    assert_eq!(fold.median_time(), inline.median_time());
    assert_eq!(fold.total_time(), inline.total_time());
    assert!(
        !fold.shifted().is_zero(),
        "no power reached the hungry nodes"
    );

    // Oscillation: same per-node cap trajectories.
    let fold = penelope_metrics::oscillation_from_events(&events);
    assert_eq!(fold.samples(), report.oscillation.samples());
    assert_eq!(fold.reversals(), report.oscillation.reversals());
    assert_eq!(fold.total_up(), report.oscillation.total_up());
    assert_eq!(fold.total_down(), report.oscillation.total_down());
}

#[test]
fn jsonl_export_of_a_nominal_run_validates() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nominal_trace.jsonl");
    let jsonl = Arc::new(JsonlObserver::create(&path).expect("create trace file"));
    let sim = nominal_sim(SharedObserver::from(jsonl.clone()));
    let report = sim.run(SimTime::from_secs(60));
    assert!(report.conservation_ok);
    jsonl.flush().expect("flush trace");

    let text = std::fs::read_to_string(&path).expect("read trace");
    let summary = validate_jsonl(&text).expect("trace validates");
    assert_eq!(summary.per_node.len(), 4);
    assert!(summary.events >= 4 * 59, "one CapActuated per node-period");
    std::fs::remove_file(&path).ok();
}
