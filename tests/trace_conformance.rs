//! Event-level conformance: the structured protocol-event streams the
//! substrates emit through the `Observer` API.
//!
//! Three layers of checking, strongest first:
//!
//! 1. **Stream equality** — on an idealized loss-free scenario (zero
//!    message latency, zero service time, zero tick jitter, exact power
//!    meters) the simulator and the daemon's reactor, multiplexed on
//!    loopback datagrams, must emit *equal* normalized protocol-event
//!    streams for the same seed: same events, same per-node order,
//!    timestamps erased — for every canned fault family that runs
//!    without loss, kills, restarts and partitions included.
//! 2. **Stream invariants** — both streams pass `check_run`, which holds
//!    every substrate's stream to one debit per request, one application
//!    per grant, alternating urgency and monotone request seqs.
//! 3. **Metric agreement** — turnaround, redistribution and oscillation
//!    read off the event stream by `penelope_metrics::SharedCollector`
//!    must equal the `RunReport` the simulator fills by calling the same
//!    collector's entry points directly: Penelope and SLURM, with
//!    retransmits, and across a restart inside an open round trip. The
//!    daemon leg's stream scores the same round trips as the simulator's.

use std::sync::Arc;

use penelope::conformance::{
    asymmetric_partition_scenario, at_period, check_run, churn_scenario, flapping_scenario,
    lossy_scenario, node_fault_scenario, noisy_power_scenario, nominal_scenario,
    normalize_protocol, partition_churn_scenario, partition_scenario, MultiplexedDaemon, Scenario,
    SimSubstrate, Substrate,
};
use penelope::prelude::*;
use penelope_core::DiscoveryStrategy;
use penelope_metrics::{Figures, MetricsCollector, SharedCollector};
use penelope_sim::RunReport;
use penelope_trace::{validate_jsonl, EventKind, FanoutObserver, JsonlObserver};

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

/// One hungry node between two donors under round-robin discovery: the
/// strategy decides which pool each request goes to, and each pool still
/// has only one possible requester.
fn round_robin_scenario(seed: u64) -> Scenario {
    let flat = |demand: u64| vec![Phase::new(watts(demand), 60.0)];
    let mut scenario =
        Scenario::new("round-robin", seed, 10, [flat(220), flat(100), flat(100)]).idealized();
    scenario.cfg.discovery = DiscoveryStrategy::RoundRobin;
    scenario
}

/// Every idealized loss-free canned scenario the two substrates must
/// agree on: the two-node case, and each canned family that can run
/// without loss, at three seeds.
fn loss_free_scenarios() -> Vec<Scenario> {
    let mut scenarios = vec![ideal_scenario(7), ideal_scenario(1234)];
    // Noisy meters, at the seed `tests/conformance.rs` runs them at and at
    // two of the three; at 1234 no node sends a request within the ten
    // periods, so that stream pair would agree vacuously.
    scenarios.extend([0x5EED_0003, 7, 99].map(noisy_power_scenario));
    for seed in [7, 1234, 99] {
        scenarios.extend([
            nominal_scenario(seed),
            node_fault_scenario(seed),
            churn_scenario(seed, 0, 16),
            partition_scenario(seed, 0, 16),
            asymmetric_partition_scenario(seed, 0, 16),
            flapping_scenario(seed, 16),
            partition_churn_scenario(seed, 16),
            lossy_scenario(seed, 0, 12),
        ]);
    }
    scenarios.into_iter().map(Scenario::idealized).collect()
}

fn count(evs: &[TraceEvent], kind: fn(&EventKind) -> bool) -> usize {
    evs.iter().filter(|e| kind(&e.kind)).count()
}

/// Runs `scenario` on the simulator and the daemon, holds both to
/// `check_run`, and asserts their normalized protocol-event streams are
/// equal. Returns the simulator's events of the complete periods.
fn assert_streams_agree(scenario: &Scenario) -> Vec<TraceEvent> {
    let case = format!("{} seed {}", scenario.name, scenario.cfg.seed);
    let sim = SimSubstrate.run(scenario).expect("sim run");
    let daemon = MultiplexedDaemon.run(scenario).expect("daemon run");
    for run in [&sim, &daemon] {
        let v = check_run(scenario, run);
        assert!(v.is_empty(), "{case} {}: {v:#?}", run.substrate);
    }
    // A frame the kernel lost would make the daemon's stream a
    // different run, not a divergence to excuse: every cut must be
    // one the multiplexer can vouch for.
    assert!(
        daemon.snapshots.iter().all(|cut| cut.consistent_cut),
        "{case}: the daemon wrote a frame off on a loss-free wire"
    );

    // The sim's `advance_to(periods * PERIOD)` also fires the tick
    // sitting exactly on the final boundary — a period the daemon
    // never runs. Compare the complete periods.
    let beyond = |e: &TraceEvent| e.period >= scenario.periods;
    assert!(
        !daemon.events.iter().any(beyond),
        "{case}: a round ran long"
    );
    let sim_events: Vec<TraceEvent> = sim.events.into_iter().filter(|e| !beyond(e)).collect();
    // The scenario must actually exercise the protocol, not match on
    // two empty streams.
    let requests = count(&sim_events, |k| matches!(k, EventKind::RequestSent { .. }));
    let grants = count(&sim_events, |k| matches!(k, EventKind::GrantApplied { .. }));
    let deposits = count(&sim_events, |k| matches!(k, EventKind::PoolDeposit { .. }));
    assert!(requests > 0, "{case}: no requests");
    assert!(grants > 0, "{case}: no grants");
    assert!(deposits > 0, "{case}: no deposits");
    assert_eq!(
        normalize_protocol(&sim_events),
        normalize_protocol(&daemon.events),
        "{case}: sim and daemon protocol-event streams diverge"
    );
    sim_events
}

#[test]
fn sim_and_daemon_emit_identical_protocol_streams() {
    for scenario in loss_free_scenarios() {
        assert_streams_agree(&scenario);
    }
}

#[test]
fn sim_and_daemon_agree_under_round_robin_discovery() {
    let events = assert_streams_agree(&round_robin_scenario(7));
    // The strategy must actually sweep: never the same pool twice in a
    // row.
    let asked: Vec<u32> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestSent { dst, .. } => Some(dst.raw()),
            _ => None,
        })
        .collect();
    assert!(
        asked.len() >= 4 && asked.windows(2).all(|w| w[0] != w[1]),
        "round-robin seed 7: no sweep: {asked:?}"
    );
}

/// Four 160 W nodes under `system`, seed 42.
fn nominal_config(system: SystemKind) -> ClusterConfig {
    let mut cfg = ClusterConfig::paper_defaults(system, watts(4 * 160));
    cfg.seed = 42;
    cfg
}

/// The §4.2-style nominal mix on `cfg`: two modest DC-like applications
/// (nodes 0–1) and two power-hungry EP-like ones (nodes 2–3).
fn nominal_sim(cfg: ClusterConfig) -> ClusterSim {
    let profiles: Vec<_> = vec![npb::dc(), npb::dc(), npb::ep(), npb::ep()]
        .into_iter()
        .map(|p| p.scaled(0.05))
        .collect();
    ClusterSim::builder()
        .config(cfg)
        .workloads(profiles)
        .build()
}

const HORIZON: SimTime = SimTime::from_secs(120);

/// One nominal run with a [`SharedCollector`] and a ring listening: the
/// report, the collector's figures and the recorded stream.
fn collected(
    mut cfg: ClusterConfig,
    faults: &FaultScript,
) -> (RunReport, Figures, Vec<TraceEvent>) {
    let hungry = [NodeId::new(2), NodeId::new(3)];
    let total = watts(100);
    let mut collector = MetricsCollector::new();
    collector.track_redistribution(total, hungry, SimTime::ZERO);
    let collector = Arc::new(SharedCollector::new(collector));
    let ring = Arc::new(RingBufferObserver::unbounded());
    cfg.observer = FanoutObserver::pair(
        SharedObserver::from(collector.clone()),
        SharedObserver::from(ring.clone()),
    );
    let mut sim = nominal_sim(cfg);
    sim.track_redistribution(total, hungry.to_vec(), SimTime::ZERO);
    sim.install_faults(faults);
    let report = sim.run(HORIZON);
    (report, collector.figures(), ring.events())
}

/// The first `RequestSent` node 2 emits on the nominal Penelope run.
fn first_request_of_node_2() -> SimTime {
    let penelope = nominal_config(SystemKind::Penelope);
    let (_, _, events) = collected(penelope, &FaultScript::none());
    events
        .iter()
        .find(|e| e.node == NodeId::new(2) && matches!(e.kind, EventKind::RequestSent { .. }))
        .expect("node 2 asks for power")
        .at
}

/// Every figure the collector read off the stream equals the report's.
fn assert_agree(case: &str, report: &RunReport, fold: &Figures) {
    // Turnaround: same trips, same durations, same unanswered count.
    assert_eq!(fold.turnaround.count(), report.turnaround.count(), "{case}");
    assert_eq!(
        fold.turnaround.unanswered(),
        report.turnaround.unanswered(),
        "{case}"
    );
    assert_eq!(fold.turnaround.mean(), report.turnaround.mean(), "{case}");
    assert!(fold.turnaround.count() > 0, "{case}: no grant round trips");

    // Redistribution: same shifted total and crossing times.
    let inline = report.redistribution.as_ref().expect("tracker installed");
    let fold_r = fold.redistribution.as_ref().expect("tracker installed");
    assert_eq!(fold_r.shifted(), inline.shifted(), "{case}");
    assert_eq!(fold_r.median_time(), inline.median_time(), "{case}");
    assert_eq!(fold_r.total_time(), inline.total_time(), "{case}");
    assert!(
        !fold_r.shifted().is_zero(),
        "{case}: no power reached the hungry nodes"
    );

    // Oscillation: same per-node cap trajectories.
    let (o, r) = (&fold.oscillation, &report.oscillation);
    assert_eq!(o.samples(), r.samples(), "{case}");
    assert_eq!(o.reversals(), r.reversals(), "{case}");
    assert_eq!(o.total_up(), r.total_up(), "{case}");
    assert_eq!(o.total_down(), r.total_down(), "{case}");
}

#[test]
fn folds_over_event_stream_agree_with_inline_summaries() {
    let kill_at = first_request_of_node_2() + SimDuration::from_micros(1);
    let restart = FaultScript::none()
        .at(kill_at, FaultAction::Kill(NodeId::new(2)))
        .restart_at(kill_at + SimDuration::from_secs(3), NodeId::new(2));
    let lossy = FaultScript::none().at(SimTime::ZERO, FaultAction::SetDropRate(0.3));
    let penelope = nominal_config(SystemKind::Penelope);
    let mut retransmitting = penelope.clone();
    retransmitting.node.decider.max_retransmits = 2;
    let none = FaultScript::none();
    let cases = [
        ("penelope nominal", penelope.clone(), &none),
        (
            "penelope retransmitting at 30 % loss",
            retransmitting,
            &lossy,
        ),
        ("penelope restarted inside an open trip", penelope, &restart),
        ("slurm nominal", nominal_config(SystemKind::Slurm), &none),
    ];
    for (case, cfg, faults) in cases {
        let (report, fold, _) = collected(cfg, faults);
        assert_agree(case, &report, &fold);
    }
}

/// The daemon leg emits the simulator's protocol stream, so its recorded
/// stream, replayed into a collector, scores the simulator's round trips.
#[test]
fn a_daemon_stream_scores_the_simulators_round_trips() {
    for seed in [7, 1234] {
        let scenario = ideal_scenario(seed);
        let events = MultiplexedDaemon.run(&scenario).expect("daemon run").events;
        let mut collector = MetricsCollector::new();
        for ev in &events {
            collector.on_event(ev);
        }
        let fold = collector.finish().turnaround;

        // The daemon runs `periods` whole periods; the simulator's
        // `advance_to` would also fire the tick on the final boundary.
        let last_instant = SimTime::from_nanos(at_period(scenario.periods).as_nanos() - 1);
        let mut sim = ClusterSim::new(scenario.cfg.clone(), scenario.profiles.clone());
        sim.install_faults(&scenario.faults);
        sim.advance_to(last_instant);
        let report = sim.finish();
        assert!(fold.count() > 0, "seed {seed}: no round trips");
        assert_eq!(fold.count(), report.turnaround.count(), "seed {seed}");
        assert_eq!(
            fold.unanswered(),
            report.turnaround.unanswered(),
            "seed {seed}"
        );
    }
}

#[test]
fn jsonl_export_of_a_nominal_run_validates() {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("nominal_trace.jsonl");
    let jsonl = Arc::new(JsonlObserver::create(&path).expect("create trace file"));
    let mut cfg = nominal_config(SystemKind::Penelope);
    cfg.observer = SharedObserver::from(jsonl.clone());
    let sim = nominal_sim(cfg);
    let report = sim.run(SimTime::from_secs(60));
    assert!(report.conservation_ok);
    jsonl.flush().expect("flush trace");

    let text = std::fs::read_to_string(&path).expect("read trace");
    let summary = validate_jsonl(&text).expect("trace validates");
    assert_eq!(summary.per_node.len(), 4);
    assert!(summary.events >= 4 * 59, "one CapActuated per node-period");
    std::fs::remove_file(&path).ok();
}
