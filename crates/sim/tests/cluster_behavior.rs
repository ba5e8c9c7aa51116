//! Behavioural tests of the cluster simulator: power shifting, conservation,
//! fault tolerance, determinism.

use penelope_power::RaplConfig;
use penelope_sim::{ClusterConfig, ClusterSim, FaultAction, FaultScript, SystemKind};
use penelope_units::{NodeId, Power, PowerRange, SimDuration, SimTime};
use penelope_workload::{PerfModel, Phase, Profile};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

/// Linear perf model, 60 W idle: analytic runtimes are easy to verify.
fn perf() -> PerfModel {
    PerfModel::new(w(60), 1.0)
}

fn profile(name: &str, demand_w: u64, work_secs: f64) -> Profile {
    Profile::new(name, vec![Phase::new(w(demand_w), work_secs)], perf())
}

/// A config with zero actuation lag and zero noise so tests are analytic,
/// plus invariant checking on.
fn cfg(system: SystemKind, budget_w: u64) -> ClusterConfig {
    let mut c = ClusterConfig::checked(system, w(budget_w));
    c.rapl = RaplConfig {
        safe_range: PowerRange::from_watts(80, 300),
        actuation_delay: SimDuration::ZERO,
        read_noise_std: 0.0,
    };
    c.management_overhead = 0.0; // isolate algorithmic effects
    c
}

fn horizon(secs: u64) -> SimTime {
    SimTime::from_secs(secs)
}

#[test]
fn fair_runtime_matches_analytic() {
    // 2 nodes, 160 W each. Demand 200 W, 10 s of work, linear model:
    // rate = (160-60)/(200-60) = 5/7 → runtime 14 s.
    let workloads = vec![profile("a", 200, 10.0), profile("b", 200, 10.0)];
    let report = ClusterSim::new(cfg(SystemKind::Fair, 320), workloads).run(horizon(100));
    let rt = report.runtime_secs().expect("finished");
    assert!((rt - 14.0).abs() < 0.01, "runtime {rt}");
    assert!(report.conservation_ok);
    assert_eq!(report.lost, Power::ZERO);
    // Fair sends no messages at all.
    assert_eq!(report.net.offered(), 0);
}

#[test]
fn fair_uncapped_workload_runs_at_full_speed() {
    let workloads = vec![profile("a", 100, 10.0), profile("b", 100, 10.0)];
    let report = ClusterSim::new(cfg(SystemKind::Fair, 320), workloads).run(horizon(100));
    assert!((report.runtime_secs().unwrap() - 10.0).abs() < 0.01);
}

#[test]
fn penelope_shifts_power_and_beats_fair() {
    // Donor wants 100 W (far under its 160 W share), recipient wants 250 W.
    let workloads = || vec![profile("donor", 100, 60.0), profile("rcpt", 250, 60.0)];
    let fair = ClusterSim::new(cfg(SystemKind::Fair, 320), workloads()).run(horizon(400));
    let pen = ClusterSim::new(cfg(SystemKind::Penelope, 320), workloads()).run(horizon(400));
    let rt_fair = fair.runtime_secs().expect("fair finished");
    let rt_pen = pen.runtime_secs().expect("penelope finished");
    assert!(
        rt_pen < rt_fair * 0.97,
        "penelope {rt_pen}s not faster than fair {rt_fair}s"
    );
    assert!(pen.conservation_ok);
    // The recipient itself must have finished sooner than under Fair (after
    // finishing it releases its gains again, so final caps are not a
    // meaningful check — finish times are).
    let rcpt_pen = pen.finished[1].expect("recipient finished");
    let rcpt_fair = fair.finished[1].expect("recipient finished");
    assert!(rcpt_pen < rcpt_fair, "{rcpt_pen} !< {rcpt_fair}");
}

#[test]
fn slurm_shifts_power_and_beats_fair() {
    let workloads = || vec![profile("donor", 100, 60.0), profile("rcpt", 250, 60.0)];
    let fair = ClusterSim::new(cfg(SystemKind::Fair, 320), workloads()).run(horizon(400));
    let slurm = ClusterSim::new(cfg(SystemKind::Slurm, 320), workloads()).run(horizon(400));
    let rt_fair = fair.runtime_secs().expect("fair finished");
    let rt_slurm = slurm.runtime_secs().expect("slurm finished");
    assert!(
        rt_slurm < rt_fair * 0.97,
        "slurm {rt_slurm}s not faster than fair {rt_fair}s"
    );
    assert!(slurm.conservation_ok);
    assert!(slurm.server_queue.is_some());
}

#[test]
fn conservation_holds_with_many_heterogeneous_nodes() {
    for system in [SystemKind::Fair, SystemKind::Penelope, SystemKind::Slurm] {
        let workloads: Vec<Profile> = (0..8)
            .map(|i| profile(&format!("app{i}"), 100 + 25 * i, 20.0 + 3.0 * i as f64))
            .collect();
        let report = ClusterSim::new(cfg(system, 8 * 160), workloads).run(horizon(300));
        assert!(report.conservation_ok, "{system:?} violated conservation");
        assert!(report.runtime_secs().is_some(), "{system:?} did not finish");
    }
}

#[test]
fn slurm_server_death_freezes_power_shifting() {
    let workloads = || vec![profile("donor", 100, 120.0), profile("rcpt", 250, 120.0)];
    let mut sim = ClusterSim::new(cfg(SystemKind::Slurm, 320), workloads());
    sim.install_faults(&FaultScript::kill_server_at(SimTime::from_secs(10)));
    let faulty = sim.run(horizon(800));
    let nominal = ClusterSim::new(cfg(SystemKind::Slurm, 320), workloads()).run(horizon(800));
    // Both finish (clients survive), but the faulty run is slower.
    let rt_faulty = faulty.runtime_secs().expect("faulty slurm finished");
    let rt_nominal = nominal.runtime_secs().expect("nominal slurm finished");
    assert!(
        rt_faulty > rt_nominal * 1.02,
        "server death did not hurt: faulty {rt_faulty}s vs nominal {rt_nominal}s"
    );
    // Power is lost: whatever the server held plus reports into the void.
    assert!(faulty.lost > Power::ZERO);
    assert!(faulty.conservation_ok);
    assert_eq!(faulty.dead.len(), 1);
}

#[test]
fn penelope_survives_client_death() {
    let workloads = || {
        vec![
            profile("donor", 100, 60.0),
            profile("rcpt", 250, 60.0),
            profile("bystander", 150, 60.0),
            profile("donor2", 110, 60.0),
        ]
    };
    let mut sim = ClusterSim::new(cfg(SystemKind::Penelope, 640), workloads());
    sim.install_faults(&FaultScript::kill_node_at(
        SimTime::from_secs(10),
        NodeId::new(3),
    ));
    let faulty = sim.run(horizon(400));
    let nominal = ClusterSim::new(cfg(SystemKind::Penelope, 640), workloads()).run(horizon(400));
    // Survivors all finish; makespan over survivors stays close to nominal.
    let rt_faulty = faulty.runtime_secs().expect("survivors finished");
    let rt_nominal = nominal.runtime_secs().expect("nominal finished");
    assert!(
        rt_faulty < rt_nominal * 1.15,
        "client death perturbed Penelope too much: {rt_faulty}s vs {rt_nominal}s"
    );
    assert!(faulty.conservation_ok);
    assert!(faulty.lost >= w(80)); // at least the dead node's cap floor
}

#[test]
fn runs_are_deterministic_for_a_seed() {
    let run = |seed: u64, drop_rate: f64| {
        let mut c = cfg(SystemKind::Penelope, 480);
        c.seed = seed;
        let workloads = vec![
            profile("a", 100, 30.0),
            profile("b", 250, 30.0),
            profile("c", 180, 30.0),
        ];
        let mut faults = FaultScript::none();
        if drop_rate > 0.0 {
            c.node.decider.max_retransmits = 2;
            faults = faults.at(SimTime::ZERO, FaultAction::SetDropRate(drop_rate));
        }
        let mut sim = ClusterSim::new(c, workloads);
        sim.install_faults(&faults);
        let r = sim.run(horizon(300));
        (
            r.runtime_secs(),
            r.net.offered(),
            r.final_caps.clone(),
            r.lost,
            r.events,
            r.net.dropped_random,
        )
    };
    assert_eq!(run(42, 0.0), run(42, 0.0));
    // And a different seed actually changes something observable.
    assert_ne!(run(42, 0.0).1, 0);
    // Loss, retransmits, re-served duplicates and deadline reclaims all
    // draw from seeded streams too: a lossy run repeats exactly.
    let lossy = run(42, 0.2);
    assert_eq!(lossy, run(42, 0.2));
    assert!(lossy.5 > 0, "a 20 % drop rate dropped nothing: {lossy:?}");
}

#[test]
fn redistribution_tracking_end_of_app_scenario() {
    // Donor finishes at ~10 s and idles; its released power must flow to
    // the recipient. Track Σ(cap − initial) on the recipient.
    let workloads = vec![profile("short", 155, 10.0), profile("rcpt", 250, 200.0)];
    let mut c = cfg(SystemKind::Penelope, 320);
    c.seed = 7;
    let mut sim = ClusterSim::new(c, workloads);
    // Donor drops to the 80 W floor after finishing: 160-80 = 80 W excess.
    sim.track_redistribution(w(80), vec![NodeId::new(1)], SimTime::from_secs(10));
    let report = sim.run(horizon(400));
    let tracker = report.redistribution.as_ref().expect("tracking installed");
    assert!(
        tracker.fraction_shifted() > 0.5,
        "only {} shifted",
        tracker.fraction_shifted()
    );
    assert!(
        tracker.median_time().is_some(),
        "median redistribution time"
    );
    assert!(report.conservation_ok);
}

#[test]
fn turnaround_sampled_for_both_dynamic_systems() {
    for system in [SystemKind::Penelope, SystemKind::Slurm] {
        let workloads = vec![profile("donor", 100, 30.0), profile("rcpt", 250, 30.0)];
        let report = ClusterSim::new(cfg(system, 320), workloads).run(horizon(300));
        assert!(
            report.turnaround.count() > 0,
            "{system:?} recorded no turnaround samples"
        );
        let mean = report.turnaround.mean().unwrap();
        // Round trip ≈ 2 × ~50 µs latency + 80–100 µs service, well under 1 ms
        // on an unloaded cluster.
        assert!(
            mean < SimDuration::from_millis(1),
            "{system:?} mean turnaround {mean}"
        );
    }
}

#[test]
fn random_message_loss_does_not_break_anything() {
    let workloads = vec![profile("donor", 100, 40.0), profile("rcpt", 250, 40.0)];
    let mut sim = ClusterSim::new(cfg(SystemKind::Penelope, 320), workloads);
    sim.install_faults(
        &FaultScript::none().at(SimTime::ZERO, penelope_sim::FaultAction::SetDropRate(0.2)),
    );
    let report = sim.run(horizon(600));
    assert!(report.conservation_ok);
    assert!(
        report.runtime_secs().is_some(),
        "did not finish under 20% loss"
    );
    assert!(report.net.dropped_random > 0);
}

#[test]
fn partition_confines_power_shifting() {
    // Donor and recipient in different partition groups: no shifting, so
    // the recipient runs at Fair speed.
    let workloads = || vec![profile("donor", 100, 40.0), profile("rcpt", 250, 40.0)];
    let mut sim = ClusterSim::new(cfg(SystemKind::Penelope, 320), workloads());
    sim.install_faults(&FaultScript::none().at(
        SimTime::ZERO,
        penelope_sim::FaultAction::Partition(vec![vec![NodeId::new(0)], vec![NodeId::new(1)]]),
    ));
    let partitioned = sim.run(horizon(400));
    let fair = ClusterSim::new(cfg(SystemKind::Fair, 320), workloads()).run(horizon(400));
    let rt_part = partitioned.runtime_secs().unwrap();
    let rt_fair = fair.runtime_secs().unwrap();
    assert!(
        (rt_part - rt_fair).abs() / rt_fair < 0.05,
        "partitioned Penelope {rt_part}s should ≈ Fair {rt_fair}s"
    );
    assert!(partitioned.conservation_ok);
}

#[test]
fn urgency_rescues_a_phase_changing_node() {
    // Node A idles (demand 90 W) for 20 s — giving power away and dropping
    // toward the 80 W floor — then needs 240 W. Urgency must pull it back
    // toward its initial 160 W quickly. Node B is greedy throughout.
    let a = Profile::new(
        "phased",
        vec![Phase::new(w(90), 20.0), Phase::new(w(240), 30.0)],
        perf(),
    );
    let b = profile("greedy", 250, 200.0);
    let report = ClusterSim::new(cfg(SystemKind::Penelope, 320), vec![a, b]).run(horizon(500));
    assert!(report.conservation_ok);
    let finished = report.finished[0].expect("phased node finished");
    // Without urgency the phased node would crawl at the 80 W floor:
    // phase 2 at rate (80-60)/(240-60) = 1/9 → 270 s for phase 2 alone.
    // With urgency it recovers toward 160 W (rate ≈ 5/9, ≈ 54 s).
    assert!(
        finished.as_secs_f64() < 150.0,
        "urgency failed to rescue the node: finished at {finished}"
    );
}

#[test]
fn gossip_discovery_shifts_power_and_uses_fewer_probes() {
    // One donor among seven recipients: random discovery wastes most
    // queries on empty pools; gossip remembers the donor.
    let mk = || {
        let mut v = vec![profile("donor", 90, 120.0)];
        v.extend((0..7).map(|i| profile(&format!("r{i}"), 250, 60.0)));
        v
    };
    let run = |strategy: penelope_sim::DiscoveryStrategy| {
        let mut c = cfg(SystemKind::Penelope, 8 * 160);
        c.discovery = strategy;
        let report = ClusterSim::new(c, mk()).run(horizon(600));
        assert!(report.conservation_ok);
        report
    };
    let random = run(penelope_sim::DiscoveryStrategy::UniformRandom);
    let gossip = run(penelope_sim::DiscoveryStrategy::GossipHint { explore: 0.2 });
    let rt_random = random.runtime_secs().expect("random finished");
    let rt_gossip = gossip.runtime_secs().expect("gossip finished");
    // Gossip must not be worse, and usually focuses queries productively.
    assert!(
        rt_gossip <= rt_random * 1.1,
        "gossip {rt_gossip}s much worse than random {rt_random}s"
    );
}

#[test]
fn round_robin_discovery_also_works() {
    let workloads = vec![profile("donor", 100, 40.0), profile("rcpt", 250, 40.0)];
    let mut c = cfg(SystemKind::Penelope, 320);
    c.discovery = penelope_sim::DiscoveryStrategy::RoundRobin;
    let report = ClusterSim::new(c, workloads).run(horizon(400));
    assert!(report.conservation_ok);
    assert!(report.runtime_secs().is_some());
}

#[test]
fn shed_headroom_damps_oscillation() {
    // A flat under-demand workload makes a zero-headroom decider bounce
    // (release, reclaim, release...); ε of headroom parks it.
    let mk = || vec![profile("a", 120, 60.0), profile("b", 120, 60.0)];
    let run = |headroom_w: u64| {
        let mut c = cfg(SystemKind::Penelope, 320);
        c.node.decider.shed_headroom = Power::from_watts_u64(headroom_w);
        ClusterSim::new(c, mk()).run(horizon(400))
    };
    let bouncy = run(0);
    let parked = run(5);
    assert!(bouncy.conservation_ok && parked.conservation_ok);
    assert!(
        parked.oscillation.reversals() < bouncy.oscillation.reversals() / 2,
        "headroom did not damp oscillation: {} vs {}",
        parked.oscillation.reversals(),
        bouncy.oscillation.reversals()
    );
}

#[test]
fn traces_record_the_power_shift() {
    let workloads = vec![profile("donor", 100, 30.0), profile("rcpt", 250, 30.0)];
    let mut sim = ClusterSim::new(cfg(SystemKind::Penelope, 320), workloads);
    sim.record_traces();
    let report = sim.run(horizon(300));
    let trace = report.trace.expect("traces recorded");
    assert!(!trace.is_empty());
    // The recipient's cap series must rise above its 160 W initial share
    // at some point.
    let caps = trace.cap_series_watts(NodeId::new(1));
    assert!(caps.iter().any(|&c| c > 161.0), "no shift visible in trace");
    // CSV has a header plus one line per sample.
    let csv = trace.to_csv();
    assert_eq!(csv.lines().count(), trace.len() + 1);
}

#[test]
fn back_to_back_job_sequences_run_under_all_systems() {
    // §4.4's "generalized environment": each node runs several jobs in a
    // row with different power appetites.
    let seq = |a: u64, b: u64| {
        let perf = penelope_workload::PerfModel::new(w(60), 1.0);
        let j1 = Profile::new("j1", vec![Phase::new(w(a), 20.0)], perf);
        let j2 = Profile::new("j2", vec![Phase::new(w(b), 20.0)], perf);
        j1.then(&j2)
    };
    let workloads = vec![seq(100, 250), seq(250, 100), seq(150, 200), seq(200, 120)];
    for system in [SystemKind::Fair, SystemKind::Penelope, SystemKind::Slurm] {
        let report = ClusterSim::new(cfg(system, 4 * 160), workloads.clone()).run(horizon(600));
        assert!(report.conservation_ok, "{system:?}");
        assert!(report.runtime_secs().is_some(), "{system:?} did not finish");
    }
}

#[test]
fn effective_caps_never_exceed_budget_despite_actuation_lag() {
    // Run with the real 300 ms RAPL lag and invariant checking on: the
    // simulator asserts after every event that the hardware-enforced caps
    // sum within the budget even while transfers are mid-actuation.
    let workloads: Vec<Profile> = (0..6)
        .map(|i| profile(&format!("app{i}"), 100 + 30 * i, 25.0))
        .collect();
    for system in [SystemKind::Penelope, SystemKind::Slurm] {
        let mut c = ClusterConfig::checked(system, w(6 * 160));
        c.management_overhead = 0.0; // keep runtimes analytic-ish
                                     // NOTE: keep the default RaplConfig (300 ms actuation delay).
        let report = ClusterSim::new(c, workloads.clone()).run(horizon(600));
        assert!(report.conservation_ok, "{system:?}");
        assert!(report.runtime_secs().is_some(), "{system:?}");
    }
}

#[test]
fn backup_server_takes_over_after_primary_death() {
    // A phased donor that needs power back after the kill: plain SLURM
    // strands it; with a standby the cluster recovers via failover.
    let mk = || {
        vec![
            Profile::new(
                "phased",
                vec![Phase::new(w(100), 20.0), Phase::new(w(240), 30.0)],
                perf(),
            ),
            profile("greedy", 250, 60.0),
        ]
    };
    let run = |backup: bool| {
        let mut c = cfg(SystemKind::Slurm, 320);
        c.backup_server = backup;
        let mut sim = ClusterSim::new(c, mk());
        sim.install_faults(&FaultScript::kill_server_at(SimTime::from_secs(10)));
        sim.run(horizon(2000))
    };
    let plain = run(false);
    let failover = run(true);
    assert!(plain.conservation_ok && failover.conservation_ok);
    let rt_plain = plain.runtime_secs().expect("plain finished");
    let rt_failover = failover.runtime_secs().expect("failover finished");
    assert!(
        rt_failover < rt_plain * 0.9,
        "standby did not help: {rt_failover}s vs {rt_plain}s"
    );
}

#[test]
fn backup_server_is_idle_in_nominal_runs() {
    // Without a fault, the standby must not perturb behaviour: runtimes
    // with and without it are identical (clients never fail over).
    let mk = || vec![profile("donor", 100, 40.0), profile("rcpt", 250, 40.0)];
    let run = |backup: bool| {
        let mut c = cfg(SystemKind::Slurm, 320);
        c.backup_server = backup;
        ClusterSim::new(c, mk()).run(horizon(400))
    };
    let without = run(false);
    let with = run(true);
    assert_eq!(without.runtime_secs(), with.runtime_secs());
    assert!(with.conservation_ok);
}

#[test]
fn noop_observer_is_behaviour_free_and_events_are_counted() {
    // The default (no-op) observer must not perturb the run, and attaching
    // a real observer must not either: identical seeds give bit-identical
    // reports whether or not events are being recorded. The event counter
    // in the report is the DES hot-loop throughput numerator.
    use penelope_trace::{RingBufferObserver, SharedObserver};
    use std::sync::Arc;

    let mk = || vec![profile("donor", 100, 30.0), profile("rcpt", 250, 30.0)];
    let plain = ClusterSim::new(cfg(SystemKind::Penelope, 320), mk()).run(horizon(400));

    let ring = Arc::new(RingBufferObserver::unbounded());
    let mut observed_cfg = cfg(SystemKind::Penelope, 320);
    observed_cfg.observer = SharedObserver::from(ring.clone());
    let observed = ClusterSim::new(observed_cfg, mk()).run(horizon(400));

    assert!(plain.events > 0, "no events counted");
    assert_eq!(plain.events, observed.events);
    assert_eq!(plain.runtime_secs(), observed.runtime_secs());
    assert_eq!(plain.final_caps, observed.final_caps);
    assert_eq!(plain.net.offered(), observed.net.offered());
    assert!(!ring.is_empty(), "observer saw nothing");
    // The no-op observer reports disabled, so emission sites skip even
    // constructing events — the zero-cost contract.
    assert!(!SharedObserver::noop().enabled());
}

#[test]
fn fault_scripts_fire_in_timestamp_order_regardless_of_composition_order() {
    // `install_faults` sorts entries by timestamp (stably), so a script
    // composed out of chronological order behaves exactly like the same
    // script composed in order — including same-timestamp entries, which
    // keep their insertion order.
    use penelope_sim::FaultAction;

    let mk = || vec![profile("donor", 100, 40.0), profile("rcpt", 250, 40.0)];
    let run = |script: FaultScript| {
        let mut sim = ClusterSim::new(cfg(SystemKind::Penelope, 320), mk());
        sim.install_faults(&script);
        sim.run(horizon(400))
    };

    let ordered = run(FaultScript::none()
        .at(SimTime::from_secs(5), FaultAction::SetDropRate(0.3))
        .at(SimTime::from_secs(20), FaultAction::Kill(NodeId::new(0))));
    let reversed = run(FaultScript::none()
        .at(SimTime::from_secs(20), FaultAction::Kill(NodeId::new(0)))
        .at(SimTime::from_secs(5), FaultAction::SetDropRate(0.3)));

    assert_eq!(ordered.finished, reversed.finished);
    assert_eq!(ordered.dead, reversed.dead);
    assert_eq!(ordered.lost, reversed.lost);
    assert_eq!(ordered.final_caps, reversed.final_caps);
    assert_eq!(ordered.events, reversed.events, "event streams diverged");
    assert!(ordered.conservation_ok && reversed.conservation_ok);

    // Same-timestamp entries keep composition order: the last write wins,
    // so a drop-rate raise followed by a reset at the same instant must
    // leave the network lossless.
    let healed = run(FaultScript::none()
        .at(SimTime::from_secs(5), FaultAction::SetDropRate(0.9))
        .at(SimTime::from_secs(5), FaultAction::SetDropRate(0.0)));
    assert_eq!(healed.lost, Power::ZERO);
    assert_eq!(
        healed.net.dropped(),
        0,
        "messages dropped after same-tick reset"
    );
}

#[test]
fn builder_accepts_the_unified_engine_config() {
    // One `penelope_core::EngineConfig` value configures the simulator:
    // node params, discovery and seq floor land in the built cluster.
    use penelope_core::{EngineConfig, NodeParams};

    let node = NodeParams {
        safe_range: PowerRange::from_watts(80, 300),
        ..NodeParams::default()
    };
    let report = ClusterSim::builder()
        .system(SystemKind::Penelope)
        .budget(w(320))
        .workloads(vec![profile("a", 100, 1.0), profile("b", 250, 1.0)])
        .engine_config(EngineConfig::new(node).with_seq_floor(7))
        .check_invariants(true)
        .build()
        .run(SimTime::from_secs(10));
    assert!(report.conservation_ok);
}
