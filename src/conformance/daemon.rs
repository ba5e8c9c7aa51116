//! Substrate 2: the daemon's reactor, multiplexed on loopback datagrams.

use std::sync::Arc;

use penelope_core::{fair_assignment, NodeEngine};
use penelope_daemon::Mux;
use penelope_net::{FaultConfig, FaultPlane, LatencyModel};
use penelope_power::{CappedDevice, SimulatedRapl};
use penelope_sim::FaultAction;
use penelope_testkit::rng::node_seed;
use penelope_trace::Stamper;
use penelope_units::{NodeId, SimDuration};
use penelope_workload::WorkloadState;

use super::{cut_run, recorded, NodeSnapshot, Scenario, Snapshot, Substrate, SubstrateRun};

/// Conformance adapter for the daemon code: the real `Reactor`, wire
/// format and UDP datagrams, every node's engine behind one loopback socket
/// pair on the virtual clock (`penelope_daemon::Mux`), with the scenario's
/// period, profiles, decider settings and fault script. Its frames meet
/// the scenario's wire faults — duplication and wall-clock delay, which no
/// other substrate can model — in the socket shim, on the same fault plane
/// as its loss and partitions.
pub struct MultiplexedDaemon;

impl Substrate for MultiplexedDaemon {
    fn name(&self) -> &'static str {
        "daemon"
    }

    fn run(&self, scenario: &Scenario) -> Result<SubstrateRun, String> {
        let (cfg, ring) = recorded(scenario);
        // Engines and RAPL domains built as `ClusterSim` builds its own:
        // even shares of the budget, the scenario's discovery, sequence
        // floor and observer.
        let caps = fair_assignment(cfg.budget, scenario.profiles.len(), cfg.node.safe_range);
        let engine_cfg = Arc::new(cfg.engine_config());
        let (n, observer) = (caps.len(), &cfg.observer);
        let engine = |(i, cap)| {
            NodeEngine::new(
                NodeId::new(i as u32),
                n,
                engine_cfg.clone(),
                cap,
                observer.clone(),
            )
        };
        let engines = caps.iter().copied().enumerate().map(engine).collect();
        let rapl = |(profile, cap)| {
            let workload = WorkloadState::with_overhead(profile, cfg.management_overhead);
            let device: Box<dyn CappedDevice + Send> = Box::new(workload);
            SimulatedRapl::new(device, cap, cfg.rapl.clone())
        };
        let rapls = scenario.profiles.iter().cloned().zip(caps.iter().copied());
        let wire = FaultConfig {
            // A loss lane of its own, disjoint from every protocol stream.
            seed: node_seed(cfg.seed, u64::MAX - 3),
            plane: FaultPlane::healthy(),
            dup_permille: scenario.dup_permille,
            latency: (scenario.jitter_ms > 0).then(|| LatencyModel::Uniform {
                lo: SimDuration::ZERO,
                hi: SimDuration::from_millis(u64::from(scenario.jitter_ms)),
            }),
        };
        let trace = Stamper::new(cfg.observer.clone(), cfg.node.decider.period);
        let mux = Mux::simulated(engines, rapls.map(rapl).collect(), cfg.seed, wire, trace)
            .map_err(|e| format!("multiplexed daemon: {e}"))?;

        let script = scenario.faults.in_firing_order();
        let mut due = script.iter().peekable();
        let mut snapshots = Vec::with_capacity(scenario.periods as usize);
        let mut shim = Default::default();
        mux.run(
            scenario.periods,
            |mux, begin| {
                while let Some((_, action)) = due.next_if(|(at, _)| *at <= begin) {
                    if mux.with_faults(|plane| action.apply(plane)) {
                        continue;
                    }
                    match action {
                        FaultAction::Kill(node) => mux.kill(*node, begin),
                        FaultAction::Restart(node) => mux.restart(*node, begin),
                        // A Penelope cluster has no server.
                        _ => {}
                    }
                }
            },
            |mux, p| {
                snapshots.push(snapshot(mux, p));
                shim = mux.shim_stats();
            },
        );
        let end = snapshots.last().cloned().ok_or("no periods run")?;
        Ok(SubstrateRun {
            duplicated: Some(shim.duplicated),
            delayed: Some(shim.delayed),
            ..cut_run("daemon", snapshots, &end, ring.events())
        })
    }
}

/// The multiplexer's books after round `period`: exact unless a frame was
/// written off as lost on the wire.
fn snapshot(mux: &Mux, period: u64) -> Snapshot {
    let row = |(i, e): (usize, &NodeEngine)| {
        NodeSnapshot::of(i as u32, mux.is_alive(i), e.cap(), e.pool())
    };
    Snapshot {
        period,
        consistent_cut: mux.exact(),
        in_flight: mux.engines().iter().map(|e| e.escrowed_undelivered()).sum(),
        lost: mux.lost(),
        nodes: mux.engines().iter().enumerate().map(row).collect(),
    }
}
