//! The three [`Substrate`] implementations behind the cross-substrate
//! conformance harness, plus the canned scenarios the test suite runs.
//!
//! The scenario vocabulary and the invariant checker live in
//! `penelope_testkit::conformance`; this module supplies the adapters that
//! execute a [`Scenario`] on each concrete execution substrate:
//!
//! * [`SimSubstrate`] — the deterministic discrete-event simulator.
//!   Single-threaded, so every per-period snapshot is a consistent cut
//!   with exact in-flight accounting.
//! * [`LockstepRuntime`] — `penelope_runtime::run_lockstep`: real OS
//!   threads (one per node) exchanging `PeerMsg`s over a thread-net,
//!   driven in lockstep periods by barriers. The barrier at each period
//!   boundary guarantees no message is in flight, so these snapshots are
//!   consistent cuts too — from genuinely concurrent code.
//! * [`UdpDaemonSubstrate`] — full `penelope-daemon` processes-in-threads
//!   on UDP loopback sockets, free-running on the wall clock. Nodes are
//!   sampled asynchronously, so snapshots are *not* consistent cuts;
//!   per-node invariants are checked every period and the global sums
//!   only at the quiescent end state.
//!
//! All three run the *same* `NodeEngine` through the same executor
//! (`NodeEngine::step`); only what each substrate's `Effects` do — power
//! delivery, transport — and the clock differ. That is the paper's
//! portability claim, and the conformance suite in `tests/conformance.rs`
//! enforces it. A scenario is translated once — [`sim_config`],
//! `profiles_for`, `fault_script` — into the configuration, workloads and
//! period-stamped `FaultScript` every substrate executes; the drivers
//! themselves never see a [`Scenario`].

use std::sync::Arc;
use std::time::Duration;

use penelope_core::DeciderPolicy;
use penelope_net::{FaultConfig, FaultySocket};
use penelope_runtime::{run_lockstep, LockstepConfig};
use penelope_sim::{node_seed, ClusterConfig, ClusterSim, FaultAction, FaultScript, SystemKind};
use penelope_testkit::conformance::{
    FaultSpec, NodeSnapshot, PhaseSpec, Scenario, Snapshot, Substrate, SubstrateRun, WorkloadSpec,
};
use penelope_trace::{CounterObserver, CounterSnapshot, FanoutObserver, SharedObserver};
use penelope_units::{NodeId, Power, PowerRange, SimDuration, SimTime};
use penelope_workload::{PerfModel, Phase, Profile};

/// Logical decision period shared by the sim and lockstep substrates.
const PERIOD: SimDuration = SimDuration::from_secs(1);

fn watts(w: u64) -> Power {
    Power::from_watts_u64(w)
}

/// Translate a substrate-neutral workload spec into a `Profile`.
///
/// Every node gets the same linear cap→performance model; what the
/// conformance suite varies is the *demand trajectory*, which is what
/// drives deposits, requests and urgency.
pub fn profile_from_spec(spec: &WorkloadSpec, name: &str) -> Profile {
    Profile::new(
        name,
        spec.phases
            .iter()
            .map(|p: &PhaseSpec| Phase::new(p.demand, p.secs))
            .collect(),
        PerfModel::new(watts(60), 1.0),
    )
}

/// The workload list for a scenario: one profile per node, cycling the
/// spec list if it is shorter than the node count.
fn profiles_for(scenario: &Scenario) -> Vec<Profile> {
    (0..scenario.nodes)
        .map(|i| {
            let spec = &scenario.workloads[i % scenario.workloads.len()];
            profile_from_spec(spec, &format!("w{i}"))
        })
        .collect()
}

fn profile_from_spec_scaled(spec: &WorkloadSpec, name: &str, scale: f64) -> Profile {
    profile_from_spec(spec, name).scaled(scale)
}

/// The simulator configuration a scenario maps to. The lockstep runtime
/// reads its decider/pool/RAPL parameters from the same place so the two
/// substrates agree on everything but the execution model.
pub fn sim_config(scenario: &Scenario) -> ClusterConfig {
    let mut cfg = ClusterConfig::checked(SystemKind::Penelope, scenario.cluster_budget());
    cfg.seed = scenario.seed;
    cfg.node.safe_range = scenario.safe;
    cfg.rapl.safe_range = scenario.safe;
    cfg.rapl.read_noise_std = scenario.read_noise;
    cfg.node.decider.period = PERIOD;
    // The scenario's decider policy: urgency, predictive or market. Only
    // the tick-time request/shed shape changes; the engine (escrow,
    // suspicion, gossip, seq/epochs) is identical across policies, which
    // is exactly what the conformance invariants verify.
    cfg.node.decider.policy = scenario.policy;
    // Jitterless ticks: all substrates tick at exact period boundaries,
    // which keeps the per-node RNG streams aligned across substrates.
    cfg.tick_jitter = SimDuration::ZERO;
    // Lossy, churn and partition scenarios lean on the reliability layer:
    // retry dropped requests instead of eating a full timeout per loss
    // (and, under churn or cuts, feed the suspicion set fast enough to
    // matter).
    if matches!(
        scenario.fault,
        FaultSpec::Lossy { .. }
            | FaultSpec::LossyWire { .. }
            | FaultSpec::KillRestart { .. }
            | FaultSpec::Partition { .. }
            | FaultSpec::AsymmetricIsolate { .. }
            | FaultSpec::Flapping { .. }
            | FaultSpec::PartitionChurn { .. }
    ) {
        cfg.node.decider.max_retransmits = 2;
    }
    cfg
}

/// The scenario's fault schedule as one period-stamped [`FaultScript`]:
/// the simulator installs it, the lockstep coordinator applies each
/// period's share of it, and the daemon adapter walks its kill, restart
/// and drop-rate legs.
fn fault_script(scenario: &Scenario) -> FaultScript {
    let at = |period: u64| SimTime::ZERO + PERIOD * period;
    let n = scenario.nodes as u32;
    let split = |split_at: u32| {
        let cut = (split_at as usize).min(scenario.nodes) as u32;
        FaultAction::Partition(vec![
            (0..cut).map(NodeId::new).collect(),
            (cut..n).map(NodeId::new).collect(),
        ])
    };
    let peers_of = |node: u32| (0..n).filter(move |&j| j != node).map(NodeId::new);
    let script = match scenario.fault {
        // The deterministic transports deliver in order and exactly once,
        // so only the loss leg of LossyWire is representable; duplication
        // and reordering are exercised on the daemon substrate, where real
        // datagrams pass through the shim.
        FaultSpec::None | FaultSpec::Lossy { .. } | FaultSpec::LossyWire { .. } => {
            FaultScript::none()
        }
        FaultSpec::KillNode { node, at_period } => {
            FaultScript::kill_node_at(at(at_period), NodeId::new(node))
        }
        FaultSpec::KillRestart {
            node,
            kill_at_period,
            restart_at_period,
            ..
        } => {
            FaultScript::kill_restart(NodeId::new(node), at(kill_at_period), at(restart_at_period))
        }
        FaultSpec::Partition {
            split_at,
            at_period,
            heal_at_period,
            ..
        } => FaultScript::none()
            .at(at(at_period), split(split_at))
            .at(at(heal_at_period), FaultAction::Heal),
        FaultSpec::AsymmetricIsolate {
            node,
            at_period,
            heal_at_period,
            ..
        } => {
            // Directional: every link *towards* the victim is cut; its
            // own sends keep delivering.
            let victim = NodeId::new(node);
            peers_of(node).fold(FaultScript::none(), |script, peer| {
                script
                    .partition_link_at(at(at_period), peer, victim)
                    .heal_link_at(at(heal_at_period), peer, victim)
            })
        }
        FaultSpec::Flapping {
            node,
            at_period,
            heal_at_period,
        } => {
            // Alternate one-period isolation windows: cut on even
            // offsets from `at_period`, restore on odd ones, restored
            // for good at `heal_at_period`.
            let victim = NodeId::new(node);
            (at_period..=heal_at_period).fold(FaultScript::none(), |script, q| {
                if q < heal_at_period && (q - at_period) % 2 == 0 {
                    script.isolate_at(at(q), victim, n)
                } else {
                    peers_of(node).fold(script, |script, peer| {
                        script
                            .heal_link_at(at(q), peer, victim)
                            .heal_link_at(at(q), victim, peer)
                    })
                }
            })
        }
        FaultSpec::PartitionChurn {
            split_at,
            node,
            at_period,
            kill_at_period,
            heal_at_period,
        } => {
            // Same-period heal + restart: the rebooted node must come
            // back into an already-healed network, and the kill-last
            // ordering contract keeps the kill leg from racing any
            // same-tick connectivity change.
            FaultScript::none()
                .at(at(at_period), split(split_at))
                .at(at(kill_at_period), FaultAction::Kill(NodeId::new(node)))
                .at(at(heal_at_period), FaultAction::Heal)
                .restart_at(at(heal_at_period), NodeId::new(node))
        }
    };
    let rate = scenario.fault.drop_rate();
    let lossy = matches!(
        scenario.fault,
        FaultSpec::Lossy { .. } | FaultSpec::LossyWire { .. }
    );
    if lossy || rate > 0.0 {
        script.at(SimTime::ZERO, FaultAction::SetDropRate(rate))
    } else {
        script
    }
}

/// Total messages a substrate's transport attempted over a run: delivered
/// sends plus everything the fault plane dropped (acks included). Feeds
/// `SubstrateRun::send_attempts`, the traffic-volume evidence behind the
/// NonVacuousLoss statistical guard.
fn send_attempts(counted: &CounterSnapshot) -> u64 {
    counted.count("msg_sent") + counted.count("msg_dropped") + counted.count("ack_dropped")
}

// ---------------------------------------------------------------------
// Substrates 1 and 2: the deterministic pair
// ---------------------------------------------------------------------

/// Fan a drop counter in next to the caller's observer, so the run reports
/// how often the fault plane actually fired (the NonVacuousLoss guard's
/// evidence): both deterministic substrates emit MsgDropped/AckDropped
/// when their loss streams fire.
fn with_drop_counter(observer: SharedObserver) -> (SharedObserver, Arc<CounterObserver>) {
    let counter = Arc::new(CounterObserver::new());
    let fanout = FanoutObserver::pair(observer, SharedObserver::from(Arc::clone(&counter)));
    (fanout, counter)
}

/// A deterministic substrate's run, from its consistent cuts.
fn cut_run(
    substrate: &str,
    snapshots: Vec<Snapshot>,
    end: &Snapshot,
    counted: &CounterSnapshot,
) -> SubstrateRun {
    SubstrateRun {
        substrate: substrate.into(),
        snapshots,
        final_caps: end.nodes.iter().map(|n| n.cap).collect(),
        final_alive: end.nodes.iter().map(|n| n.alive).collect(),
        final_total: end.accounted_live() + end.lost,
        injected_drops: Some(counted.count("msg_dropped") + counted.count("ack_dropped")),
        send_attempts: Some(send_attempts(counted)),
        // Neither transport can duplicate or reorder: the DES delivers by
        // timestamp, the thread-net in order and exactly once.
        duplicated: None,
        delayed: None,
    }
}

/// [`sim_config`] with the transport idealized: zero message latency and
/// zero pool service time, so a request sent in period *p* is served and
/// its grant applied within period *p* — the same phase alignment the
/// lockstep runtime's barriers enforce. With read noise and tick jitter
/// also zero, the two substrates draw identical per-node RNG streams and
/// their normalized protocol-event streams must be *equal*, which is what
/// the event-level conformance tests assert.
pub fn idealized(mut cfg: ClusterConfig) -> ClusterConfig {
    cfg.latency = penelope_net::LatencyModel::Constant(SimDuration::ZERO);
    cfg.service = penelope_slurm::ServiceModel {
        lo: SimDuration::ZERO,
        hi: SimDuration::ZERO,
    };
    cfg
}

/// Conformance adapter for [`ClusterSim`].
pub struct SimSubstrate;

impl SimSubstrate {
    /// Run a scenario with a protocol-event observer attached; the
    /// event-stream conformance tests diff what this records against
    /// [`LockstepRuntime::run_observed`].
    pub fn run_observed(
        scenario: &Scenario,
        observer: SharedObserver,
    ) -> Result<SubstrateRun, String> {
        Self::run_with(sim_config(scenario), scenario, observer)
    }

    /// Like [`SimSubstrate::run_observed`] on the [`idealized`] transport.
    pub fn run_observed_ideal(
        scenario: &Scenario,
        observer: SharedObserver,
    ) -> Result<SubstrateRun, String> {
        Self::run_with(idealized(sim_config(scenario)), scenario, observer)
    }

    /// Run the scenario's workloads and faults under `cfg` — a
    /// [`sim_config`] the caller has adjusted.
    pub fn run_with(
        mut cfg: ClusterConfig,
        scenario: &Scenario,
        observer: SharedObserver,
    ) -> Result<SubstrateRun, String> {
        let (observer, drop_counter) = with_drop_counter(observer);
        cfg.observer = observer;
        let mut sim = ClusterSim::new(cfg, profiles_for(scenario));
        sim.install_faults(&fault_script(scenario));
        let mut snapshots = Vec::with_capacity(scenario.periods as usize);
        for p in 0..scenario.periods {
            sim.advance_to(SimTime::ZERO + PERIOD * (p + 1));
            snapshots.push(sim.conformance_snapshot(p));
        }
        let end = sim.conformance_snapshot(scenario.periods);
        Ok(cut_run("sim", snapshots, &end, &drop_counter.snapshot()))
    }
}

impl Substrate for SimSubstrate {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, scenario: &Scenario) -> Result<SubstrateRun, String> {
        SimSubstrate::run_observed(scenario, SharedObserver::noop())
    }
}

/// Conformance adapter for [`run_lockstep`]: one real thread per node,
/// barrier-paced, snapshots at period boundaries.
pub struct LockstepRuntime;

impl Substrate for LockstepRuntime {
    fn name(&self) -> &'static str {
        "runtime"
    }

    fn run(&self, scenario: &Scenario) -> Result<SubstrateRun, String> {
        LockstepRuntime::run_observed(scenario, SharedObserver::noop())
    }
}

impl LockstepRuntime {
    /// Run a scenario with a protocol-event observer attached. The node
    /// threads emit the same event vocabulary at the same protocol points
    /// as the simulator, so for a jitter-free, noise-free, zero-latency
    /// scenario the normalized streams must match the sim's exactly.
    pub fn run_observed(
        scenario: &Scenario,
        observer: SharedObserver,
    ) -> Result<SubstrateRun, String> {
        Self::run_with(sim_config(scenario), scenario, observer)
    }

    /// Run the scenario's workloads and faults under `cfg`, the same
    /// value [`SimSubstrate::run_with`] takes: the lockstep cluster is the
    /// part of it a barrier-paced substrate can read.
    pub fn run_with(
        mut cfg: ClusterConfig,
        scenario: &Scenario,
        observer: SharedObserver,
    ) -> Result<SubstrateRun, String> {
        let (observer, drop_counter) = with_drop_counter(observer);
        cfg.observer = observer;
        let run = run_lockstep(
            &LockstepConfig::from(&cfg),
            profiles_for(scenario),
            &fault_script(scenario),
            scenario.periods,
        );
        let counted = drop_counter.snapshot();
        Ok(cut_run("runtime", run.snapshots, &run.end, &counted))
    }
}

// ---------------------------------------------------------------------
// Substrate 3: UDP daemons on loopback
// ---------------------------------------------------------------------

/// Wall-clock milliseconds per daemon decider period. One daemon
/// iteration corresponds to one logical scenario period, so workload
/// profiles are time-scaled by `DAEMON_PERIOD_MS / 1000`.
const DAEMON_PERIOD_MS: u64 = 20;

/// Conformance adapter spawning one real `penelope-daemon` per node on
/// UDP loopback sockets.
pub struct UdpDaemonSubstrate;

impl Substrate for UdpDaemonSubstrate {
    fn name(&self) -> &'static str {
        "daemon"
    }

    fn run(&self, scenario: &Scenario) -> Result<SubstrateRun, String> {
        use penelope_daemon::{run_daemon_with_shim, DaemonConfig, PowerBackend};
        use penelope_net::DatagramSocket;
        use std::net::UdpSocket;

        // The one reading of the scenario's faults, in the order every
        // substrate applies them. Kills and restarts are walked period by
        // period below; the drop rate in force from time zero feeds the
        // socket shim, which is configured once, when a socket is wrapped.
        let script = fault_script(scenario).in_firing_order();
        let mut drop_permille = 0u16;
        for (at, action) in &script {
            match action {
                FaultAction::Kill(_) | FaultAction::Restart(_) => {}
                FaultAction::SetDropRate(rate) if *at == SimTime::ZERO => {
                    drop_permille = (rate * 1000.0).round() as u16;
                }
                // UDP loopback has no link-level fault plane to cut; the
                // partition matrix runs on the sim and lockstep substrates.
                _ => {
                    return Err("partition faults are not supported on the daemon substrate".into())
                }
            }
        }
        let mut script = script.into_iter().peekable();

        let n = scenario.nodes;
        let scale = DAEMON_PERIOD_MS as f64 / 1000.0;
        // Bind first so every daemon can know every peer's real port.
        let sockets: Vec<UdpSocket> = (0..n)
            .map(|_| UdpSocket::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()
            .map_err(|e| format!("bind: {e}"))?;
        let addrs: Vec<std::net::SocketAddr> = sockets
            .iter()
            .map(|s| s.local_addr())
            .collect::<std::io::Result<_>>()
            .map_err(|e| format!("local_addr: {e}"))?;

        // The scenario's message-loss rate, honored on *real datagrams*
        // by slotting each daemon's socket behind the deterministic
        // FaultySocket shim. (Before the shim existed this was silently
        // ignored, and every "lossy" daemon run was lossless.)
        // Duplication and delay-reordering have no `FaultAction`: only a
        // real wire can do either, so they stay on the spec.
        let (dup_permille, jitter_ms) = match scenario.fault {
            FaultSpec::LossyWire {
                dup_permille,
                jitter_ms,
                ..
            } => (dup_permille, jitter_ms),
            _ => (0, 0),
        };
        let fault_config = |i: usize| FaultConfig {
            seed: node_seed(scenario.seed, u64::MAX - 3 - i as u64),
            drop_permille,
            dup_permille,
            // The latency model's nanoseconds are read as wall-clock time
            // by the shim; a jittered uniform delay lets duplicates and
            // slow originals overtake later sends (real reordering).
            latency: (jitter_ms > 0).then(|| penelope_net::LatencyModel::Uniform {
                lo: SimDuration::ZERO,
                hi: SimDuration::from_millis(u64::from(jitter_ms)),
            }),
        };
        // Per-node fault streams reuse the lockstep substrate's dedicated
        // seed lane (u64::MAX - 3 - i): disjoint from every protocol
        // stream, so injecting loss never perturbs a protocol draw. Peers
        // register in logical node order, which pins direction slot →
        // fault stream across runs even though the ephemeral ports
        // differ — same seed, same drop schedule, bit-identical.
        let shim_active = drop_permille > 0 || dup_permille > 0 || jitter_ms > 0;
        // Returns the socket to hand the daemon plus (when the fault plane
        // is active) a second handle onto the shim, kept so the run can
        // report the shim's lifetime dup/delay counters after shutdown.
        let shimmed =
            |i: usize, socket: UdpSocket| -> (Arc<dyn DatagramSocket>, Option<Arc<FaultySocket>>) {
                if !shim_active {
                    (Arc::new(socket), None)
                } else {
                    let shim = Arc::new(FaultySocket::new(socket, fault_config(i)));
                    for (j, a) in addrs.iter().enumerate() {
                        if j != i {
                            shim.register_peer(*a);
                        }
                    }
                    (Arc::clone(&shim) as Arc<dyn DatagramSocket>, Some(shim))
                }
            };
        // One live shim handle per node, plus the handles of killed
        // incarnations (their counters still count toward the run).
        let mut shims: Vec<Option<Arc<FaultySocket>>> = vec![None; n];
        let mut retired_shims: Vec<Arc<FaultySocket>> = Vec::new();
        // Fault-plane drops and send attempts observed across all daemons
        // (including killed incarnations), for the NonVacuousLoss guard.
        let mut injected_drops = 0u64;
        let mut attempts = 0u64;
        let drops_of = |s: &penelope_daemon::DaemonSummary| {
            s.counters.count("msg_dropped") + s.counters.count("ack_dropped")
        };
        let attempts_of = |s: &penelope_daemon::DaemonSummary| send_attempts(&s.counters);

        // One config construction shared by the initial spawn and the
        // churn restart path: a restarted daemon is a brand-new process on
        // the *same address* (so peers keep reaching it) but with a fresh
        // workload, the re-admitted cap, and the previous incarnation's
        // sequence watermark.
        let mk_cfg = |i: usize, initial_cap: Power, initial_seq: u64| -> DaemonConfig {
            let spec = &scenario.workloads[i % scenario.workloads.len()];
            let peers: Vec<_> = addrs
                .iter()
                .enumerate()
                .filter(|(j, _)| *j != i)
                .map(|(_, a)| *a)
                .collect();
            DaemonConfig {
                listen: addrs[i],
                node_id: i as u32,
                peers,
                initial_cap,
                node: penelope_core::NodeParams {
                    decider: penelope_core::DeciderConfig {
                        period: SimDuration::from_millis(DAEMON_PERIOD_MS),
                        response_timeout: SimDuration::from_millis(DAEMON_PERIOD_MS / 2),
                        policy: scenario.policy,
                        ..Default::default()
                    },
                    pool: penelope_core::PoolConfig::default(),
                    safe_range: scenario.safe,
                },
                discovery: penelope_core::DiscoveryStrategy::default(),
                power: PowerBackend::SimulatedProfile {
                    profile: profile_from_spec_scaled(spec, &format!("w{i}"), scale),
                },
                rapl: penelope_power::RaplConfig {
                    safe_range: scenario.safe,
                    actuation_delay: SimDuration::ZERO,
                    read_noise_std: scenario.read_noise,
                },
                initial_seq,
                status_every: 1,
                observer: SharedObserver::noop(),
            }
        };

        let mut handles = Vec::with_capacity(n);
        for (i, socket) in sockets.into_iter().enumerate() {
            let (sock, shim) = shimmed(i, socket);
            shims[i] = shim;
            handles.push(Some(
                run_daemon_with_shim(mk_cfg(i, scenario.budget_per_node, 0), sock)
                    .map_err(|e| format!("daemon {i}: {e}"))?,
            ));
        }

        // Sample one status per node per period; kill on schedule. The
        // cuts are asynchronous across nodes, hence `consistent_cut:
        // false` — per-node invariants still hold on every sample.
        let recv_deadline = Duration::from_millis(DAEMON_PERIOD_MS * 50);
        let mut snapshots = Vec::with_capacity(scenario.periods as usize);
        let mut dead_rows: Vec<Option<NodeSnapshot>> = vec![None; n];
        let mut lost = Power::ZERO;
        let mut final_caps: Vec<Power> = vec![Power::ZERO; n];
        let mut final_alive = vec![true; n];
        let mut final_total = Power::ZERO;
        // The killed incarnation's sequence watermark, stashed for the
        // restart so the reborn daemon never reuses a pre-crash seq.
        let mut stashed_seq = 0u64;
        for p in 0..scenario.periods {
            let due = SimTime::ZERO + PERIOD * p;
            while let Some((_, action)) = script.next_if(|(at, _)| *at <= due) {
                match action {
                    FaultAction::Kill(node) => {
                        let idx = node.index();
                        let Some(handle) = handles[idx].take() else {
                            continue;
                        };
                        let summary = handle.stop();
                        injected_drops += drops_of(&summary);
                        attempts += attempts_of(&summary);
                        stashed_seq = summary.next_seq;
                        lost = lost + summary.final_cap + summary.final_pool;
                        final_caps[idx] = summary.final_cap;
                        final_alive[idx] = false;
                        // The killed node's holdings are retired; its frozen
                        // row keeps appearing (alive: false) so pool-balance
                        // checks still cover its lifetime counters.
                        dead_rows[idx] = Some(NodeSnapshot {
                            node: node.raw(),
                            alive: false,
                            cap: summary.final_cap,
                            pool_available: summary.final_pool,
                            pool_deposited: summary.pool_deposited,
                            pool_granted: summary.granted_to_peers + summary.taken_local,
                            pool_drained: summary.pool_drained,
                        });
                    }
                    FaultAction::Restart(node) if handles[node.index()].is_none() => {
                        let idx = node.index();
                        // Zero-sum re-admission: the reborn daemon gets at
                        // most its initial cap back, taken out of `lost`.
                        let readmitted = scenario.budget_per_node.min(lost);
                        if readmitted >= scenario.safe.min() {
                            lost -= readmitted;
                            let socket = UdpSocket::bind(addrs[idx])
                                .map_err(|e| format!("rebind daemon {idx}: {e}"))?;
                            let (sock, shim) = shimmed(idx, socket);
                            if let Some(old) = shims[idx].take() {
                                retired_shims.push(old);
                            }
                            shims[idx] = shim;
                            handles[idx] = Some(
                                run_daemon_with_shim(mk_cfg(idx, readmitted, stashed_seq), sock)
                                    .map_err(|e| format!("daemon {idx} restart: {e}"))?,
                            );
                            dead_rows[idx] = None;
                            final_alive[idx] = true;
                        }
                    }
                    // A restart of a live node, or the time-zero drop rate,
                    // which is already in the shim.
                    _ => {}
                }
            }
            let mut rows = Vec::with_capacity(n);
            for i in 0..n {
                match (&handles[i], &dead_rows[i]) {
                    (Some(h), _) => {
                        let s = h
                            .status_rx
                            .recv_timeout(recv_deadline)
                            .map_err(|e| format!("daemon {i} status at period {p}: {e}"))?;
                        rows.push(NodeSnapshot {
                            node: i as u32,
                            alive: true,
                            cap: s.cap,
                            pool_available: s.pool,
                            pool_deposited: s.pool_deposited,
                            pool_granted: s.pool_granted,
                            pool_drained: s.pool_drained,
                        });
                    }
                    (None, Some(row)) => rows.push(*row),
                    (None, None) => unreachable!("stopped daemons leave a frozen row"),
                }
            }
            snapshots.push(Snapshot {
                period: p,
                consistent_cut: false,
                in_flight: Power::ZERO,
                lost,
                nodes: rows,
            });
        }

        for (i, h) in handles.into_iter().enumerate() {
            if let Some(h) = h {
                let summary = h.stop();
                injected_drops += drops_of(&summary);
                attempts += attempts_of(&summary);
                final_caps[i] = summary.final_cap;
                // Live holdings at the quiescent end.
                final_total = final_total + summary.final_cap + summary.final_pool;
            }
        }
        // Add what faults retired: the end state must not exceed the
        // budget; UDP grants still in flight at shutdown only ever make
        // it *under*count.
        final_total += lost;

        // Fold every shim incarnation's lifetime counters into the run's
        // dup/delay evidence (drops are already counted by the daemons,
        // which observe `SendStatus::Dropped` directly).
        let (mut duplicated, mut delayed) = (0u64, 0u64);
        for shim in shims.iter().flatten().chain(retired_shims.iter()) {
            let stats = shim.stats();
            duplicated += stats.duplicated;
            delayed += stats.delayed;
        }

        Ok(SubstrateRun {
            substrate: "daemon".into(),
            snapshots,
            final_caps,
            final_alive,
            final_total,
            injected_drops: Some(injected_drops),
            send_attempts: Some(attempts),
            duplicated: shim_active.then_some(duplicated),
            delayed: shim_active.then_some(delayed),
        })
    }
}

// ---------------------------------------------------------------------
// Canned scenarios
// ---------------------------------------------------------------------

/// Two heavyweight + two lightweight synthetic workloads: the hungry
/// nodes must pull power from the excess the light nodes deposit.
fn mixed_workloads() -> Vec<WorkloadSpec> {
    let hungry = WorkloadSpec {
        phases: vec![PhaseSpec {
            demand: watts(220),
            secs: 60.0,
        }],
    };
    // Light for six periods, then hungry: exercises deposit, take-local
    // and peer-request paths in one run.
    let ramp = WorkloadSpec {
        phases: vec![
            PhaseSpec {
                demand: watts(100),
                secs: 6.0,
            },
            PhaseSpec {
                demand: watts(210),
                secs: 60.0,
            },
        ],
    };
    vec![hungry, ramp]
}

/// The canned cluster every scenario below runs: four nodes at 160 W each,
/// an 80–300 W safe range, the mixed workloads, exact power meters and the
/// default policy. Scenarios differ in name, length and fault.
fn canned(name: impl Into<String>, seed: u64, periods: u64, fault: FaultSpec) -> Scenario {
    Scenario {
        name: name.into(),
        seed,
        nodes: 4,
        budget_per_node: watts(160),
        safe: PowerRange::from_watts(80, 300),
        periods,
        workloads: mixed_workloads(),
        fault,
        read_noise: 0.0,
        policy: DeciderPolicy::default(),
    }
}

/// Nominal scenario: no faults, exact power meters.
pub fn nominal_scenario(seed: u64) -> Scenario {
    canned("nominal", seed, 10, FaultSpec::None)
}

/// Node-fault scenario: node 1 is killed at the start of period 4; its
/// cap and pooled power must be retired, never redistributed.
pub fn node_fault_scenario(seed: u64) -> Scenario {
    let fault = FaultSpec::KillNode {
        node: 1,
        at_period: 4,
    };
    Scenario {
        nodes: 5,
        ..canned("node-fault", seed, 12, fault)
    }
}

/// Noisy-power scenario: ±5 % multiplicative Gaussian read noise on
/// every power meter, no faults.
pub fn noisy_power_scenario(seed: u64) -> Scenario {
    Scenario {
        read_noise: 0.05,
        ..canned("noisy-power", seed, 10, FaultSpec::None)
    }
}

/// Lossy-network scenario: every peer message (request, grant, ack) is
/// independently dropped with probability `drop_permille / 1000`; no node
/// dies. With the grant escrow/ack layer in place the peer protocol must
/// book exactly zero `lost` power at every period boundary, for any rate.
pub fn lossy_scenario(seed: u64, drop_permille: u16, periods: u64) -> Scenario {
    canned(
        format!("lossy-{drop_permille}permille"),
        seed,
        periods,
        FaultSpec::Lossy { drop_permille },
    )
}

/// Full wire-fault scenario: loss plus duplication plus delay-reordering
/// on every link. On the daemon substrate all three legs run on real
/// datagrams through the socket shim; the deterministic substrates model
/// the loss leg only. Nothing dies, so `lost` must stay exactly zero and
/// every duplicate delivery must be absorbed idempotently.
pub fn lossy_wire_scenario(
    seed: u64,
    drop_permille: u16,
    dup_permille: u16,
    jitter_ms: u16,
    periods: u64,
) -> Scenario {
    canned(
        format!("lossy-wire-{drop_permille}d-{dup_permille}u-{jitter_ms}ms"),
        seed,
        periods,
        FaultSpec::LossyWire {
            drop_permille,
            dup_permille,
            jitter_ms,
        },
    )
}

/// A scenario under a non-default decider policy: the nominal mixed
/// workload (or, with loss, the lossy workload) re-run with every node's
/// decider swapped to `policy`. The engine underneath is unchanged, so
/// all conservation invariants must hold for any policy — and for a
/// deterministic substrate pair, the protocol streams must still match
/// event for event.
pub fn policy_scenario(
    seed: u64,
    policy: DeciderPolicy,
    drop_permille: u16,
    periods: u64,
) -> Scenario {
    let mut s = if drop_permille == 0 {
        nominal_scenario(seed)
    } else {
        lossy_scenario(seed, drop_permille, periods)
    };
    s.name = format!("{}-{}", s.name, policy.name());
    s.periods = periods;
    s.policy = policy;
    s
}

/// Node-churn scenario: node 1 crashes at the start of period 3 and
/// reboots at the start of period 10, optionally under background message
/// loss. Its cap and pool are retired at the crash; the restart re-admits
/// `min(initial cap, lost)` back out of the lost balance — zero-sum at
/// every consistent cut — with a persistent sequence namespace so stale
/// pre-crash grants are discarded, never double-paid.
pub fn churn_scenario(seed: u64, drop_permille: u16, periods: u64) -> Scenario {
    canned(
        format!("churn-{drop_permille}permille"),
        seed,
        periods,
        FaultSpec::KillRestart {
            node: 1,
            kill_at_period: 3,
            restart_at_period: 10,
            drop_permille,
        },
    )
}

/// Clean-partition scenario: the four nodes split 2|2 from period 3 to
/// period 8, optionally under background loss. No node dies, so every
/// grant stranded at the boundary must be escrow-reclaimed (`lost` stays
/// zero) and the books must balance at every consistent cut.
pub fn partition_scenario(seed: u64, drop_permille: u16, periods: u64) -> Scenario {
    canned(
        format!("partition-{drop_permille}permille"),
        seed,
        periods,
        FaultSpec::Partition {
            split_at: 2,
            at_period: 3,
            heal_at_period: 8,
            drop_permille,
        },
    )
}

/// Asymmetric-partition scenario: node 1 goes deaf (every link towards it
/// cut, its own sends still deliver) from period 3 to period 8. Its
/// requests keep being served while every grant back to it dies on the cut
/// link — the worst case for the escrow layer.
pub fn asymmetric_partition_scenario(seed: u64, drop_permille: u16, periods: u64) -> Scenario {
    canned(
        format!("asymmetric-{drop_permille}permille"),
        seed,
        periods,
        FaultSpec::AsymmetricIsolate {
            node: 1,
            at_period: 3,
            heal_at_period: 8,
            drop_permille,
        },
    )
}

/// Flapping-node scenario: node 1 alternates between isolated and
/// reachable every period from period 3 until period 9 — suspicion forms,
/// is refuted by the node's own gossip between flaps, forms again.
pub fn flapping_scenario(seed: u64, periods: u64) -> Scenario {
    canned(
        "flapping",
        seed,
        periods,
        FaultSpec::Flapping {
            node: 1,
            at_period: 3,
            heal_at_period: 9,
        },
    )
}

/// Concurrent churn + partition: the cluster splits 2|2 at period 3,
/// node 1 crashes inside its half at period 4, and at period 9 the split
/// heals and the node reboots in the same period.
pub fn partition_churn_scenario(seed: u64, periods: u64) -> Scenario {
    canned(
        "partition-churn",
        seed,
        periods,
        FaultSpec::PartitionChurn {
            split_at: 2,
            node: 1,
            at_period: 3,
            kill_at_period: 4,
            heal_at_period: 9,
        },
    )
}
