//! Substrate 3: UDP daemons on loopback.

use std::net::UdpSocket;
use std::sync::Arc;
use std::time::Duration;

use penelope_core::{fair_assignment, DeciderConfig, NodeParams};
use penelope_daemon::{run_daemon_with_shim, DaemonConfig, DaemonSummary, PowerBackend};
use penelope_net::{DatagramSocket, FaultConfig, FaultySocket, LatencyModel};
use penelope_power::RaplConfig;
use penelope_sim::{node_seed, FaultAction};
use penelope_units::{Power, SimDuration, SimTime};

use super::{at_period, send_attempts, NodeSnapshot, Scenario, Snapshot, Substrate, SubstrateRun};

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
        // The one reading of the scenario's faults, in the order every
        // substrate applies them. Kills and restarts are walked period by
        // period below; the drop rate in force from time zero feeds the
        // socket shim, which is configured once, when a socket is wrapped.
        let script = scenario.faults.in_firing_order();
        let mut drop_permille = 0u16;
        for (at, action) in &script {
            match action {
                FaultAction::Kill(_) | FaultAction::Restart(_) => {}
                FaultAction::SetDropRate(rate) if *at == SimTime::ZERO => {
                    drop_permille = (rate * 1000.0).round() as u16;
                }
                // UDP loopback has no link-level fault plane to cut, and
                // the shim's rate cannot change under a running daemon;
                // those scripts run on the sim and lockstep substrates.
                refused => {
                    return Err(format!(
                        "{refused:?} at {at:?} is not supported on the daemon substrate"
                    ))
                }
            }
        }
        let mut script = script.into_iter().peekable();

        let n = scenario.nodes();
        let cfg = &scenario.cfg;
        let initial_caps = fair_assignment(cfg.budget, n, cfg.node.safe_range);
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

        // The scenario's wire faults, honored on *real datagrams* by
        // slotting each daemon's socket behind the deterministic
        // FaultySocket shim. (Before the shim existed the loss rate was
        // silently ignored, and every "lossy" daemon run was lossless.)
        let (dup_permille, jitter_ms) = (scenario.dup_permille, scenario.jitter_ms);
        let fault_config = |i: usize| FaultConfig {
            seed: node_seed(cfg.seed, u64::MAX - 3 - i as u64),
            drop_permille,
            dup_permille,
            // The latency model's nanoseconds are read as wall-clock time
            // by the shim; a jittered uniform delay lets duplicates and
            // slow originals overtake later sends (real reordering).
            latency: (jitter_ms > 0).then(|| LatencyModel::Uniform {
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
        let mut count_traffic = |s: &DaemonSummary| {
            injected_drops += s.counters.count("msg_dropped") + s.counters.count("ack_dropped");
            attempts += send_attempts(&s.counters);
        };

        // One config construction shared by the initial spawn and the
        // churn restart path: a restarted daemon is a brand-new process on
        // the *same address* (so peers keep reaching it) but with a fresh
        // workload, the re-admitted cap, and the previous incarnation's
        // sequence watermark.
        let mk_cfg = |i: usize, initial_cap: Power, initial_seq: u64| -> DaemonConfig {
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
                node: NodeParams {
                    // Retransmits, gossip and discovery are the scenario's.
                    // The timers move to this adapter's wall-clock scale: a
                    // daemon period is 20 ms of real time where the
                    // scenario's is a virtual second, so the probe interval
                    // shrinks by the same factor, and a response must time
                    // out inside the period it was awaited in. The
                    // remaining knobs keep the daemon's defaults, which is
                    // what a deployed daemon runs.
                    decider: DeciderConfig {
                        period: SimDuration::from_millis(DAEMON_PERIOD_MS),
                        response_timeout: SimDuration::from_millis(DAEMON_PERIOD_MS / 2),
                        max_retransmits: cfg.node.decider.max_retransmits,
                        probe_interval: cfg.node.decider.probe_interval.mul_f64(scale),
                        gossip_digest: cfg.node.decider.gossip_digest,
                        ..Default::default()
                    },
                    pool: penelope_core::PoolConfig::default(),
                    safe_range: cfg.node.safe_range,
                },
                discovery: cfg.discovery,
                power: PowerBackend::SimulatedProfile {
                    profile: scenario.profiles[i].scaled(scale),
                },
                rapl: RaplConfig {
                    safe_range: cfg.node.safe_range,
                    actuation_delay: SimDuration::ZERO,
                    read_noise_std: cfg.rapl.read_noise_std,
                },
                initial_seq,
                status_every: 1,
                observer: cfg.observer.clone(),
            }
        };

        let mut handles = Vec::with_capacity(n);
        for (i, socket) in sockets.into_iter().enumerate() {
            let (sock, shim) = shimmed(i, socket);
            shims[i] = shim;
            handles.push(Some(
                run_daemon_with_shim(mk_cfg(i, initial_caps[i], 0), sock)
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
        // Each killed incarnation's sequence watermark, stashed for that
        // node's restart so the reborn daemon never reuses a pre-crash seq.
        let mut stashed_seq = vec![0u64; n];
        for p in 0..scenario.periods {
            let due = at_period(p);
            while let Some((_, action)) = script.next_if(|(at, _)| *at <= due) {
                match action {
                    FaultAction::Kill(node) => {
                        let idx = node.index();
                        let Some(handle) = handles.get_mut(idx).and_then(Option::take) else {
                            continue;
                        };
                        let summary = handle.stop();
                        count_traffic(&summary);
                        stashed_seq[idx] = summary.next_seq;
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
                    FaultAction::Restart(node)
                        if handles.get(node.index()).is_some_and(Option::is_none) =>
                    {
                        let idx = node.index();
                        // Zero-sum re-admission: the reborn daemon gets at
                        // most its initial cap back, taken out of `lost`.
                        let readmitted = initial_caps[idx].min(lost);
                        if readmitted >= cfg.node.safe_range.min() {
                            lost -= readmitted;
                            let socket = UdpSocket::bind(addrs[idx])
                                .map_err(|e| format!("rebind daemon {idx}: {e}"))?;
                            let (sock, shim) = shimmed(idx, socket);
                            if let Some(old) = shims[idx].take() {
                                retired_shims.push(old);
                            }
                            shims[idx] = shim;
                            let reborn = mk_cfg(idx, readmitted, stashed_seq[idx]);
                            handles[idx] = Some(
                                run_daemon_with_shim(reborn, sock)
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
                count_traffic(&summary);
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
