//! The thread-per-node runtime: one OS thread per node, a channel
//! transport, and barriers for a clock.
//!
//! [`run_lockstep`] drives the same `penelope_core::NodeEngine` the
//! simulator and the UDP daemon drive, through the same executor
//! (`NodeEngine::step`), from genuinely concurrent code: every node is a
//! thread that owns its RAPL domain and its random streams, messages
//! travel over [`penelope_net::ThreadNet`], and a coordinator paces the
//! cluster through decider periods with a barrier. Each period runs in
//! three barrier-separated phases — tick (Alg. 1), serve (Alg. 2 on the
//! destination pools), apply (grant delivery) — so that at the period
//! boundary every message sent has been consumed. Between periods the
//! coordinator applies the [`FaultScript`]'s due actions and takes a
//! snapshot; that instant is a consistent cut of truly concurrent state.
//!
//! It takes the simulator's `ClusterConfig` and reads all of it but what
//! only a discrete-event queue can use (latency and service models, queue
//! capacities, tick jitter), and its per-node streams are derived the same
//! way ([`node_seed`]) — so on a zero-latency, jitter-free simulator the
//! two emit equal protocol-event streams per seed. The third
//! substrate is `penelope-daemon`'s reactor, multiplexed on loopback
//! datagrams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use penelope_core::{fair_assignment, Effects, EngineInput, EngineOutput, NodeEngine, PeerMsg};
use penelope_net::{ThreadEndpoint, ThreadNet};
use penelope_power::{PowerInterface, SimulatedRapl};
use penelope_sim::{
    node_seed, AbortOnPanic, ClusterConfig, FaultAction, FaultScript, NodeSnapshot, PhaseBarrier,
    Snapshot,
};
use penelope_testkit::rng::TestRng;
use penelope_trace::{EventKind, Stamper};
use penelope_units::{NodeId, Power, SimDuration, SimTime};
use penelope_workload::{Profile, WorkloadState};

/// What [`run_lockstep`] saw: one consistent cut per period boundary, and
/// the cut after the node threads have exited.
#[derive(Clone, Debug)]
pub struct LockstepRun {
    /// The cut at the end of each period, in order.
    pub snapshots: Vec<Snapshot>,
    /// The end state (numbered `periods`).
    pub end: Snapshot,
}

/// Run one node thread per profile of the cluster `cfg` describes for
/// `periods` decider periods, applying each entry of `faults` (in
/// [`FaultScript::in_firing_order`]) at the first period boundary at or
/// after its timestamp.
///
/// Panics if `profiles` is empty or the even share falls below the safe
/// minimum, as `ClusterSim::new` does. If a node thread panics, the
/// barrier is aborted, every other thread leaves at its next arrival and
/// the panic is re-raised here with its original payload.
pub fn run_lockstep(
    cfg: &ClusterConfig,
    profiles: Vec<Profile>,
    faults: &FaultScript,
    periods: u64,
) -> LockstepRun {
    let n = profiles.len();
    assert!(n > 0, "cluster needs at least one node");
    let period = cfg.node.decider.period;
    let initial_caps = fair_assignment(cfg.budget, n, cfg.node.safe_range);
    let (net, endpoints) = ThreadNet::<PeerMsg>::new(n);
    let engine_cfg = Arc::new(cfg.engine_config());
    let shared = Shared {
        engines: (0..n)
            .map(|i| {
                Mutex::new(NodeEngine::new(
                    NodeId::new(i as u32),
                    n,
                    Arc::clone(&engine_cfg),
                    initial_caps[i],
                    cfg.observer.clone(),
                ))
            })
            .collect(),
        caps_mw: initial_caps
            .iter()
            .map(|cap| AtomicU64::new(cap.milliwatts()))
            .collect(),
        alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
        lost_mw: AtomicU64::new(0),
        barrier: PhaseBarrier::new(n + 1),
    };
    let coordinator = Coordinator {
        shared: &shared,
        net: &net,
        initial_caps: &initial_caps,
        safe_min: cfg.node.safe_range.min(),
    };
    // Same-period order is the simulator's: script order, kills last.
    let script = faults.in_firing_order();

    let snapshots = std::thread::scope(|scope| {
        let mut threads = Vec::with_capacity(n);
        for (i, (endpoint, profile)) in endpoints.into_iter().zip(profiles).enumerate() {
            let state = WorkloadState::with_overhead(profile, cfg.management_overhead);
            // Per-node loss stream, disjoint from the decider RNG so drop
            // injection never perturbs the protocol's draw sequence.
            let loss_seed = node_seed(cfg.seed, u64::MAX - 3 - i as u64);
            let node = NodeThread {
                rng: TestRng::seed_from_u64(node_seed(cfg.seed, i as u64)),
                outputs: Vec::new(),
                fx: LockstepFx {
                    now: SimTime::ZERO,
                    endpoint,
                    shared: &shared,
                    rapl: SimulatedRapl::new(state, initial_caps[i], cfg.rapl.clone()),
                    drop_rng: TestRng::seed_from_u64(loss_seed),
                    trace: Stamper::new(cfg.observer.clone(), period),
                },
            };
            threads.push(scope.spawn(move || node_loop(periods, period, node)));
        }

        // Coordinator: inject faults at period starts, snapshot at period
        // ends. Node threads are parked on the first barrier of period p
        // while this runs, so the snapshot reads quiescent state.
        let mut due = script.iter().peekable();
        let mut snapshots = Vec::with_capacity(periods as usize);
        'run: for p in 0..periods {
            let now = SimTime::ZERO + period * p;
            while let Some((_, action)) = due.next_if(|(at, _)| *at <= now) {
                coordinator.apply(action);
            }
            // Release into tick; tick done; serve done; apply done
            // (channels drained).
            for _phase in 0..4 {
                if !shared.barrier.wait() {
                    break 'run;
                }
            }
            snapshots.push(shared.snapshot(p));
        }
        for thread in threads {
            if let Err(payload) = thread.join() {
                std::panic::resume_unwind(payload);
            }
        }
        snapshots
    });
    LockstepRun {
        snapshots,
        end: shared.snapshot(periods),
    }
}

/// Everything the coordinator shares with the node threads.
///
/// Each node's whole protocol automaton is one [`NodeEngine`] behind a
/// mutex: the owning thread locks it for the duration of a phase, and the
/// coordinator locks it only between barriers (faults, snapshots), when
/// every node thread is parked — so the locks are never contended and the
/// period-boundary reads are consistent cuts.
struct Shared {
    engines: Vec<Mutex<NodeEngine>>,
    /// Caps mirrored out of each engine, in milliwatts (kept so dead
    /// nodes' retired caps stay visible in snapshots).
    caps_mw: Vec<AtomicU64>,
    alive: Vec<AtomicBool>,
    /// Power retired from the system (killed nodes), in milliwatts.
    lost_mw: AtomicU64,
    barrier: PhaseBarrier,
}

impl Shared {
    /// One period-boundary consistent cut of the cluster.
    fn snapshot(&self, period: u64) -> Snapshot {
        // At the period boundary every sent message has been consumed, so
        // the only in-flight power is what granters hold in escrow for
        // grants that never reached their requester (undelivered entries).
        // Killed nodes' engines were retired at the kill, so they report
        // zero.
        let mut escrowed = Power::ZERO;
        let nodes = self
            .engines
            .iter()
            .enumerate()
            .map(|(i, engine)| {
                let e = engine.lock().unwrap();
                escrowed += e.escrowed_undelivered();
                let alive = self.alive[i].load(Ordering::SeqCst);
                let cap = Power::from_milliwatts(self.caps_mw[i].load(Ordering::SeqCst));
                NodeSnapshot::of(i as u32, alive, cap, e.pool())
            })
            .collect();
        Snapshot {
            period,
            consistent_cut: true,
            in_flight: escrowed,
            lost: Power::from_milliwatts(self.lost_mw.load(Ordering::SeqCst)),
            nodes,
        }
    }
}

/// The coordinator's side of a fault: node lifecycle against the shared
/// books, connectivity and loss on the thread-net's fault plane.
struct Coordinator<'a> {
    shared: &'a Shared,
    net: &'a ThreadNet<PeerMsg>,
    initial_caps: &'a [Power],
    safe_min: Power,
}

impl Coordinator<'_> {
    /// Connectivity and the drop rate land on the thread-net's plane (each
    /// sender draws the rate against its own loss stream,
    /// [`ThreadNet::send`]); kills and restarts are the books'.
    fn apply(&self, action: &FaultAction) {
        if self.net.with_faults(|plane| action.apply(plane)) {
            return;
        }
        match action {
            FaultAction::Kill(node) => self.kill(*node),
            FaultAction::Restart(node) => self.restart(*node),
            // A Penelope cluster has no server.
            _ => {}
        }
    }

    /// Retire the victim's cap, pool and escrow into `lost` and block its
    /// traffic. A no-op on a node that is dead or never existed.
    fn kill(&self, node: NodeId) {
        let (shared, idx) = (self.shared, node.index());
        let Some(alive) = shared.alive.get(idx) else {
            return;
        };
        if alive.swap(false, Ordering::SeqCst) {
            self.net.with_faults(|f| f.kill(node));
            // The engine retires its pool *and* any escrowed grants —
            // undelivered power dies with its granter, exactly like its
            // cap.
            let (pooled, escrowed) = shared.engines[idx].lock().unwrap().retire();
            let cap = shared.caps_mw[idx].load(Ordering::SeqCst);
            shared.lost_mw.fetch_add(
                cap + pooled.milliwatts() + escrowed.milliwatts(),
                Ordering::SeqCst,
            );
        }
    }

    /// Zero-sum re-admission: the reborn cap comes out of the lost balance,
    /// never exceeding it (nor the node's initial assignment), and only if
    /// it funds a cap inside the safe range. The node thread rebuilds its
    /// engine when it next wakes ([`node_loop`]).
    fn restart(&self, node: NodeId) {
        let (shared, idx) = (self.shared, node.index());
        if shared
            .alive
            .get(idx)
            .is_some_and(|a| !a.load(Ordering::SeqCst))
        {
            let lost = shared.lost_mw.load(Ordering::SeqCst);
            let readmit = self.initial_caps[idx].milliwatts().min(lost);
            if readmit >= self.safe_min.milliwatts() {
                shared.lost_mw.fetch_sub(readmit, Ordering::SeqCst);
                shared.caps_mw[idx].store(readmit, Ordering::SeqCst);
                self.net.with_faults(|f| f.revive(node));
                shared.alive[idx].store(true, Ordering::SeqCst);
            }
        }
    }
}

/// What a node thread owns besides its engine (which lives in [`Shared`],
/// where the coordinator can reach it between barriers): the decider's
/// random stream, the reusable output buffer, and [`LockstepFx`].
struct NodeThread<'a> {
    rng: TestRng,
    outputs: Vec<EngineOutput>,
    fx: LockstepFx<'a>,
}

impl NodeThread<'_> {
    fn step(&mut self, engine: &mut NodeEngine, input: EngineInput) {
        engine.step(
            self.fx.now,
            input,
            &mut self.rng,
            &mut self.outputs,
            &mut self.fx,
        );
    }
}

/// The substrate's side of an engine step: the thread's RAPL and the
/// shared cap mirror, the thread-net with the fault plane's loss drawn at
/// the sender, and the shared lost balance.
struct LockstepFx<'a> {
    /// The start of the current period: every event in it is stamped so.
    now: SimTime,
    endpoint: ThreadEndpoint<PeerMsg>,
    shared: &'a Shared,
    rapl: SimulatedRapl<WorkloadState>,
    drop_rng: TestRng,
    trace: Stamper,
}

impl LockstepFx<'_> {
    /// Substrate-level emissions; the engine emits its own events through
    /// the same observer. Kinds are tiny `Copy` values, so building one
    /// eagerly costs nothing even with the observer off.
    fn emit(&self, kind: EventKind) {
        self.trace.emit(self.now, self.endpoint.id(), || kind);
    }
}

impl Effects<TestRng> for LockstepFx<'_> {
    /// Requests, grants and acks all pass through the loss stream, so a
    /// lossy script degrades every protocol edge, exactly like the
    /// simulator's drop-rate fault.
    fn send(
        &mut self,
        _: &mut TestRng,
        dst: NodeId,
        msg: PeerMsg,
        carried: Power,
        escrowed: bool,
    ) -> bool {
        let if_lost = match &msg {
            // A refused send (dead peer) or a random drop just means the
            // decider times out and retries (bounded retransmits under
            // lossy scenarios).
            PeerMsg::Request(_) => Some(EventKind::MsgDropped { dst, carried }),
            // A dropped ack is not retried: the granter's AwaitingAck
            // entry simply expires without credit.
            PeerMsg::Ack(a, _) => Some(EventKind::AckDropped { dst, seq: a.seq }),
            // Power already debited from the pool: the engine escrows it
            // under the outcome returned here (AwaitingAck when carried,
            // Undelivered when dropped — the §3.2 atomicity fix), so an
            // undeliverable grant keeps its accounting weight on the
            // granter instead of being lost.
            PeerMsg::Grant(..) if escrowed => Some(EventKind::MsgDropped { dst, carried }),
            // Zero grants (empty-handed replies, ack-raced reminders) are
            // fire-and-forget.
            PeerMsg::Grant(..) => None,
        };
        let delivered = self.endpoint.send(dst, msg, self.now, &mut self.drop_rng);
        self.emit(EventKind::MsgSent { dst, carried });
        if let (false, Some(kind)) = (delivered, if_lost) {
            self.emit(kind);
        }
        delivered
    }

    fn actuate(&mut self, cap: Power) {
        self.rapl.set_cap(cap, self.now);
        let idx = self.endpoint.id().index();
        self.shared.caps_mw[idx].store(cap.milliwatts(), Ordering::SeqCst);
    }

    /// No timer wheel here: the tick phase starts with a `SweepEscrow`,
    /// and one sweep per period boundary subsumes every per-entry deadline.
    fn escrow_timer(&mut self, _requester: NodeId, _seq: u64, _at: SimTime) {}

    fn power_lost(&mut self, amount: Power) {
        let lost = &self.shared.lost_mw;
        lost.fetch_add(amount.milliwatts(), Ordering::SeqCst);
    }

    /// Turnaround is not measured on this substrate.
    fn resolved(&mut self, _seq: u64, _amount: Power) {}
}

/// The per-node thread body: the same [`NodeEngine`] the simulator drives,
/// phased by barriers instead of an event queue.
fn node_loop(periods: u64, period: SimDuration, mut node: NodeThread) {
    let shared = node.fx.shared;
    let _abort = AbortOnPanic(&shared.barrier);
    let idx = node.fx.endpoint.id().index();
    let mut stashed_grants: Vec<(NodeId, PeerMsg)> = Vec::new();
    let mut was_alive = true;
    for p in 0..periods {
        // Coordinator finished faults/snapshot.
        if !shared.barrier.wait() {
            return;
        }
        let now = SimTime::ZERO + period * p;
        node.fx.now = now;
        let me_alive = shared.alive[idx].load(Ordering::SeqCst);
        if !was_alive && me_alive {
            // Reborn between periods: the coordinator re-admitted a cap
            // out of the lost balance. The engine rebuilds controller and
            // pool state fresh, but continues the sequence namespace
            // *after* the pre-crash watermark, so peers' escrow entries
            // keyed by the old (requester, seq) pairs can never collide
            // with — or be replayed into — the new epoch.
            let reborn = Power::from_milliwatts(shared.caps_mw[idx].load(Ordering::SeqCst));
            shared.engines[idx].lock().unwrap().reincarnate(reborn);
            node.fx.rapl.set_cap(reborn, now);
            stashed_grants.clear();
            node.fx
                .emit(EventKind::NodeRestarted { readmitted: reborn });
        }
        // Killed between periods: the coordinator's kill leg already
        // retired cap, pool *and* escrow through `NodeEngine::retire`;
        // nothing is left thread-side.
        was_alive = me_alive;

        // --- Tick phase -------------------------------------------------
        if me_alive {
            let mut engine = shared.engines[idx].lock().unwrap();
            // Reclaim escrowed grants whose ack deadline has passed before
            // deciding: an Undelivered amount flows back into this node's
            // own pool (the §3.2 abort path); an AwaitingAck entry expires
            // without credit — the power is with the requester or died
            // with it, and re-crediting it would mint.
            node.step(&mut engine, EngineInput::SweepEscrow);
            let reading = node.fx.rapl.read_power_with(now, &mut node.rng);
            node.step(&mut engine, EngineInput::Tick { reading });
        }
        // Tick done everywhere: all requests sent.
        if !shared.barrier.wait() {
            return;
        }

        // --- Serve phase ------------------------------------------------
        // Drain this node's queue, answering requests from the local pool
        // (the engine dedups retransmits against its escrow and never
        // double-debits). Grants from other nodes' serve phases may
        // interleave into the queue; stash them for the apply phase.
        {
            let mut guard = me_alive.then(|| shared.engines[idx].lock().unwrap());
            while let Some(env) = node.fx.endpoint.try_recv() {
                let src = env.src;
                match &env.msg {
                    PeerMsg::Grant(g, _) => {
                        let carried = g.amount;
                        node.fx.emit(EventKind::MsgRecv { src, carried });
                        stashed_grants.push((src, env.msg));
                    }
                    // A dead node's requests and acks evaporate.
                    PeerMsg::Request(_) | PeerMsg::Ack(..) => {
                        if let Some(engine) = guard.as_deref_mut() {
                            let carried = Power::ZERO;
                            node.fx.emit(EventKind::MsgRecv { src, carried });
                            node.step(engine, EngineInput::Msg { src, msg: env.msg });
                        }
                    }
                }
            }
        }
        // Serve done everywhere: all grants sent.
        if !shared.barrier.wait() {
            return;
        }

        // --- Apply phase ------------------------------------------------
        if me_alive {
            let mut engine = shared.engines[idx].lock().unwrap();
            while let Some(env) = node.fx.endpoint.try_recv() {
                let src = env.src;
                match &env.msg {
                    PeerMsg::Grant(g, _) => {
                        let carried = g.amount;
                        node.fx.emit(EventKind::MsgRecv { src, carried });
                        stashed_grants.push((src, env.msg));
                    }
                    // Acks race with the apply drain (they are sent from
                    // other nodes' apply phases); one missed here is
                    // handled by the next serve phase, well before any
                    // escrow deadline.
                    PeerMsg::Ack(..) => {
                        let carried = Power::ZERO;
                        node.fx.emit(EventKind::MsgRecv { src, carried });
                        node.step(&mut engine, EngineInput::Msg { src, msg: env.msg });
                    }
                    PeerMsg::Request(_) => {} // all requests drained in serve
                }
            }
            for (src, msg) in stashed_grants.drain(..) {
                // The engine merges piggybacked gossip before booking the
                // reply, applies the grant, actuates the new cap and acks
                // non-zero amounts back to the granter.
                node.step(&mut engine, EngineInput::Msg { src, msg });
            }
        }
        // Apply done: nothing in flight.
        if !shared.barrier.wait() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_sim::SystemKind;
    use penelope_trace::SharedObserver;
    use penelope_workload::{PerfModel, Phase};

    const BUDGET: Power = Power::from_watts_u64(3 * 160);

    /// Three nodes at 160 W, one hungry, for `periods` periods of 1 s.
    fn run_observed(faults: &FaultScript, periods: u64, observer: SharedObserver) -> LockstepRun {
        let mut cfg = ClusterConfig::checked(SystemKind::Penelope, BUDGET);
        cfg.observer = observer;
        let perf = PerfModel::new(Power::from_watts_u64(60), 1.0);
        let profiles = [230, 100, 100]
            .map(|w| Profile::new("p", vec![Phase::new(Power::from_watts_u64(w), 60.0)], perf));
        run_lockstep(&cfg, profiles.to_vec(), faults, periods)
    }

    fn run(faults: &FaultScript, periods: u64) -> LockstepRun {
        let budget = BUDGET;
        let run = run_observed(faults, periods, SharedObserver::noop());
        assert_eq!(run.snapshots.len() as u64, periods);
        for cut in run.snapshots.iter().chain([&run.end]) {
            assert!(cut.consistent_cut);
            assert_eq!(
                cut.accounted_live() + cut.lost,
                budget,
                "period {}",
                cut.period
            );
        }
        run
    }

    #[test]
    fn an_entry_between_boundaries_fires_at_the_next_one() {
        let at = SimTime::ZERO + SimDuration::from_millis(2_500);
        let run = run(&FaultScript::kill_node_at(at, NodeId::new(1)), 6);
        let alive = |p: usize| run.snapshots[p].nodes[1].alive;
        assert!(alive(1) && alive(2), "killed before its timestamp");
        assert!(!alive(3), "not dead in the period after its timestamp");
        assert!(!run.end.lost.is_zero());
    }

    #[test]
    fn faults_that_name_no_live_target_are_no_ops() {
        let t = SimTime::from_secs(2);
        let script = FaultScript::kill_node_at(t, NodeId::new(9))
            .restart_at(t, NodeId::new(9))
            .restart_at(t, NodeId::new(0))
            .at(t, FaultAction::KillServer);
        let run = run(&script, 5);
        assert!(run.end.nodes.iter().all(|n| n.alive));
        assert!(run.end.lost.is_zero());
    }

    /// Panics inside node 1's engine step (its mutex held) in period 2.
    struct PanicsInPeriodTwo;

    impl penelope_trace::Observer for PanicsInPeriodTwo {
        fn on_event(&self, ev: &penelope_trace::TraceEvent) {
            if ev.period == 2 && ev.node == NodeId::new(1) {
                panic!("node 1 broke in period 2");
            }
        }
    }

    #[test]
    fn a_panicking_node_thread_fails_the_run_with_its_own_payload() {
        // Run on a thread of its own, so that a barrier nobody leaves
        // fails this test instead of hanging the suite. The panic lands
        // just after a barrier release, while slower threads are still
        // leaving it — repeated, because that window is a race.
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for _ in 0..20 {
                let result = std::panic::catch_unwind(|| {
                    let observer = SharedObserver::new(Arc::new(PanicsInPeriodTwo));
                    run_observed(&FaultScript::none(), 50, observer);
                });
                let _ = done.send(result.map_err(|payload| payload.downcast::<&str>().ok()));
            }
        });
        for _ in 0..20 {
            let outcome = outcome
                .recv_timeout(std::time::Duration::from_secs(10))
                .expect("run_lockstep hung on a barrier a panicked node never reached");
            assert_eq!(outcome, Err(Some(Box::new("node 1 broke in period 2"))));
        }
    }
}
