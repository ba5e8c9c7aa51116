//! The cluster simulator.

use penelope_core::{
    fair_assignment, Effects, EngineConfig, EngineInput, EngineOutput, NodeEngine, PeerMsg,
    PoolConfig, PowerPool,
};
use penelope_metrics::{Figures, MetricsCollector};
use penelope_net::{RouteOutcome, SimNet};
use penelope_power::{PowerInterface, SimulatedRapl};
use penelope_slurm::{ClientAction, PowerServer, ServerGrant, ServerQueue, SlurmClient, SlurmMsg};
use penelope_testkit::rng::{node_seed, Rng, TestRng};
use penelope_trace::{EventKind, FanoutObserver, SharedObserver, Stamper};
use penelope_units::{NodeId, Power, SimDuration, SimTime};
use penelope_workload::{Profile, WorkloadState};

use std::sync::Arc;

use crate::config::{ClusterConfig, SystemKind};
use crate::event::{Event, EventQueue, Scheduled};
use crate::faults::{FaultAction, FaultScript};
use crate::ledger::{Ledger, NodeSnapshot, Snapshot};
use crate::node::Manager;
use crate::report::RunReport;
use crate::soa::NodeTable;
use crate::trace::ClusterTrace;

/// Backlog capacity of the SLURM server queue (drop when full).
const SERVER_QUEUE_CAPACITY: usize = 1200;

/// Backlog capacity of each Penelope pool's queue.
const POOL_QUEUE_CAPACITY: usize = 300;

/// The SLURM server side: policy + queue model, hosted on a dedicated node.
struct ServerSide {
    id: NodeId,
    policy: PowerServer,
    queue: ServerQueue,
    rng: TestRng,
}

/// A deterministic discrete-event simulation of one cluster running one
/// power-management system over one set of workloads.
///
/// Build with [`ClusterSim::new`], optionally [install
/// faults](ClusterSim::install_faults) and [redistribution
/// tracking](ClusterSim::track_redistribution), then [`run`](ClusterSim::run).
pub struct ClusterSim {
    cfg: ClusterConfig,
    now: SimTime,
    queue: EventQueue,
    net: SimNet,
    net_rng: TestRng,
    /// Dedicated stream for routing `GrantAck`s: acks must not perturb the
    /// `net_rng` draw sequence, or every loss-free seed would replay
    /// differently than it did before the ack protocol existed.
    ack_rng: TestRng,
    nodes: NodeTable,
    /// Reusable buffer `NodeEngine::step` fills and drains on every engine
    /// interaction, so the hot path never allocates.
    engine_out: Vec<EngineOutput>,
    servers: Vec<ServerSide>,
    ledger: Ledger,
    /// Every Fig. 4–8 number: turnaround, oscillation, redistribution.
    metrics: MetricsCollector,
    finished_count: usize,
    dead: Vec<NodeId>,
    dead_unfinished: usize,
    conservation_ok: bool,
    stop_on_full_redistribution: bool,
    trace: Option<Arc<ClusterTrace>>,
    stamp: Stamper,
    events_processed: u64,
}

impl ClusterSim {
    /// Build a cluster: one node per workload profile, caps assigned
    /// evenly from the budget (all three systems start this way, §4.3).
    pub fn new(cfg: ClusterConfig, workloads: Vec<Profile>) -> Self {
        let n = workloads.len();
        assert!(n > 0, "cluster needs at least one node");
        let caps = fair_assignment(cfg.budget, n, cfg.node.safe_range);
        Self::with_assignments(cfg, workloads, caps)
    }

    /// Start building a cluster fluently: system, budget, workloads,
    /// node parameters and observer in any order. See [`ClusterSimBuilder`].
    pub fn builder() -> ClusterSimBuilder {
        ClusterSimBuilder::new()
    }

    /// Build a cluster with explicit (possibly uneven) initial cap
    /// assignments — the *power assignment* axis of §2.2.1. Every cap must
    /// be within the safe range and their sum within the budget; the sum
    /// becomes the conserved total.
    pub fn with_assignments(cfg: ClusterConfig, workloads: Vec<Profile>, caps: Vec<Power>) -> Self {
        let n = workloads.len();
        assert!(n > 0, "cluster needs at least one node");
        assert_eq!(caps.len(), n, "one cap per node");
        for (i, c) in caps.iter().enumerate() {
            assert!(
                cfg.node.safe_range.contains(*c),
                "cap {c} for node {i} outside the safe range"
            );
        }
        let initial_total: Power = caps.iter().copied().sum();
        assert!(
            initial_total <= cfg.budget,
            "assignments sum to {initial_total}, above the {} budget",
            cfg.budget
        );

        let mut queue = EventQueue::with_capacity(2 * n);
        let mut nodes = NodeTable::with_capacity(n);
        // One configuration for the cluster; every engine holds a handle.
        let engine_cfg = Arc::new(cfg.engine_config());
        for (i, profile) in workloads.into_iter().enumerate() {
            let id = NodeId::new(i as u32);
            let mut rng = TestRng::seed_from_u64(node_seed(cfg.seed, i as u64));
            let overhead = match cfg.system {
                SystemKind::Fair => 0.0,
                _ => cfg.management_overhead,
            };
            let state = WorkloadState::with_overhead(profile, overhead);
            let rapl = SimulatedRapl::new(state, caps[i], cfg.rapl.clone());
            let manager = match cfg.system {
                SystemKind::Fair => Manager::Fair,
                SystemKind::Penelope => Manager::Penelope {
                    engine: NodeEngine::new(
                        id,
                        n,
                        Arc::clone(&engine_cfg),
                        caps[i],
                        cfg.observer.clone(),
                    ),
                    queue: ServerQueue::new(cfg.service, POOL_QUEUE_CAPACITY),
                },
                SystemKind::Slurm => Manager::Slurm {
                    client: SlurmClient::new(cfg.node.decider, caps[i], cfg.node.safe_range),
                },
            };
            // First tick at a small random phase offset; every period after.
            let jitter = if cfg.tick_jitter.is_zero() {
                SimDuration::ZERO
            } else {
                SimDuration::from_nanos(rng.gen_range(0..=cfg.tick_jitter.as_nanos()))
            };
            queue.push(SimTime::ZERO + jitter, Event::Tick(id));
            nodes.push(manager, rapl, rng, caps[i], SimTime::ZERO + jitter);
        }

        let servers = match cfg.system {
            SystemKind::Slurm => {
                // Primary always; a backup when configured (the failover
                // study the paper leaves as future work, §4.4).
                let count = if cfg.backup_server { 2 } else { 1 };
                (0..count)
                    .map(|k| ServerSide {
                        id: NodeId::new((n + k) as u32),
                        policy: PowerServer::new(cfg.node.pool),
                        queue: ServerQueue::new(cfg.service, SERVER_QUEUE_CAPACITY),
                        rng: TestRng::seed_from_u64(node_seed(cfg.seed, u64::MAX - k as u64 * 2)),
                    })
                    .collect()
            }
            _ => Vec::new(),
        };

        let net_rng = TestRng::seed_from_u64(node_seed(cfg.seed, u64::MAX - 1));
        let ack_rng = TestRng::seed_from_u64(node_seed(cfg.seed, u64::MAX - 2));
        let stamp = Stamper::new(cfg.observer.clone(), cfg.node.decider.period);
        ClusterSim {
            net: SimNet::new(cfg.latency.clone()),
            cfg,
            now: SimTime::ZERO,
            queue,
            net_rng,
            ack_rng,
            nodes,
            engine_out: Vec::new(),
            servers,
            ledger: Ledger::new(initial_total),
            metrics: MetricsCollector::new(),
            finished_count: 0,
            dead: Vec::new(),
            dead_unfinished: 0,
            conservation_ok: true,
            stop_on_full_redistribution: false,
            trace: None,
            stamp,
            events_processed: 0,
        }
    }

    /// Record per-node (cap, reading, pool) samples at every decider tick;
    /// the trace comes back in the run report. Memory is O(nodes × ticks),
    /// so enable it for runs you intend to plot.
    ///
    /// The trace is an [`Observer`](penelope_trace::Observer) fed from the
    /// simulator's `CapActuated` events; any observer supplied through the
    /// configuration keeps receiving the full stream alongside it.
    pub fn record_traces(&mut self) {
        let trace = Arc::new(ClusterTrace::new(self.nodes.len()));
        let obs = FanoutObserver::pair(
            self.cfg.observer.clone(),
            SharedObserver::from(trace.clone()),
        );
        for manager in &mut self.nodes.manager {
            if let Manager::Penelope { engine, .. } = manager {
                engine.set_observer(obs.clone());
            }
        }
        self.stamp = Stamper::new(obs, self.cfg.node.decider.period);
        self.trace = Some(trace);
    }

    /// Stop the run as soon as the redistribution tracker reaches 100 %
    /// (the scale-study scenarios have perpetual workloads, so completion
    /// of the *redistribution* is the natural end of the experiment).
    pub fn stop_when_redistributed(&mut self) {
        self.stop_on_full_redistribution = true;
    }

    /// Install a fault script: schedules its entries as events, in
    /// [`FaultScript::in_firing_order`] (chronological, kills last within
    /// an instant).
    pub fn install_faults(&mut self, script: &FaultScript) {
        for (at, action) in script.in_firing_order() {
            self.queue.push(at, Event::Fault(action));
        }
    }

    /// Track redistribution of `total` excess toward the given hungry
    /// nodes: every grant delivered to one of them is credited (clipped at
    /// `total`, exactly as the paper counts power reaching power-hungry
    /// nodes), with the clock starting at `from`.
    pub fn track_redistribution(&mut self, total: Power, recipients: Vec<NodeId>, from: SimTime) {
        self.metrics.track_redistribution(total, recipients, from);
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Run until every live workload finishes or `horizon` passes,
    /// whichever comes first.
    pub fn run(mut self, horizon: SimTime) -> RunReport {
        self.advance_to(horizon);
        self.now = self.now.min(horizon);
        self.into_report()
    }

    /// Process events up to and including `until`, leaving the simulator
    /// usable — the incremental form of [`run`](ClusterSim::run), used by
    /// the conformance harness to interleave execution with
    /// [snapshots](ClusterSim::conformance_snapshot). Processes nothing
    /// once the run has reached a stop condition (all workloads finished
    /// or dead, or full redistribution when so configured).
    pub fn advance_to(&mut self, until: SimTime) {
        loop {
            // Neither stop check looks at the next event, so slicing a run
            // into several calls processes the same events as one call.
            if self.finished_count + self.dead_unfinished >= self.nodes.len() {
                return;
            }
            if self.stop_on_full_redistribution
                && self
                    .metrics
                    .redistribution()
                    .is_some_and(|tracker| tracker.complete())
            {
                return;
            }
            let Some(Scheduled { at, event, .. }) = self.queue.pop_until(until) else {
                return;
            };
            self.now = at;
            self.events_processed += 1;
            match event {
                Event::Tick(id) => self.handle_tick(id),
                Event::DeliverPeer(env) => self.handle_deliver_peer(env),
                Event::PoolProcess(env) => self.handle_pool_process(env),
                Event::DeliverSlurm(env) => self.handle_deliver_slurm(env),
                Event::ServerProcess(env) => self.handle_server_process(env),
                Event::Fault(action) => self.handle_fault(action),
                Event::EscrowTimeout {
                    granter,
                    requester,
                    seq,
                } => self.handle_escrow_timeout(granter, requester, seq),
            }
            if self.cfg.check_invariants {
                self.check_conservation();
            }
        }
    }

    /// Finish an [`advance_to`](ClusterSim::advance_to)-driven run and
    /// produce the report.
    pub fn finish(self) -> RunReport {
        self.into_report()
    }

    /// A consistent global cut of the cluster for the conformance harness:
    /// the simulator is single-threaded, so every per-node row, the
    /// in-flight total and the loss total are all observed at the same
    /// virtual instant. `pool_granted` counts power granted to peers *and*
    /// taken locally — every withdrawal that raised a cap. On SLURM
    /// clusters the live server cache is folded into `in_flight` (power
    /// held outside any client node), so zero-sum accounting holds for
    /// every system kind.
    pub fn conformance_snapshot(&self, period: u64) -> Snapshot {
        // Managers without a pool report an empty one.
        let no_pool = PowerPool::new(PoolConfig::default());
        let nodes = (0..self.nodes.len())
            .map(|i| {
                let pool = match &self.nodes.manager[i] {
                    Manager::Penelope { engine, .. } => engine.pool(),
                    _ => &no_pool,
                };
                let alive = self.is_alive(NodeId::new(i as u32));
                NodeSnapshot::of(i as u32, alive, self.nodes.cap(i), pool)
            })
            .collect();
        let server_cache: Power = self
            .servers
            .iter()
            .filter(|s| self.is_alive(s.id))
            .map(|s| s.policy.cached())
            .sum();
        // Undelivered escrowed grants are held outside any cap or pool
        // (exactly like in-flight power) until acked or reclaimed.
        let escrowed: Power = self
            .nodes
            .manager
            .iter()
            .enumerate()
            .filter(|(i, _)| self.is_alive(NodeId::new(*i as u32)))
            .map(|(_, m)| match m {
                Manager::Penelope { engine, .. } => engine.escrowed_undelivered(),
                _ => Power::ZERO,
            })
            .sum();
        Snapshot {
            period,
            consistent_cut: true,
            in_flight: self.ledger.in_flight + server_cache + escrowed,
            lost: self.ledger.lost,
            nodes,
        }
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    /// Emit a substrate-level protocol event at the current virtual time.
    #[inline]
    fn emit(&self, node: NodeId, kind: impl FnOnce() -> EventKind) {
        self.stamp.emit(self.now, node, kind);
    }

    fn handle_tick(&mut self, id: NodeId) {
        if !self.is_alive(id) {
            return; // dead nodes stop iterating
        }
        let now = self.now;
        let idx = id.index();

        // Read power and advance the workload model.
        if now != self.nodes.next_tick_at[idx] {
            return; // superseded chain (a pre-crash tick racing a restart)
        }
        let reading = self.nodes.rapl[idx].read_power_with(now, &mut self.nodes.rng[idx]);
        if !self.nodes.finished_seen[idx] && self.nodes.rapl[idx].device().is_finished() {
            self.nodes.finished_seen[idx] = true;
            self.finished_count += 1;
        }

        // Run the manager. Penelope nodes are driven through the shared
        // `NodeEngine`: one `Tick` input, stepped by `step_engine`. A SLURM
        // client's message goes to its server once the node borrow ends.
        let mut outgoing = None;
        match &mut self.nodes.manager[idx] {
            Manager::Fair => {}
            Manager::Penelope { .. } => {
                // The engine emits `CapActuated` itself and its actuation
                // records the oscillation sample, so the telemetry below
                // is for the other two managers only.
                self.step_engine(id, EngineInput::Tick { reading }, true);
                let next = now + self.cfg.node.decider.period;
                self.nodes.next_tick_at[idx] = next;
                self.queue.push(next, Event::Tick(id));
                return;
            }
            Manager::Slurm { client } => {
                let action = client.tick(now, reading);
                // Reports are connection-oriented in real SLURM: sending to
                // a dead coordinator fails visibly, so a client with a
                // standby configured fails over immediately instead of
                // pouring freed power into the void.
                if matches!(action, ClientAction::Report { .. })
                    && self.servers.len() > 1
                    && !self.net.faults().is_alive(server_of(&self.servers, client))
                {
                    client.fail_over();
                }
                let server = server_of(&self.servers, client);
                outgoing = match action {
                    ClientAction::Report { excess } => {
                        Some((server, SlurmMsg::Report { from: id, excess }, excess))
                    }
                    ClientAction::Request { urgent, alpha, seq } => {
                        self.metrics.trip_opened(id, seq, now);
                        self.stamp.emit(now, id, || EventKind::RequestSent {
                            dst: server,
                            urgent,
                            alpha,
                            seq,
                        });
                        let msg = SlurmMsg::Request {
                            from: id,
                            urgent,
                            alpha,
                            seq,
                        };
                        Some((server, msg, Power::ZERO))
                    }
                    ClientAction::Idle => None,
                };
                self.nodes.rapl[idx].set_cap(client.cap(), now);
            }
        }

        // Per-tick telemetry. `CapActuated` is the one event every manager
        // kind emits each iteration; the `ClusterTrace` observer projects
        // it into the plottable (cap, reading, pool) series.
        let cap_now = self.nodes.cap(idx);
        let pool_now = self.nodes.pooled(idx);
        self.metrics.cap_actuated(id, cap_now);
        self.emit(id, || EventKind::CapActuated {
            cap: cap_now,
            reading,
            pool: pool_now,
        });

        // Route any message (node borrow released).
        if let Some((server, msg, carried)) = outgoing {
            self.route_slurm(id, server, msg, carried);
        }

        // Next iteration.
        let next = now + self.cfg.node.decider.period;
        self.nodes.next_tick_at[idx] = next;
        self.queue.push(next, Event::Tick(id));
    }

    fn handle_deliver_peer(&mut self, env: penelope_net::Envelope<PeerMsg>) {
        match env.msg {
            PeerMsg::Request(req) => {
                let dst = env.dst;
                let src = env.src;
                if !self.is_alive(dst) {
                    return; // died with the request in flight; no power moves
                }
                self.emit(dst, || EventKind::MsgRecv {
                    src,
                    carried: Power::ZERO,
                });
                let di = dst.index();
                let Manager::Penelope { queue, .. } = &mut self.nodes.manager[di] else {
                    return; // stray message; ignore
                };
                match queue.offer(self.now, &mut self.nodes.rng[di]) {
                    Some(done) => self.queue.push(done, Event::PoolProcess(env)),
                    None => {
                        // Pool overloaded, request dropped; requester
                        // times out.
                        self.emit(dst, || EventKind::RequestDenied {
                            requester: req.from,
                            seq: req.seq,
                        });
                    }
                }
            }
            PeerMsg::Grant(g, digest) => {
                let dst = env.dst;
                let src = env.src;
                self.ledger.land(g.amount);
                if !self.is_alive(dst) {
                    self.ledger.lose_direct(g.amount);
                    return;
                }
                self.emit(dst, || EventKind::MsgRecv {
                    src,
                    carried: g.amount,
                });
                let amount = g.amount;
                let msg = PeerMsg::Grant(g, digest);
                if !self.step_engine(dst, EngineInput::Msg { src, msg }, false) {
                    self.ledger.lose_direct(amount); // stray message
                }
            }
            PeerMsg::Ack(a, digest) => {
                let granter = env.dst;
                if !self.is_alive(granter) {
                    return; // escrow already drained when the granter died
                }
                self.emit(granter, || EventKind::MsgRecv {
                    src: env.src,
                    carried: Power::ZERO,
                });
                let msg = PeerMsg::Ack(a, digest);
                self.step_engine(granter, EngineInput::Msg { src: env.src, msg }, false);
            }
        }
    }

    fn handle_pool_process(&mut self, env: penelope_net::Envelope<PeerMsg>) {
        let pool_node = env.dst;
        if !self.is_alive(pool_node) {
            return; // pool crashed before servicing; nothing was debited
        }
        // The engine owns the whole serve path: retransmit idempotence via
        // its escrow, urgency bookkeeping, and the grant/zero-grant reply.
        let (src, msg) = (env.src, env.msg);
        self.step_engine(pool_node, EngineInput::Msg { src, msg }, false);
    }

    fn handle_deliver_slurm(&mut self, env: penelope_net::Envelope<SlurmMsg>) {
        let server_idx = self.servers.iter().position(|s| s.id == env.dst);
        if let Some(k) = server_idx {
            // Client → server: goes through the serial queue.
            let carried = match env.msg {
                SlurmMsg::Report { excess, .. } => excess,
                _ => Power::ZERO,
            };
            if !self.is_alive(env.dst) {
                if !carried.is_zero() {
                    self.ledger.lose_in_flight(carried);
                }
                return;
            }
            self.emit(env.dst, || EventKind::MsgRecv {
                src: env.src,
                carried,
            });
            let server = &mut self.servers[k];
            match server.queue.offer(self.now, &mut server.rng) {
                Some(done) => self.queue.push(done, Event::ServerProcess(env)),
                None => {
                    // Packet dropped at the overloaded server (§4.5.1).
                    if !carried.is_zero() {
                        self.ledger.lose_in_flight(carried);
                    }
                }
            }
        } else {
            // Server → client grant.
            let SlurmMsg::Grant(g) = env.msg else {
                return;
            };
            let dst = env.dst;
            self.ledger.land(g.amount);
            if !self.is_alive(dst) {
                self.ledger.lose_direct(g.amount);
                return;
            }
            self.emit(dst, || EventKind::MsgRecv {
                src: env.src,
                carried: g.amount,
            });
            let now = self.now;
            let di = dst.index();
            let Manager::Slurm { client } = &mut self.nodes.manager[di] else {
                self.ledger.lose_direct(g.amount);
                return;
            };
            let eff = client.on_grant(g.seq, g.amount, g.release_to_initial);
            let server_id = server_of(&self.servers, client);
            self.nodes.rapl[di].set_cap(client.cap(), now);
            self.metrics.trip_closed(dst, g.seq, now, g.amount);
            self.emit(dst, || EventKind::GrantApplied {
                seq: g.seq,
                granted: g.amount,
                applied: eff.applied,
            });
            let released = eff.released;
            if !released.is_zero() {
                self.route_slurm(
                    dst,
                    server_id,
                    SlurmMsg::Report {
                        from: dst,
                        excess: released,
                    },
                    released,
                );
            }
        }
    }

    fn handle_server_process(&mut self, env: penelope_net::Envelope<SlurmMsg>) {
        let Some(k) = self.servers.iter().position(|s| s.id == env.dst) else {
            return;
        };
        let alive = self.net.faults().is_alive(env.dst);
        match env.msg {
            SlurmMsg::Report { excess, .. } => {
                self.ledger.land(excess);
                if !alive {
                    self.ledger.lose_direct(excess);
                    return;
                }
                self.servers[k].policy.on_report(excess);
            }
            SlurmMsg::Request {
                from,
                urgent,
                alpha,
                seq,
            } => {
                if !alive {
                    return;
                }
                let server = &mut self.servers[k];
                let grant: ServerGrant = server.policy.on_request(urgent, alpha, seq);
                let server_id = server.id;
                self.emit(server_id, || EventKind::RequestServed {
                    requester: from,
                    seq,
                    granted: grant.amount,
                    urgent,
                });
                self.route_slurm(server_id, from, SlurmMsg::Grant(grant), grant.amount);
            }
            SlurmMsg::Grant(_) => {}
        }
    }

    /// A per-entry escrow timer fired: the engine reclaims the entry if it
    /// is still live and still known undelivered.
    fn handle_escrow_timeout(&mut self, granter: NodeId, requester: NodeId, seq: u64) {
        if !self.is_alive(granter) {
            return; // the escrow was drained (and booked lost) at death
        }
        self.step_engine(
            granter,
            EngineInput::EscrowDeadline { requester, seq },
            false,
        );
    }

    fn handle_fault(&mut self, action: FaultAction) {
        if action.apply(self.net.faults_mut()) {
            return;
        }
        match action {
            FaultAction::Kill(id) => self.kill_node(id),
            FaultAction::Restart(id) => self.restart_node(id),
            FaultAction::KillServer => {
                if let Some(id) = self.servers.first().map(|s| s.id) {
                    self.kill_node(id);
                }
            }
            _ => {}
        }
    }

    fn kill_node(&mut self, id: NodeId) {
        if !self.is_alive(id) {
            return;
        }
        self.net.faults_mut().kill(id);
        if let Some(server) = self.servers.iter_mut().find(|s| s.id == id) {
            // The coordinator dies: its cached excess leaves the system.
            let cached = server.policy.drain();
            self.ledger.lose_direct(cached);
            self.dead.push(id);
            self.emit(id, || EventKind::NodeKilled { lost: cached });
            return;
        }
        let i = id.index();
        let cap = self.nodes.cap(i);
        // The pool dies with the node and so do undelivered escrowed
        // grants, exactly like its cap.
        let (pooled, escrowed) = match &mut self.nodes.manager[i] {
            Manager::Penelope { engine, .. } => engine.retire(),
            _ => (Power::ZERO, Power::ZERO),
        };
        let lost = cap + pooled + escrowed;
        self.ledger.lose_direct(lost);
        if !self.nodes.finished_seen[i] {
            self.dead_unfinished += 1;
        }
        self.dead.push(id);
        self.emit(id, || EventKind::NodeKilled { lost });
    }

    /// Revive a crashed client node (the churn scenario). The reborn node
    /// gets fresh decider/pool state at its *initial* cap, funded entirely
    /// out of the ledger's lost balance — `min(initial cap, lost)`, so
    /// re-admission can never exceed what crashes retired and conservation
    /// holds at every cut. The sequence namespace persists across the
    /// crash: the new decider starts numbering *after* the old watermark,
    /// so escrow keys never collide and any pre-crash grant still in
    /// flight is recognizably stale. A no-op for nodes that are alive,
    /// never existed (including servers), or whose re-admittable power
    /// would fall below the safe range.
    fn restart_node(&mut self, id: NodeId) {
        if id.index() >= self.nodes.len() || self.is_alive(id) {
            return;
        }
        let i = id.index();
        let readmitted = self.nodes.initial_cap[i].min(self.ledger.lost);
        if !self.cfg.node.safe_range.contains(readmitted) {
            return; // the ledger cannot fund a safe cap; stay down
        }
        self.ledger.readmit(readmitted);
        self.net.faults_mut().revive(id);
        let now = self.now;
        match &mut self.nodes.manager[i] {
            // `reincarnate` advances the seq floor past the pre-crash
            // watermark and rebuilds decider/pool/escrow at the readmitted
            // cap; the serve queue is the driver's and is replaced here.
            Manager::Penelope { engine, queue } => {
                engine.reincarnate(readmitted);
                *queue = ServerQueue::new(self.cfg.service, POOL_QUEUE_CAPACITY);
            }
            Manager::Fair => {}
            Manager::Slurm { client } => {
                *client =
                    SlurmClient::new(self.cfg.node.decider, readmitted, self.cfg.node.safe_range);
            }
        }
        self.nodes.rapl[i].set_cap(readmitted, now);
        self.metrics.node_restarted(id);
        // Resume ticking immediately, with no jitter draw: the node's RNG
        // stream (and every other stream) stays exactly where the crash
        // left it, so fault scripts perturb nothing they don't touch.
        self.nodes.next_tick_at[i] = now;
        let finished = self.nodes.finished_seen[i];
        self.dead.retain(|&d| d != id);
        if !finished {
            self.dead_unfinished -= 1;
        }
        self.queue.push(now, Event::Tick(id));
        self.emit(id, || EventKind::NodeRestarted { readmitted });
    }

    /// The lifetime counters of one Penelope node's decider (`None` for
    /// Fair/SLURM nodes) — lets churn tests assert that stale pre-crash
    /// grants were actually observed and discarded.
    pub fn decider_stats(&self, id: NodeId) -> Option<penelope_core::decider::DeciderStats> {
        match self.nodes.manager.get(id.index())? {
            Manager::Penelope { engine, .. } => Some(engine.stats()),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Routing
    // ------------------------------------------------------------------

    /// Feed one input to node `id`'s engine; what it decides lands on the
    /// event queue, the lossy network, RAPL and the conservation ledger
    /// through [`SimFx`]. `false` (and nothing happens) for a Fair or
    /// SLURM node.
    ///
    /// `tick` marks the once-per-period path: only there does an actuation
    /// also record an oscillation sample (grant-path actuations adjust the
    /// cap silently).
    fn step_engine(&mut self, id: NodeId, input: EngineInput, tick: bool) -> bool {
        let i = id.index();
        let Manager::Penelope { engine, .. } = &mut self.nodes.manager[i] else {
            return false;
        };
        let mut fx = SimFx {
            id,
            now: self.now,
            tick,
            queue: &mut self.queue,
            net: &mut self.net,
            net_rng: &mut self.net_rng,
            ack_rng: &mut self.ack_rng,
            ledger: &mut self.ledger,
            metrics: &mut self.metrics,
            rapl: &mut self.nodes.rapl[i],
            stamp: &self.stamp,
        };
        let rng = &mut self.nodes.rng[i];
        engine.step(self.now, input, rng, &mut self.engine_out, &mut fx);
        true
    }

    fn route_slurm(&mut self, src: NodeId, dst: NodeId, msg: SlurmMsg, carried: Power) {
        if !carried.is_zero() {
            self.ledger.depart(carried);
        }
        self.emit(src, || EventKind::MsgSent { dst, carried });
        match self.net.route(src, dst, msg, self.now, &mut self.net_rng) {
            RouteOutcome::Deliver(env) => {
                self.queue.push(env.deliver_at, Event::DeliverSlurm(env));
            }
            _ => {
                self.emit(src, || EventKind::MsgDropped { dst, carried });
                if !carried.is_zero() {
                    self.ledger.lose_in_flight(carried);
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Accounting
    // ------------------------------------------------------------------

    fn is_alive(&self, id: NodeId) -> bool {
        self.net.faults().is_alive(id)
    }

    fn live_total(&self) -> Power {
        let mut nodes = Power::ZERO;
        let mut escrowed = Power::ZERO;
        for i in 0..self.nodes.len() {
            if !self.net.faults().is_alive(NodeId::new(i as u32)) {
                continue;
            }
            nodes += self.nodes.holdings(i);
            // Undelivered escrowed grants still belong to their (live)
            // granter: the pool debited them but the transport never
            // carried them.
            if let Manager::Penelope { engine, .. } = &self.nodes.manager[i] {
                escrowed += engine.escrowed_undelivered();
            }
        }
        let servers: Power = self
            .servers
            .iter()
            .filter(|s| self.net.faults().is_alive(s.id))
            .map(|s| s.policy.cached())
            .sum();
        nodes + servers + escrowed
    }

    fn check_conservation(&mut self) {
        if let Err(e) = self.ledger.check(self.live_total()) {
            self.conservation_ok = false;
            panic!("at {}: {e}", self.now);
        }
        // The hardware-level safety property (§2.1 constraint 1): even with
        // RAPL actuation lag, the caps the hardware is *currently enforcing*
        // never sum above the assigned budget. This holds because a donor's
        // cap drop is requested strictly before the recipient's raise and
        // both see the same actuation delay.
        let effective: Power = self
            .nodes
            .rapl
            .iter()
            .enumerate()
            .filter(|(i, _)| self.net.faults().is_alive(NodeId::new(*i as u32)))
            .map(|(_, r)| r.effective_cap(self.now))
            .sum();
        if effective > self.ledger.initial_total {
            self.conservation_ok = false;
            panic!(
                "at {}: effective caps {} exceed the assigned budget {}",
                self.now, effective, self.ledger.initial_total
            );
        }
    }

    fn into_report(self) -> RunReport {
        let finished = (0..self.nodes.len())
            .map(|i| self.nodes.rapl[i].device().finished_at())
            .collect();
        let final_caps = (0..self.nodes.len()).map(|i| self.nodes.cap(i)).collect();
        let Figures {
            turnaround,
            oscillation,
            redistribution,
        } = self.metrics.finish();
        RunReport {
            system: self.cfg.system,
            n_nodes: self.nodes.len(),
            finished,
            dead: self.dead,
            ended_at: self.now,
            turnaround,
            redistribution,
            net: self.net.stats(),
            server_queue: self.servers.first().map(|s| s.queue.stats()),
            lost: self.ledger.lost,
            final_caps,
            conservation_ok: self.conservation_ok,
            events: self.events_processed,
            oscillation,
            trace: self
                .trace
                .map(|t| Arc::try_unwrap(t).unwrap_or_else(|arc| (*arc).clone())),
        }
    }
}

/// The simulator's side of one engine step for node `id`: borrows of the
/// substrate state an effect can touch, disjoint from the engine and its
/// random stream.
struct SimFx<'a> {
    id: NodeId,
    now: SimTime,
    tick: bool,
    queue: &'a mut EventQueue,
    net: &'a mut SimNet,
    net_rng: &'a mut TestRng,
    ack_rng: &'a mut TestRng,
    ledger: &'a mut Ledger,
    metrics: &'a mut MetricsCollector,
    rapl: &'a mut SimulatedRapl<WorkloadState>,
    stamp: &'a Stamper,
}

impl Effects<TestRng> for SimFx<'_> {
    fn send(
        &mut self,
        _: &mut TestRng,
        dst: NodeId,
        msg: PeerMsg,
        carried: Power,
        escrowed: bool,
    ) -> bool {
        let (id, now) = (self.id, self.now);
        let ack = match &msg {
            PeerMsg::Ack(a, _) => Some(a.seq),
            PeerMsg::Request(req) => {
                self.metrics.trip_opened(id, req.seq, now);
                None
            }
            PeerMsg::Grant(..) => None,
        };
        // Fire-and-forget power departs at the send. An escrowed grant's
        // amount is already debited from the pool, and the ledger only
        // `depart`s it when the transport actually carries it — a grant
        // known-dropped at send keeps its accounting weight on the granter
        // (as an undelivered escrow entry) instead of being booked as
        // permanently lost, the §3.2 atomicity fix for lossy networks.
        let in_flight = !escrowed && !carried.is_zero();
        if in_flight {
            self.ledger.depart(carried);
        }
        self.stamp
            .emit(now, id, || EventKind::MsgSent { dst, carried });
        // Acks ride the dedicated `ack_rng` stream so loss-free runs draw
        // exactly the same `net_rng` sequence they did before the ack
        // protocol existed.
        let rng = match ack {
            Some(_) => &mut *self.ack_rng,
            None => &mut *self.net_rng,
        };
        match self.net.route(id, dst, msg, now, rng) {
            RouteOutcome::Deliver(env) => {
                if escrowed {
                    self.ledger.depart(carried);
                }
                self.queue.push(env.deliver_at, Event::DeliverPeer(env));
                true
            }
            _ => {
                // A dropped ack is not retried: the granter's
                // `AwaitingAck` entry simply expires without credit.
                self.stamp.emit(now, id, || match ack {
                    Some(seq) => EventKind::AckDropped { dst, seq },
                    None => EventKind::MsgDropped { dst, carried },
                });
                if in_flight {
                    self.ledger.lose_in_flight(carried);
                }
                false
            }
        }
    }

    fn actuate(&mut self, cap: Power) {
        self.rapl.set_cap(cap, self.now);
        if self.tick {
            self.metrics.cap_actuated(self.id, cap);
        }
    }

    fn escrow_timer(&mut self, requester: NodeId, seq: u64, at: SimTime) {
        let granter = self.id;
        self.queue.push(
            at,
            Event::EscrowTimeout {
                granter,
                requester,
                seq,
            },
        );
    }

    fn power_lost(&mut self, amount: Power) {
        self.ledger.lose_direct(amount);
    }

    fn resolved(&mut self, seq: u64, amount: Power) {
        self.metrics.trip_closed(self.id, seq, self.now, amount);
    }
}

/// The server a SLURM client currently addresses: its own choice, clamped
/// to the servers that exist (a client may fail over on a cluster without
/// a standby, and then keeps addressing the primary).
fn server_of(servers: &[ServerSide], client: &SlurmClient) -> NodeId {
    servers[client.active_server().min(servers.len() - 1)].id
}

/// Fluent construction of a [`ClusterSim`].
///
/// ```
/// use penelope_sim::{ClusterSim, SystemKind};
/// use penelope_units::{Power, SimTime};
/// use penelope_workload::{PerfModel, Phase, Profile};
///
/// let app = Profile::new(
///     "toy",
///     vec![Phase::new(Power::from_watts_u64(150), 20.0)],
///     PerfModel::new(Power::from_watts_u64(60), 1.0),
/// );
/// let report = ClusterSim::builder()
///     .system(SystemKind::Penelope)
///     .budget(Power::from_watts_u64(400))
///     .workloads(vec![app.clone(), app])
///     .check_invariants(true)
///     .build()
///     .run(SimTime::from_secs(30));
/// assert!(report.conservation_ok);
/// ```
#[derive(Clone, Debug)]
pub struct ClusterSimBuilder {
    cfg: ClusterConfig,
    workloads: Vec<Profile>,
}

impl Default for ClusterSimBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterSimBuilder {
    /// A builder starting from the paper defaults for Penelope with a
    /// zero budget (which [`build`](Self::build) rejects — set
    /// [`budget`](Self::budget)).
    pub fn new() -> Self {
        ClusterSimBuilder {
            cfg: ClusterConfig::paper_defaults(SystemKind::Penelope, Power::ZERO),
            workloads: Vec::new(),
        }
    }

    /// Replace the whole configuration (keeps any builder-set workloads).
    pub fn config(mut self, cfg: ClusterConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// The power manager under test.
    pub fn system(mut self, system: SystemKind) -> Self {
        self.cfg.system = system;
        self.cfg.management_overhead = match system {
            SystemKind::Fair => 0.0,
            _ => 0.013,
        };
        self
    }

    /// System-wide power budget, split evenly.
    pub fn budget(mut self, budget: Power) -> Self {
        self.cfg.budget = budget;
        self
    }

    /// One workload profile per node.
    pub fn workloads(mut self, workloads: Vec<Profile>) -> Self {
        self.workloads = workloads;
        self
    }

    /// Apply the unified engine configuration — node parameters,
    /// discovery strategy and sequence watermark in one `penelope_core`
    /// value, the one [`ClusterConfig::engine_config`] reads back. The
    /// conformance suite's multiplexed daemon leg takes the `ClusterConfig`
    /// itself, so a tuned protocol setup moves between substrates
    /// verbatim.
    pub fn engine_config(mut self, engine: EngineConfig) -> Self {
        self.cfg.node = engine.node;
        self.cfg.discovery = engine.discovery;
        self.cfg.seq_floor = engine.seq_floor;
        self
    }

    /// Attach a protocol-event observer.
    pub fn observer(mut self, obs: SharedObserver) -> Self {
        self.cfg.observer = obs;
        self
    }

    /// Master RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Check the conservation ledger after every event.
    pub fn check_invariants(mut self, on: bool) -> Self {
        self.cfg.check_invariants = on;
        self
    }

    /// Build the simulator. Panics if no workloads or no budget were
    /// supplied.
    pub fn build(self) -> ClusterSim {
        assert!(!self.workloads.is_empty(), "builder needs workloads");
        assert!(!self.cfg.budget.is_zero(), "builder needs a budget");
        ClusterSim::new(self.cfg, self.workloads)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_workload::{PerfModel, Phase};

    /// A warm, fault-free 64-node cell of `system`, half donors and half
    /// hungry, run for 30 periods after its first. Returns the lane-kind
    /// pushes that fell back to the heap in that window, and the requests
    /// the server accepted and the power peers granted in it.
    fn warm_window(system: SystemKind) -> (u64, u64, Power) {
        let w = Power::from_watts_u64;
        let n = 64;
        let workloads = (0..n)
            .map(|i| {
                let demand = if i % 2 == 0 { 100 } else { 250 };
                Profile::new(
                    format!("app{i}"),
                    vec![Phase::new(w(demand), 1e9)],
                    PerfModel::new(w(60), 1.0),
                )
            })
            .collect();
        let cfg = ClusterConfig::paper_defaults(system, w(160 * n));
        assert!(!cfg.backup_server, "one SLURM server");
        let period = cfg.node.decider.period;
        let mut sim = ClusterSim::new(cfg, workloads);
        let traffic = |sim: &ClusterSim| {
            let served = sim.servers.iter().map(|s| s.queue.stats().accepted);
            let granted = (0..sim.nodes.len())
                .filter_map(|i| sim.decider_stats(NodeId::new(i as u32)))
                .map(|s| s.granted);
            (
                sim.queue.fallbacks(),
                served.sum::<u64>(),
                granted.sum::<Power>(),
            )
        };
        sim.advance_to(SimTime::ZERO + period);
        let (fallbacks, served, granted) = traffic(&sim);
        sim.advance_to(SimTime::ZERO + period * 31);
        let (fallbacks_end, served_end, granted_end) = traffic(&sim);
        (
            fallbacks_end - fallbacks,
            served_end - served,
            granted_end - granted,
        )
    }

    /// Ticks re-arm at `now + period`, escrow deadlines at `now +
    /// escrow_timeout`, and one FIFO server completes in order: after the
    /// first period every such push rides its lane, none the heap.
    #[test]
    fn warm_ticks_and_timers_never_fall_back_to_the_heap() {
        let (fallbacks, _, granted) = warm_window(SystemKind::Penelope);
        assert_eq!(fallbacks, 0, "Penelope: lane-kind pushes on the heap");
        assert!(granted > Power::ZERO, "no grant, so no escrow timer pushed");
        let (fallbacks, served, _) = warm_window(SystemKind::Slurm);
        assert_eq!(fallbacks, 0, "SLURM: lane-kind pushes on the heap");
        assert!(served > 0, "no request served, so no completion pushed");
    }
}
