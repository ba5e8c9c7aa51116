//! Thread orchestration for the three systems.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use penelope_core::{
    fair_assignment, DeciderConfig, DiscoveryStrategy, Effects, EngineConfig, EngineInput,
    EngineOutput, NodeEngine, NodeParams, PeerMsg,
};
use penelope_net::{Envelope, ThreadEndpoint, ThreadNet};
use penelope_power::RaplConfig;
use penelope_slurm::{ClientAction, PowerServer, SlurmClient, SlurmMsg};
use penelope_testkit::rng::TestRng;
use penelope_trace::{EventKind, SharedObserver, Stamper};
use penelope_units::{NodeId, Power, SimDuration, SimTime};
use penelope_workload::Profile;

use crate::hardware::{NodeHardware, WallClock};
use crate::report::ThreadedReport;

/// Configuration for a threaded cluster run.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// System-wide budget, split evenly as the initial assignment.
    pub budget: Power,
    /// The per-node protocol knobs (decider, pool, safe range), shared
    /// verbatim with the simulator and the UDP daemon. Keep the period in
    /// the milliseconds for tests — these are real sleeps.
    pub node: NodeParams,
    /// Simulated RAPL parameters.
    pub rapl: RaplConfig,
    /// Fractional daemon overhead on the workload (0 for Fair).
    pub management_overhead: f64,
    /// Peer-discovery strategy for the Penelope deciders.
    pub discovery: DiscoveryStrategy,
    /// Starting request-sequence watermark applied to every node's engine
    /// (`EngineConfig::with_seq_floor`). Zero for a fresh cluster.
    pub seq_floor: u64,
    /// RNG seed for peer selection.
    pub seed: u64,
    /// Protocol-event sink shared by every node thread; defaults to the
    /// free no-op observer.
    pub observer: SharedObserver,
}

impl RuntimeConfig {
    /// Milliseconds-scale defaults for fast in-process runs.
    pub fn fast(budget: Power) -> Self {
        RuntimeConfig {
            budget,
            node: NodeParams {
                decider: DeciderConfig {
                    period: SimDuration::from_millis(10),
                    response_timeout: SimDuration::from_millis(10),
                    ..Default::default()
                },
                ..NodeParams::default()
            },
            rapl: RaplConfig {
                actuation_delay: SimDuration::ZERO,
                ..Default::default()
            },
            management_overhead: 0.0,
            discovery: DiscoveryStrategy::default(),
            seq_floor: 0,
            seed: 1,
            observer: SharedObserver::noop(),
        }
    }

    fn period(&self) -> Duration {
        Duration::from_nanos(self.node.decider.period.as_nanos())
    }

    fn timeout(&self) -> Duration {
        Duration::from_nanos(self.node.decider.response_timeout.as_nanos())
    }
}

/// One node thread's side of an engine step: the thread-net endpoint, the
/// node's hardware and the event stamper.
struct ThreadFx<'a> {
    now: SimTime,
    ep: &'a ThreadEndpoint<PeerMsg>,
    /// Added to a destination's logical id to find its endpoint: `n` from
    /// a pool thread (deciders listen on `n..2n`), 0 from a decider thread
    /// (pools listen on `0..n`).
    endpoint_base: usize,
    hw: &'a NodeHardware,
    em: &'a Stamper,
    me: NodeId,
    /// The seq of the request this step sent, if it sent one.
    requested: Option<u64>,
}

impl Effects<TestRng> for ThreadFx<'_> {
    fn send(
        &mut self,
        _: &mut TestRng,
        dst: NodeId,
        msg: PeerMsg,
        carried: Power,
        _escrowed: bool,
    ) -> bool {
        if let PeerMsg::Request(req) = &msg {
            self.requested = Some(req.seq);
        }
        let endpoint = NodeId::new((self.endpoint_base + dst.index()) as u32);
        let delivered = self.ep.send(endpoint, msg);
        self.em
            .emit(self.now, self.me, || EventKind::MsgSent { dst, carried });
        delivered
    }

    fn actuate(&mut self, cap: Power) {
        self.hw.set_cap(cap);
    }

    /// Escrow is swept in bulk at every pool-thread wake.
    fn escrow_timer(&mut self, _requester: NodeId, _seq: u64, _at: SimTime) {}

    /// This substrate keeps no running ledger: [`ThreadedReport`] audits
    /// the end state against the budget.
    fn power_lost(&mut self, _amount: Power) {}

    /// Nor a turnaround fold.
    fn resolved(&mut self, _seq: u64, _amount: Power) {}
}

/// Entry points for running a whole cluster on real threads.
pub struct ThreadedCluster;

fn build_hardware(
    cfg: &RuntimeConfig,
    workloads: &[Profile],
    caps: &[Power],
    clock: &WallClock,
) -> Vec<Arc<NodeHardware>> {
    workloads
        .iter()
        .zip(caps)
        .map(|(p, &cap)| {
            NodeHardware::new(
                p.clone(),
                cap,
                cfg.rapl.clone(),
                cfg.management_overhead,
                clock.clone(),
            )
        })
        .collect()
}

fn await_completion(hw: &[Arc<NodeHardware>], deadline: Duration) {
    let start = Instant::now();
    loop {
        if hw.iter().all(|h| h.is_finished()) {
            return;
        }
        if start.elapsed() > deadline {
            return;
        }
        thread::sleep(Duration::from_millis(2));
    }
}

fn finish_times(hw: &[Arc<NodeHardware>]) -> Vec<Option<f64>> {
    hw.iter()
        .map(|h| h.finished_at().map(|t| t.as_secs_f64()))
        .collect()
}

impl ThreadedCluster {
    /// Run the *Fair* baseline: static caps, no threads beyond the
    /// workloads themselves.
    pub fn run_fair(
        cfg: RuntimeConfig,
        workloads: Vec<Profile>,
        deadline: Duration,
    ) -> ThreadedReport {
        let n = workloads.len();
        let caps = fair_assignment(cfg.budget, n, cfg.node.safe_range);
        let budget_assigned: Power = caps.iter().copied().sum();
        let clock = WallClock::start();
        let hw = build_hardware(&cfg, &workloads, &caps, &clock);
        await_completion(&hw, deadline);
        ThreadedReport {
            finished_secs: finish_times(&hw),
            net: penelope_net::NetStats::default(),
            final_caps: hw.iter().map(|h| h.cap()).collect(),
            final_pools: vec![Power::ZERO; n],
            drained_in_flight: Power::ZERO,
            server_cache: Power::ZERO,
            budget_assigned,
        }
    }

    /// Run Penelope: per node, a decider thread and a pool thread sharing
    /// the node's locked [`NodeEngine`] (§3.3: "a simple lock"). Pool
    /// endpoints are node ids `0..n`; decider endpoints are `n..2n` so
    /// grants and requests never share a queue.
    pub fn run_penelope(
        cfg: RuntimeConfig,
        workloads: Vec<Profile>,
        deadline: Duration,
    ) -> ThreadedReport {
        Self::run_penelope_with_fault(cfg, workloads, deadline, None)
    }

    /// Run Penelope with an optional client-node crash after a delay (the
    /// fault Penelope is exposed to in §4.4): the victim's pool and decider
    /// endpoints go dead, so it neither serves nor acquires power.
    pub fn run_penelope_with_fault(
        cfg: RuntimeConfig,
        workloads: Vec<Profile>,
        deadline: Duration,
        kill_node_after: Option<(Duration, usize)>,
    ) -> ThreadedReport {
        let n = workloads.len();
        let caps = fair_assignment(cfg.budget, n, cfg.node.safe_range);
        let budget_assigned: Power = caps.iter().copied().sum();
        let clock = WallClock::start();
        let hw = build_hardware(&cfg, &workloads, &caps, &clock);
        let (net, mut endpoints) = ThreadNet::<PeerMsg>::new(2 * n);
        let decider_eps = endpoints.split_off(n);
        let pool_eps = endpoints;
        // One engine per node, shared by its decider and pool threads
        // behind the §3.3 lock. The decider's safe range comes from the
        // hardware — every node's is built from `cfg.rapl` — so the
        // engines' one shared configuration takes it from there too.
        let node = NodeParams {
            safe_range: cfg.rapl.safe_range,
            ..cfg.node
        };
        let engine_cfg = Arc::new(
            EngineConfig::new(node)
                .with_discovery(cfg.discovery)
                .with_seq_floor(cfg.seq_floor),
        );
        let engines: Vec<Arc<Mutex<NodeEngine>>> = (0..n)
            .map(|i| {
                Arc::new(Mutex::new(NodeEngine::new(
                    NodeId::new(i as u32),
                    n,
                    Arc::clone(&engine_cfg),
                    caps[i],
                    cfg.observer.clone(),
                )))
            })
            .collect();
        let shutdown = Arc::new(AtomicBool::new(false));

        let mut pool_threads = Vec::with_capacity(n);
        for (i, ep) in pool_eps.into_iter().enumerate() {
            let engine = Arc::clone(&engines[i]);
            let stop = Arc::clone(&shutdown);
            let hw_i = Arc::clone(&hw[i]);
            let me = NodeId::new(i as u32);
            let em = Stamper::new(cfg.observer.clone(), cfg.node.decider.period);
            let clock = clock.clone();
            pool_threads.push(thread::spawn(move || -> ThreadEndpoint<PeerMsg> {
                // The engine owns the granter-side escrow: every non-zero
                // grant is held, keyed by requester id and seq echo, until
                // its ack; an undeliverable grant's power flows back into
                // the pool at the deadline instead of silently vanishing.
                // The rng is demanded by the `step` signature but never
                // drawn on the serve path.
                let mut rng = TestRng::seed_from_u64(0);
                let mut outputs: Vec<EngineOutput> = Vec::new();
                // Replies route to the requester's *decider* endpoint
                // (`n..2n`), so grants and requests never share a queue.
                let mut step = |now, input| {
                    let mut fx = ThreadFx {
                        now,
                        ep: &ep,
                        endpoint_base: n,
                        hw: &hw_i,
                        em: &em,
                        me,
                        requested: None,
                    };
                    let mut eng = engine.lock().unwrap();
                    eng.step(now, input, &mut rng, &mut outputs, &mut fx);
                };
                while !stop.load(Ordering::Relaxed) {
                    // Bulk escrow expiry each wake; the per-entry timers
                    // the engine requests are never armed on this
                    // substrate.
                    step(clock.now(), EngineInput::SweepEscrow);
                    if let Some(env) = ep.recv_timeout(Duration::from_millis(5)) {
                        let src = match &env.msg {
                            // `req.from` carries the logical node id.
                            PeerMsg::Request(req) => req.from,
                            // The transfer committed; drop the claim. Acks
                            // arrive from decider endpoints (`n..2n`);
                            // translate back to the logical id the escrow
                            // is keyed by.
                            PeerMsg::Ack(..) => {
                                NodeId::new(env.src.index().saturating_sub(n) as u32)
                            }
                            PeerMsg::Grant(..) => continue,
                        };
                        let msg = env.msg;
                        step(clock.now(), EngineInput::Msg { src, msg });
                    }
                }
                ep
            }));
        }

        let mut decider_threads = Vec::with_capacity(n);
        for (i, ep) in decider_eps.into_iter().enumerate() {
            let engine = Arc::clone(&engines[i]);
            let stop = Arc::clone(&shutdown);
            let hw_i = Arc::clone(&hw[i]);
            let clock = clock.clone();
            let cfg = cfg.clone();
            decider_threads.push(thread::spawn(move || -> ThreadEndpoint<PeerMsg> {
                let me = NodeId::new(i as u32);
                let em = Stamper::new(cfg.observer.clone(), cfg.node.decider.period);
                let mut rng = TestRng::seed_from_u64(cfg.seed.wrapping_add(i as u64));
                let mut outputs: Vec<EngineOutput> = Vec::new();
                // A pool endpoint shares its node's logical id, so requests
                // and acks route to `dst` as-is. Returns the seq of the
                // request the step sent, if any.
                let mut step = |now, input| {
                    let mut fx = ThreadFx {
                        now,
                        ep: &ep,
                        endpoint_base: 0,
                        hw: &hw_i,
                        em: &em,
                        me,
                        requested: None,
                    };
                    let mut eng = engine.lock().unwrap();
                    eng.step(now, input, &mut rng, &mut outputs, &mut fx);
                    fx.requested
                };
                // Messages that arrived during a grant wait but were not
                // the reply being waited for; replayed into the next wait
                // instead of being discarded.
                let mut deferred: VecDeque<Envelope<PeerMsg>> = VecDeque::new();
                while !stop.load(Ordering::Relaxed) {
                    let iter_start = Instant::now();
                    let now = clock.now();
                    let reading = hw_i.read_power();
                    // One engine tick: suspicion-aware uniform discovery
                    // (crashed or partitioned peers are skipped until the
                    // probe interval re-admits them; fault-free this draws
                    // exactly the historical uniform pick), Algorithm 1,
                    // and the CapActuated sample — all inside the engine.
                    if let Some(seq) = step(now, EngineInput::Tick { reading }) {
                        // Block for the pool's reply, as the paper's
                        // decider does — but without discarding whatever
                        // else arrives meanwhile. A late grant (an older
                        // request answered after its timeout) is applied
                        // idempotently and acked; anything else is
                        // deferred; only the grant echoing *this*
                        // request's seq ends the wait early.
                        let wait_deadline = Instant::now() + cfg.timeout();
                        let mut replay = std::mem::take(&mut deferred);
                        loop {
                            let env = match replay.pop_front() {
                                Some(env) => env,
                                None => {
                                    let remaining =
                                        wait_deadline.saturating_duration_since(Instant::now());
                                    if remaining.is_zero() {
                                        break;
                                    }
                                    match ep.recv_timeout(remaining) {
                                        Some(env) => env,
                                        None => break,
                                    }
                                }
                            };
                            match env.msg {
                                PeerMsg::Grant(g, digest) => {
                                    let now2 = clock.now();
                                    em.emit(now2, me, || EventKind::MsgRecv {
                                        src: env.src,
                                        carried: g.amount,
                                    });
                                    let g_seq = g.seq;
                                    // Grants arrive from pool endpoints
                                    // (`0..n`), so `env.src` is already
                                    // the granter's logical id. The engine
                                    // applies the grant, actuates, and
                                    // sends the commit ack that releases
                                    // the granter's escrow.
                                    let msg = PeerMsg::Grant(g, digest);
                                    step(now2, EngineInput::Msg { src: env.src, msg });
                                    if g_seq == seq {
                                        break;
                                    }
                                }
                                _ => deferred.push_back(env),
                            }
                        }
                    }
                    thread::sleep(cfg.period().saturating_sub(iter_start.elapsed()));
                }
                ep
            }));
        }

        if let Some((after, victim)) = kill_node_after {
            let net = net.clone();
            let stop = Arc::clone(&shutdown);
            thread::spawn(move || {
                thread::sleep(after);
                if !stop.load(Ordering::Relaxed) {
                    net.with_faults(|f| {
                        f.kill(NodeId::new(victim as u32)); // pool endpoint
                        f.kill(NodeId::new((n + victim) as u32)); // decider endpoint
                    });
                }
            });
        }

        // With a killed node, completion means "every other node finished".
        let wait_on: Vec<Arc<NodeHardware>> = hw
            .iter()
            .enumerate()
            .filter(|(i, _)| kill_node_after.map(|(_, v)| v != *i).unwrap_or(true))
            .map(|(_, h)| Arc::clone(h))
            .collect();
        await_completion(&wait_on, deadline);
        shutdown.store(true, Ordering::Relaxed);
        let pool_endpoints: Vec<_> = pool_threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();
        let decider_endpoints: Vec<_> = decider_threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();

        // Any grant still sitting in a queue is in-flight power.
        let mut drained = Power::ZERO;
        for ep in decider_endpoints.iter().chain(pool_endpoints.iter()) {
            while let Some(env) = ep.try_recv() {
                if let PeerMsg::Grant(g, _) = env.msg {
                    drained += g.amount;
                }
            }
        }

        ThreadedReport {
            finished_secs: finish_times(&hw),
            net: net.stats(),
            final_caps: hw.iter().map(|h| h.cap()).collect(),
            final_pools: engines
                .iter()
                .map(|e| e.lock().unwrap().pool().available())
                .collect(),
            drained_in_flight: drained,
            server_cache: Power::ZERO,
            budget_assigned,
        }
    }

    /// Run the SLURM baseline: client threads `0..n`, the central server on
    /// endpoint `n`. Optionally kill the server after a delay (the §4.4
    /// fault scenario).
    pub fn run_slurm(
        cfg: RuntimeConfig,
        workloads: Vec<Profile>,
        deadline: Duration,
        kill_server_after: Option<Duration>,
    ) -> ThreadedReport {
        let n = workloads.len();
        let caps = fair_assignment(cfg.budget, n, cfg.node.safe_range);
        let budget_assigned: Power = caps.iter().copied().sum();
        let clock = WallClock::start();
        let hw = build_hardware(&cfg, &workloads, &caps, &clock);
        let (net, mut endpoints) = ThreadNet::<SlurmMsg>::new(n + 1);
        let server_ep = endpoints.pop().expect("server endpoint");
        let server_addr = NodeId::new(n as u32);
        let shutdown = Arc::new(AtomicBool::new(false));

        let server_limiter = cfg.node.pool;
        let stop = Arc::clone(&shutdown);
        let server_thread = thread::spawn(move || -> (PowerServer, ThreadEndpoint<SlurmMsg>) {
            let mut policy = PowerServer::new(server_limiter);
            while !stop.load(Ordering::Relaxed) {
                if let Some(env) = server_ep.recv_timeout(Duration::from_millis(5)) {
                    match env.msg {
                        SlurmMsg::Report { excess, .. } => policy.on_report(excess),
                        SlurmMsg::Request {
                            from,
                            urgent,
                            alpha,
                            seq,
                        } => {
                            let grant = policy.on_request(urgent, alpha, seq);
                            let _ = server_ep.send(from, SlurmMsg::Grant(grant));
                        }
                        SlurmMsg::Grant(_) => {}
                    }
                }
            }
            (policy, server_ep)
        });

        let mut client_threads = Vec::with_capacity(n);
        for (i, ep) in endpoints.into_iter().enumerate() {
            let stop = Arc::clone(&shutdown);
            let hw_i = Arc::clone(&hw[i]);
            let clock = clock.clone();
            let cfg = cfg.clone();
            let initial = caps[i];
            client_threads.push(thread::spawn(move || -> ThreadEndpoint<SlurmMsg> {
                let mut client = SlurmClient::new(cfg.node.decider, initial, hw_i.safe_range());
                let my_addr = NodeId::new(i as u32);
                let em = Stamper::new(cfg.observer.clone(), cfg.node.decider.period);
                while !stop.load(Ordering::Relaxed) {
                    let iter_start = Instant::now();
                    let now = clock.now();
                    let reading = hw_i.read_power();
                    match client.tick(now, reading) {
                        ClientAction::Report { excess } => {
                            let _ = ep.send(
                                server_addr,
                                SlurmMsg::Report {
                                    from: my_addr,
                                    excess,
                                },
                            );
                            hw_i.set_cap(client.cap());
                        }
                        ClientAction::Request { urgent, alpha, seq } => {
                            let _ = ep.send(
                                server_addr,
                                SlurmMsg::Request {
                                    from: my_addr,
                                    urgent,
                                    alpha,
                                    seq,
                                },
                            );
                            if let Some(env) = ep.recv_timeout(cfg.timeout()) {
                                if let SlurmMsg::Grant(g) = env.msg {
                                    let eff =
                                        client.on_grant(g.seq, g.amount, g.release_to_initial);
                                    hw_i.set_cap(client.cap());
                                    if !eff.released.is_zero() {
                                        let _ = ep.send(
                                            server_addr,
                                            SlurmMsg::Report {
                                                from: my_addr,
                                                excess: eff.released,
                                            },
                                        );
                                    }
                                }
                            }
                        }
                        ClientAction::Idle => {}
                    }
                    hw_i.set_cap(client.cap());
                    {
                        let cap_now = client.cap();
                        em.emit(now, my_addr, || EventKind::CapActuated {
                            cap: cap_now,
                            reading,
                            pool: Power::ZERO,
                        });
                    }
                    thread::sleep(cfg.period().saturating_sub(iter_start.elapsed()));
                }
                ep
            }));
        }

        if let Some(after) = kill_server_after {
            let net = net.clone();
            let stop = Arc::clone(&shutdown);
            thread::spawn(move || {
                thread::sleep(after);
                if !stop.load(Ordering::Relaxed) {
                    net.with_faults(|f| f.kill(server_addr));
                }
            });
        }

        await_completion(&hw, deadline);
        shutdown.store(true, Ordering::Relaxed);
        let (policy, server_ep) = server_thread.join().unwrap();
        let client_eps: Vec<_> = client_threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect();

        let mut drained = Power::ZERO;
        for env in std::iter::from_fn(|| server_ep.try_recv()) {
            if let SlurmMsg::Report { excess, .. } = env.msg {
                drained += excess;
            }
        }
        for ep in &client_eps {
            while let Some(env) = ep.try_recv() {
                if let SlurmMsg::Grant(g) = env.msg {
                    drained += g.amount;
                }
            }
        }

        ThreadedReport {
            finished_secs: finish_times(&hw),
            net: net.stats(),
            final_caps: hw.iter().map(|h| h.cap()).collect(),
            final_pools: vec![Power::ZERO; n],
            drained_in_flight: drained,
            server_cache: policy.cached(),
            budget_assigned,
        }
    }
}

/// Fluent construction of a threaded cluster run — the same shape as
/// `ClusterSim::builder()` on the simulator, so a scenario moves between
/// substrates by swapping the final `run_*` call.
#[derive(Clone, Debug)]
pub struct ThreadedClusterBuilder {
    cfg: RuntimeConfig,
    workloads: Vec<Profile>,
    deadline: Duration,
}

impl Default for ThreadedClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ThreadedCluster {
    /// Start building a threaded run fluently. See
    /// [`ThreadedClusterBuilder`].
    pub fn builder() -> ThreadedClusterBuilder {
        ThreadedClusterBuilder::new()
    }
}

impl ThreadedClusterBuilder {
    /// A builder starting from [`RuntimeConfig::fast`] with a zero budget
    /// (set [`budget`](Self::budget) before running) and a 10 s deadline.
    pub fn new() -> Self {
        ThreadedClusterBuilder {
            cfg: RuntimeConfig::fast(Power::ZERO),
            workloads: Vec::new(),
            deadline: Duration::from_secs(10),
        }
    }

    /// Replace the whole configuration (keeps builder-set workloads).
    pub fn config(mut self, cfg: RuntimeConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// System-wide budget, split evenly across nodes.
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
    /// value. The same [`EngineConfig`] drives `ClusterSim::builder` and
    /// `DaemonConfig::builder`, so a tuned protocol setup moves between
    /// substrates verbatim.
    pub fn engine_config(mut self, engine: EngineConfig) -> Self {
        self.cfg.node = engine.node;
        self.cfg.discovery = engine.discovery;
        self.cfg.seq_floor = engine.seq_floor;
        self
    }

    /// Attach a protocol-event observer (it must be `Send + Sync`; every
    /// node thread emits into it).
    pub fn observer(mut self, obs: SharedObserver) -> Self {
        self.cfg.observer = obs;
        self
    }

    /// Simulated RAPL parameters.
    pub fn rapl(mut self, rapl: RaplConfig) -> Self {
        self.cfg.rapl = rapl;
        self
    }

    /// Fractional daemon overhead on the workload.
    pub fn management_overhead(mut self, overhead: f64) -> Self {
        self.cfg.management_overhead = overhead;
        self
    }

    /// RNG seed for peer selection.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Wall-clock deadline for the run.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    fn checked(self) -> (RuntimeConfig, Vec<Profile>, Duration) {
        assert!(!self.workloads.is_empty(), "builder needs workloads");
        assert!(!self.cfg.budget.is_zero(), "builder needs a budget");
        (self.cfg, self.workloads, self.deadline)
    }

    /// Run the *Fair* baseline.
    pub fn run_fair(self) -> ThreadedReport {
        let (cfg, workloads, deadline) = self.checked();
        ThreadedCluster::run_fair(cfg, workloads, deadline)
    }

    /// Run Penelope.
    pub fn run_penelope(self) -> ThreadedReport {
        let (cfg, workloads, deadline) = self.checked();
        ThreadedCluster::run_penelope(cfg, workloads, deadline)
    }

    /// Run Penelope, killing `victim` after `after`.
    pub fn run_penelope_with_fault(self, after: Duration, victim: usize) -> ThreadedReport {
        let (cfg, workloads, deadline) = self.checked();
        ThreadedCluster::run_penelope_with_fault(cfg, workloads, deadline, Some((after, victim)))
    }

    /// Run the SLURM baseline, optionally killing the server after a delay.
    pub fn run_slurm(self, kill_server_after: Option<Duration>) -> ThreadedReport {
        let (cfg, workloads, deadline) = self.checked();
        ThreadedCluster::run_slurm(cfg, workloads, deadline, kill_server_after)
    }
}
