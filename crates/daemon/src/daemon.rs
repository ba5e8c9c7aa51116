//! The per-node daemon: the N = 1 configuration of the `Reactor`.
//!
//! One spawned thread owns the node's [`NodeEngine`] — the same automaton
//! the simulators run — its power hardware and its
//! socket. Each period it reads power, ticks the engine, and then receives
//! until the next period boundary, dispatching every frame the moment it
//! arrives: a peer's request is served and a grant applied (and acked) in
//! the same call, whether or not this node happens to be waiting for one.
//! Requests, replies and acks go to the address the reactor's
//! `NodeId → SocketAddr` table holds for the peer, which follows a peer
//! that rebinds its port.
//!
//! There is one clock: the wall-clock `origin` taken at start stamps trace
//! events, bounds the RAPL read windows and paces the periods.

use std::io;
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use penelope_core::decider::DeciderStats;
use penelope_core::{EngineConfig, NodeEngine};
use penelope_net::shim::DatagramSocket;
use penelope_power::{CappedDevice, ConstantDevice, LinuxRapl, SimulatedRapl};
use penelope_testkit::rng::{node_seed, TestRng};
use penelope_trace::{CounterObserver, CounterSnapshot, FanoutObserver, SharedObserver, Stamper};
use penelope_units::{NodeId, Power, SimTime};
use penelope_workload::WorkloadState;

use crate::config::{DaemonConfig, PowerBackend};
use crate::reactor::{Plant, Reactor, Tx};

/// One status sample, emitted every `status_every` iterations.
#[derive(Clone, Copy, Debug)]
pub struct DaemonStatus {
    /// Decider iteration count.
    pub iteration: u64,
    /// Wall-clock seconds since the daemon started.
    pub uptime_secs: f64,
    /// Current node-level cap.
    pub cap: Power,
    /// The last power reading.
    pub reading: Power,
    /// Power cached in the local pool.
    pub pool: Power,
}

impl DaemonStatus {
    /// Render as the daemon's stdout status line.
    pub fn render(&self) -> String {
        format!(
            "t={:8.2}s iter={:6} cap={} reading={} pool={}",
            self.uptime_secs, self.iteration, self.cap, self.reading, self.pool
        )
    }
}

/// Final accounting when a daemon stops.
#[derive(Clone, Copy, Debug)]
pub struct DaemonSummary {
    /// Decider iterations executed.
    pub iterations: u64,
    /// The cap at shutdown.
    pub final_cap: Power,
    /// Pool balance at shutdown.
    pub final_pool: Power,
    /// Decider counters.
    pub decider: DeciderStats,
    /// Power granted to peers by the local pool.
    pub granted_to_peers: Power,
    /// The next request sequence number the decider would have used —
    /// feed this to [`DaemonConfig::initial_seq`](crate::DaemonConfig)
    /// when restarting this node so the reborn daemon's sequence
    /// namespace never collides with grants still addressed to this
    /// incarnation.
    pub next_seq: u64,
    /// Protocol-event counters accumulated by the built-in
    /// [`CounterObserver`] — the same shape every substrate reports, so a
    /// local daemon and a remote one can be compared field for field.
    pub counters: CounterSnapshot,
    /// Datagrams received and refused: undecodable, addressed to another
    /// node, or from a sender outside the configured cluster.
    pub rejected: u64,
}

/// A running daemon: stop it to get the summary.
pub struct DaemonHandle {
    shutdown: Arc<AtomicBool>,
    thread: JoinHandle<(u64, Reactor)>,
    counters: Arc<CounterObserver>,
    escrow_len: Arc<AtomicUsize>,
    /// Status samples (`status_every` > 0) arrive here.
    pub status_rx: Receiver<DaemonStatus>,
    /// The address the daemon actually bound (useful with port 0).
    pub local_addr: std::net::SocketAddr,
}

impl DaemonHandle {
    /// A live snapshot of the daemon's protocol-event counters — readable
    /// while the daemon runs, in the same shape remote observers report.
    pub fn counters(&self) -> CounterSnapshot {
        self.counters.snapshot()
    }

    /// Outstanding granter-side escrow entries, live. A healthy quiescent
    /// daemon trends to zero as acks arrive or deadlines pass; tests use
    /// this to prove an ack from a *rebound* requester address still
    /// releases the node-keyed entry. Waits out a dispatch in progress, so
    /// whoever has seen a grant sees the escrow entry behind it.
    pub fn escrow_len(&self) -> usize {
        loop {
            let n = self.escrow_len.load(Ordering::SeqCst);
            if n != MID_DISPATCH {
                return n;
            }
            assert!(!self.thread.is_finished(), "daemon thread panicked");
            std::hint::spin_loop();
        }
    }

    /// Signal shutdown and collect the final summary.
    pub fn stop(self) -> DaemonSummary {
        self.shutdown.store(true, Ordering::Relaxed);
        let (iterations, reactor) = self.thread.join().expect("daemon thread panicked");
        let engine = &reactor.engines[0];
        let pool = engine.pool();
        DaemonSummary {
            iterations,
            final_cap: engine.cap(),
            final_pool: pool.available(),
            decider: engine.stats(),
            granted_to_peers: pool.total_granted(),
            next_seq: engine.next_seq(),
            counters: self.counters.snapshot(),
            rejected: reactor.counters.rejected,
        }
    }
}

fn build_plant(cfg: &DaemonConfig) -> io::Result<Plant> {
    let device: Box<dyn CappedDevice + Send> = match &cfg.power {
        PowerBackend::SimulatedConstant { demand } => Box::new(ConstantDevice::new(*demand)),
        PowerBackend::SimulatedProfile { profile } => Box::new(WorkloadState::new(profile.clone())),
        PowerBackend::LinuxRapl => {
            let rapl = LinuxRapl::discover(cfg.node.safe_range)
                .map_err(|e| io::Error::new(io::ErrorKind::NotFound, e.to_string()))?;
            return Ok(Plant::Linux(Box::new(rapl)));
        }
    };
    let rapl = SimulatedRapl::new(device, cfg.initial_cap, cfg.rapl.clone());
    Ok(Plant::Simulated(vec![rapl]))
}

/// Start a daemon, binding a fresh socket to `cfg.listen`.
pub fn run_daemon(cfg: DaemonConfig) -> io::Result<DaemonHandle> {
    let socket = UdpSocket::bind(cfg.listen)?;
    run_daemon_with_socket(cfg, socket)
}

/// Start a daemon on a pre-bound socket (tests bind port 0 first so peers
/// can learn each other's real ports before launch).
pub fn run_daemon_with_socket(cfg: DaemonConfig, socket: UdpSocket) -> io::Result<DaemonHandle> {
    let local_addr = socket.local_addr()?;
    socket.set_nonblocking(true)?;
    let status_every = cfg.status_every;
    let (reactor, counters, period) = build_reactor(cfg, Arc::new(socket))?;
    let shutdown = Arc::new(AtomicBool::new(false));
    let escrow_len = Arc::new(AtomicUsize::new(0));
    let (status_tx, status_rx) = channel();
    let (stop, escrow) = (Arc::clone(&shutdown), Arc::clone(&escrow_len));
    let thread =
        thread::spawn(move || run_loop(reactor, period, status_every, &stop, &escrow, &status_tx));
    Ok(DaemonHandle {
        shutdown,
        thread,
        counters,
        escrow_len,
        status_rx,
        local_addr,
    })
}

/// The N = 1 reactor for `cfg` over `socket`, its built-in counters, and
/// the node's period.
pub(crate) fn build_reactor(
    cfg: DaemonConfig,
    socket: Arc<dyn DatagramSocket>,
) -> io::Result<(Reactor, Arc<CounterObserver>, Duration)> {
    let local_addr = socket.local_addr()?;
    // Built-in counters always run; any configured observer fans in next
    // to them.
    let counters = Arc::new(CounterObserver::new());
    let obs = FanoutObserver::pair(
        cfg.observer.clone(),
        SharedObserver::from(Arc::clone(&counters)),
    );
    let me = NodeId::new(cfg.node_id);
    let cluster_size = cfg.peers.len() + 1;
    let engine = NodeEngine::new(
        me,
        cluster_size,
        EngineConfig::new(cfg.node)
            .with_discovery(cfg.discovery)
            .with_seq_floor(cfg.initial_seq),
        cfg.initial_cap,
        obs.clone(),
    );
    // Config peers fill the id-indexed address table in global order,
    // skipping our own slot (which holds `local_addr`, never dialled).
    let mut addrs = vec![local_addr; cluster_size];
    for (k, addr) in cfg.peers.iter().enumerate() {
        let j = if k >= me.index() { k + 1 } else { k };
        if j < cluster_size {
            addrs[j] = *addr;
        }
    }
    let mut plant = build_plant(&cfg)?;
    plant.set_cap(0, engine.cap(), SimTime::ZERO);
    // The node's own stream, fixed by its id: a restarted daemon draws
    // what its first incarnation drew, whatever port it binds.
    let rng = TestRng::seed_from_u64(node_seed(DAEMON_SEED, me.raw().into()));
    let tx = Tx::direct(Arc::clone(&socket));
    let mut reactor = Reactor::new(vec![engine], vec![rng], plant, tx, socket, addrs);
    let period = cfg.node.decider.period.as_nanos().max(1);
    reactor.trace = Stamper::new(obs, cfg.node.decider.period);
    reactor.follow_senders = true;
    Ok((reactor, counters, Duration::from_nanos(period)))
}

/// The root of every per-node daemon's random stream (node `i` draws from
/// `node_seed(DAEMON_SEED, i)`).
const DAEMON_SEED: u64 = 0xDAE0_0DAE;

/// What [`DaemonHandle::escrow_len`] reads while the loop is inside a tick
/// or a dispatch. The mark is stored before anything is sent, and the real
/// length after the engine has settled, both `SeqCst`: a reader that was
/// caused by a frame the dispatch sent cannot see the length from before.
const MID_DISPATCH: usize = usize::MAX;

/// Longest sleep between two looks at the socket, so a peer is answered
/// (and `stop` noticed) promptly however long the period.
const POLL: Duration = Duration::from_millis(10);

/// The daemon loop, on its own thread: tick, then receive until the next
/// period boundary, until `shutdown`. Returns the iteration count and the
/// reactor (for the final summary).
///
/// The socket is non-blocking and the waiting is done by `sleep`, in
/// slices of a sixteenth of the period: a socket read timeout lives on the
/// kernel's coarse timer wheel (at `HZ=250` a 4 ms timeout measured 6.5 ms
/// and a 10 ms one 14.5 ms), which a 20 ms period cannot absorb, while
/// `sleep` is precise. The boundary is checked between frames, so neither
/// a backlog nor a flood delays the tick; a frame that landed during the
/// last slice is dispatched right after it.
fn run_loop(
    mut reactor: Reactor,
    period: Duration,
    status_every: u64,
    shutdown: &AtomicBool,
    escrow_len: &AtomicUsize,
    status_tx: &Sender<DaemonStatus>,
) -> (u64, Reactor) {
    let sim_time = |d: Duration| SimTime::from_nanos(d.as_nanos().min(u64::MAX as u128) as u64);
    let origin = Instant::now();
    let slice = (period / 16).min(POLL);
    let mut iterations = 0u64;
    while !shutdown.load(Ordering::Relaxed) {
        iterations += 1;
        let tick_at = origin.elapsed();
        escrow_len.store(MID_DISPATCH, Ordering::SeqCst);
        let reading = reactor.tick(0, sim_time(tick_at));
        escrow_len.store(reactor.engines[0].escrow_len(), Ordering::SeqCst);
        let boundary = tick_at + period;
        while !shutdown.load(Ordering::Relaxed) && origin.elapsed() < boundary {
            escrow_len.store(MID_DISPATCH, Ordering::SeqCst);
            let idle = !reactor.pump(|| sim_time(origin.elapsed()));
            escrow_len.store(reactor.engines[0].escrow_len(), Ordering::SeqCst);
            if idle {
                thread::sleep(boundary.saturating_sub(origin.elapsed()).min(slice));
            }
        }
        if status_every > 0 && iterations.is_multiple_of(status_every) {
            let engine = &reactor.engines[0];
            let _ = status_tx.send(DaemonStatus {
                iteration: iterations,
                uptime_secs: origin.elapsed().as_secs_f64(),
                cap: engine.cap(),
                reading,
                pool: engine.pool().available(),
            });
        }
    }
    (iterations, reactor)
}
