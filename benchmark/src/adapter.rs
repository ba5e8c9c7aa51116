//! Every use of a repository API, in one file.
//!
//! The rest of the benchmark sees plain numbers and opaque handles. A
//! change that renames or merges a driver repairs the benchmark here and
//! nowhere else, and its diff shows that the same thing is still measured.
//! The first half drives the three substrates the workloads run on; the
//! second half ([`micro_layers`]) calls single layers in a loop for the
//! per-layer ledger.

use std::hint::black_box;
use std::io;
use std::net::UdpSocket;
use std::sync::Arc;
use std::time::{Duration, Instant};

use penelope_bench::json::Json;

use crate::host;
use penelope_core::{
    choose_peer, DiscoveryStrategy, EngineConfig, EngineInput, EngineOutput, EscrowState,
    GrantEscrow, NodeEngine, NodeParams, PeerMsg, PoolConfig, PowerGrant, PowerPool, PowerRequest,
    SuspicionDigest, SuspicionEntry,
};
use penelope_daemon::wire::WireMsg;
use penelope_daemon::{run_multiplexed, MuxConfig};
use penelope_experiments::parallel::par_map_adaptive;
use penelope_experiments::scale::PAPER_FREQUENCIES;
use penelope_experiments::scenarios::{pair_subset, ScaleScenario};
use penelope_net::shim::{DatagramSocket, FaultConfig, FaultySocket};
use penelope_net::{LatencyModel, SimNet};
use penelope_power::{PowerInterface, RaplConfig, SimulatedRapl};
use penelope_sim::event::{Event, EventQueue};
use penelope_sim::{ClusterSim, RunReport, ShardedConfig, ShardedSim, SystemKind};
use penelope_slurm::{PowerServer, ServerQueue, ServiceModel};
use penelope_testkit::rng::{Rng, TestRng};
use penelope_trace::{
    CounterObserver, EventKind, JsonlObserver, RingBufferObserver, SharedObserver, TraceEvent,
};
use penelope_units::{NodeId, Power, SimTime};
use penelope_workload::{PerfModel, Phase, Profile, WorkloadState};

// ---------------------------------------------------------------------
// JSON (the repository already owns a parser and renderer)
// ---------------------------------------------------------------------

/// The repository's JSON value, re-exported so the results file is read
/// and written by the code `BENCH.json` already goes through.
pub type JsonValue = Json;

/// Parse a JSON document.
pub fn json_parse(text: &str) -> Result<JsonValue, String> {
    Json::parse(text)
}

// ---------------------------------------------------------------------
// ShardedSim
// ---------------------------------------------------------------------

/// One sharded-simulator cell: `ShardedConfig::mega` with the layout
/// fields the workloads vary.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCell {
    /// Simulated nodes.
    pub nodes: usize,
    /// Protocol periods.
    pub periods: u64,
    /// Every `recipient_every`-th node is power-hungry.
    pub recipient_every: usize,
    /// Partitions.
    pub shards: usize,
    /// Worker threads.
    pub jobs: usize,
    /// Master seed.
    pub seed: u64,
}

impl ShardCell {
    /// Simulated node-periods of the cell.
    pub fn node_periods(&self) -> f64 {
        self.nodes as f64 * self.periods as f64
    }
}

/// A constructed, not yet run, sharded simulator.
pub struct ShardBuilt {
    sim: ShardedSim,
    budget_mw: u64,
}

/// What a sharded run reports, as plain numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardCounts {
    /// Engine inputs executed.
    pub executed: u64,
    /// Ticks elided as proven no-ops.
    pub elided: u64,
    /// Protocol messages routed.
    pub messages: u64,
    /// Power booked as lost, milliwatts.
    pub lost_mw: u64,
    /// Cluster budget, milliwatts.
    pub budget_mw: u64,
    /// The run's own conservation audit.
    pub conservation_ok: bool,
    /// Fold of per-node inputs and final state.
    pub fingerprint: u64,
}

/// `ShardedSim::new` — the shard workloads' set-up.
pub fn shard_new(cell: &ShardCell) -> ShardBuilt {
    let mut cfg = ShardedConfig::mega(cell.nodes, cell.periods, cell.seed);
    cfg.recipient_every = cell.recipient_every;
    cfg.shards = cell.shards;
    cfg.jobs = cell.jobs;
    ShardBuilt {
        budget_mw: cfg.initial_cap.milliwatts() * cell.nodes as u64,
        sim: ShardedSim::new(cfg),
    }
}

/// `ShardedSim::run`.
pub fn shard_run(built: ShardBuilt) -> ShardCounts {
    let r = built.sim.run();
    ShardCounts {
        executed: r.executed_events,
        elided: r.elided_ticks,
        messages: r.messages,
        lost_mw: r.lost.milliwatts(),
        budget_mw: built.budget_mw,
        conservation_ok: r.conservation_ok,
        fingerprint: r.fingerprint,
    }
}

// ---------------------------------------------------------------------
// ClusterSim
// ---------------------------------------------------------------------

/// Which manager a DES cell runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DesSystem {
    /// `SystemKind::Penelope`: the peer-to-peer engine.
    P2p,
    /// `SystemKind::Slurm`: the centralized server.
    Central,
}

impl DesSystem {
    fn kind(self) -> SystemKind {
        match self {
            DesSystem::P2p => SystemKind::Penelope,
            DesSystem::Central => SystemKind::Slurm,
        }
    }
}

/// The paper's largest simulated cluster (§4.5).
pub const DES_NODES: usize = 1056;

/// One scale-study cell: an application pair at a decider frequency.
#[derive(Clone, Debug)]
pub struct DesCell {
    scenario: ScaleScenario,
    /// Decider frequency, Hz.
    pub frequency_hz: f64,
    /// Index into the pair subset.
    pub pair: usize,
}

impl DesCell {
    /// Client nodes of the cell.
    pub fn nodes(&self) -> usize {
        self.scenario.nodes
    }
}

/// The scale-study grid at the paper's maximum scale: every
/// `PAPER_FREQUENCIES` point × `pair_subset(pairs)`, frequency-major.
/// Cell seeds derive from `seed` and the cell's grid position only.
pub fn des_cells(seed: u64, pairs: usize) -> Vec<DesCell> {
    let subset = pair_subset(pairs);
    let mut cells = Vec::with_capacity(PAPER_FREQUENCIES.len() * subset.len());
    for (fi, &f) in PAPER_FREQUENCIES.iter().enumerate() {
        for (pi, (a, b)) in subset.iter().enumerate() {
            let cell_seed = penelope_sim::node_seed(seed, (fi * subset.len() + pi) as u64);
            cells.push(DesCell {
                scenario: ScaleScenario::for_pair(a, b, DES_NODES, f, cell_seed),
                frequency_hz: f,
                pair: pi,
            });
        }
    }
    cells
}

/// Extras a DES cell can be built with.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DesOptions {
    /// Audit the conservation ledger after every event (slow; the
    /// untimed correctness cell).
    pub check_invariants: bool,
    /// Attach a `CounterObserver` through `ClusterSimBuilder::observer`.
    pub counter_observer: bool,
}

/// A constructed scale-study cell.
pub struct DesBuilt {
    sim: ClusterSim,
    horizon: SimTime,
    donor_finish: SimTime,
    nodes: usize,
    frequency_hz: f64,
    counter: Option<Arc<CounterObserver>>,
}

/// What one DES cell reports, as plain numbers.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DesCounts {
    /// Discrete events processed.
    pub events: u64,
    /// Simulated node-periods: `n · sim_secs · f`.
    pub node_periods: f64,
    /// Simulated seconds until the run ended.
    pub sim_secs: f64,
    /// Requests that received a response.
    pub answered: u64,
    /// Requests that never did.
    pub unanswered: u64,
    /// Messages offered to the simulated network.
    pub messages: u64,
    /// Mean request→response turnaround, simulated µs (Figs. 7–8).
    pub turnaround_us: f64,
    /// Time to shift all the excess, simulated s; an incomplete run counts
    /// as the experiment runtime (Fig. 5).
    pub redist_s: f64,
    /// Share of packets the centralized server's queue dropped.
    pub server_drop_fraction: Option<f64>,
    /// The simulator's own conservation verdict.
    pub conservation_ok: bool,
    /// Events a counter observer saw, when one was attached.
    pub observed_events: Option<u64>,
}

/// Build one cell the way `penelope_experiments::scale::run_point` does:
/// config and workloads from the scenario, redistribution tracked from the
/// donors' finish, stop once it completes.
pub fn des_new(system: DesSystem, cell: &DesCell, opts: DesOptions) -> DesBuilt {
    let sc = &cell.scenario;
    let mut cfg = sc.config(system.kind());
    cfg.check_invariants = opts.check_invariants;
    let horizon = sc.horizon();
    let workloads = sc.workloads(cfg.node.decider.epsilon, horizon);
    let counter = opts
        .counter_observer
        .then(|| Arc::new(CounterObserver::new()));
    let mut builder = ClusterSim::builder().config(cfg).workloads(workloads);
    if let Some(c) = &counter {
        builder = builder.observer(SharedObserver::from(c.clone()));
    }
    let mut sim = builder.build();
    sim.track_redistribution(sc.total_excess(), sc.recipients(), sc.donor_finish);
    sim.stop_when_redistributed();
    DesBuilt {
        sim,
        horizon,
        donor_finish: sc.donor_finish,
        nodes: sc.nodes,
        frequency_hz: sc.frequency_hz,
        counter,
    }
}

impl DesBuilt {
    /// First slice: up to the instant the donors' application completes.
    pub fn advance_to_donor_finish(&mut self) {
        self.sim.advance_to(self.donor_finish);
    }

    /// Second slice: the redistribution phase, to the horizon or until
    /// all the excess has moved.
    pub fn advance_to_horizon(&mut self) {
        self.sim.advance_to(self.horizon);
    }

    /// End a sliced run and report.
    pub fn finish(self) -> DesCounts {
        self.report(ClusterSim::finish)
    }

    /// The whole cell in one `ClusterSim::run` call.
    pub fn run(self) -> DesCounts {
        let horizon = self.horizon;
        self.report(|sim| sim.run(horizon))
    }

    fn report(self, end: impl FnOnce(ClusterSim) -> RunReport) -> DesCounts {
        let DesBuilt {
            sim,
            donor_finish,
            nodes,
            frequency_hz,
            counter,
            ..
        } = self;
        des_counts(end(sim), donor_finish, nodes, frequency_hz, counter)
    }
}

fn des_counts(
    r: RunReport,
    donor_finish: SimTime,
    nodes: usize,
    frequency_hz: f64,
    counter: Option<Arc<CounterObserver>>,
) -> DesCounts {
    let tracker = r.redistribution.as_ref().expect("tracking installed");
    let experiment_s = r.ended_at.saturating_since(donor_finish).as_secs_f64();
    let sim_secs = r.ended_at.as_secs_f64();
    DesCounts {
        events: r.events,
        node_periods: nodes as f64 * sim_secs * frequency_hz,
        sim_secs,
        answered: r.turnaround.count() as u64,
        unanswered: r.turnaround.unanswered(),
        messages: r.net.offered(),
        turnaround_us: r.turnaround.mean().map_or(0.0, |d| d.as_micros_f64()),
        redist_s: tracker
            .total_time()
            .map_or(experiment_s, |d| d.as_secs_f64()),
        server_drop_fraction: r.server_queue.map(|q| q.drop_fraction()),
        conservation_ok: r.conservation_ok,
        observed_events: counter.map(|c| c.snapshot().total_events()),
    }
}

/// Wall seconds to run `cells` serially and through
/// `par_map_adaptive(2, …)`, fresh instances each time.
pub fn des_sweep_serial_vs_par(system: DesSystem, cells: &[DesCell]) -> (f64, f64) {
    let run = |c: &DesCell| des_new(system, c, DesOptions::default()).run().events;
    let t = Instant::now();
    let serial: Vec<u64> = cells.iter().map(run).collect();
    let serial_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let par = par_map_adaptive(2, cells, run);
    let par_s = t.elapsed().as_secs_f64();
    assert_eq!(serial, par, "parallel sweep changed a cell's event count");
    (serial_s, par_s)
}

// ---------------------------------------------------------------------
// The multiplexed daemon
// ---------------------------------------------------------------------

/// Frames the reactor lets be in flight before it drains (its
/// `DRAIN_HIGH`): the closed-loop window of the mux workloads.
pub const MUX_WINDOW: usize = 192;
/// Backlog a window-triggered drain pulls down to (its `DRAIN_LOW`).
pub const MUX_DRAIN_TO: usize = 64;

/// One multiplexed-daemon cell: `MuxConfig::soak`, optionally behind a
/// lossy `FaultySocket`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MuxCell {
    /// Engines hosted.
    pub nodes: usize,
    /// Decision rounds.
    pub rounds: u64,
    /// Master seed (the fault plane derives its own from it).
    pub seed: u64,
    /// Injected drop rate in permille; `None` is the lossless passthrough.
    pub loss_permille: Option<u16>,
}

impl MuxCell {
    /// Node-periods of the cell.
    pub fn node_periods(&self) -> f64 {
        self.nodes as f64 * self.rounds as f64
    }
}

/// What a multiplexed run reports, as plain numbers.
#[derive(Clone, Debug, PartialEq)]
pub struct MuxCounts {
    /// Wall seconds of the round loop (`MuxSummary::wall_s`).
    pub wall_s: f64,
    /// Frames the kernel accepted.
    pub frames_sent: u64,
    /// Frames received and dispatched.
    pub frames_delivered: u64,
    /// Frames the fault shim dropped (input, not failure).
    pub injected_drops: u64,
    /// Frames the kernel accepted and never delivered.
    pub wire_lost: u64,
    /// OS-level send errors.
    pub send_failed: u64,
    /// Engine inputs processed.
    pub events: u64,
    /// Power still accounted for at the end, milliwatts.
    pub accounted_mw: u64,
    /// Cluster budget, milliwatts.
    pub budget_mw: u64,
    /// Grant round trips, wall-clock nanoseconds, unsorted.
    pub rtt_ns: Vec<u64>,
}

/// `run_multiplexed` on the soak preset. On a lossy cell every timeout
/// plants a suspicion (`suspect_after = 1`): with the default of three the
/// round at which suspicion first appears — and with it the cost of every
/// later peer pick — depends on the seed, and the same input count takes
/// 1.4 s or 4.5 s. Pinning the onset to the first lost frame makes the
/// fault path (shim, timeouts, escrow sweeps, suspicion, gossip) run from
/// round one on every seed.
pub fn mux_run(cell: &MuxCell) -> io::Result<MuxCounts> {
    let mut cfg = MuxConfig::soak(cell.nodes, cell.seed, cell.rounds);
    if let Some(permille) = cell.loss_permille {
        cfg.fault = Some(FaultConfig::lossy(cell.seed ^ 0xFA17_FA17, permille));
        cfg.node.decider.suspect_after = 1;
    }
    let s = run_multiplexed(&cfg)?;
    Ok(MuxCounts {
        wall_s: s.wall_s,
        frames_sent: s.frames_sent,
        frames_delivered: s.frames_delivered,
        injected_drops: s.injected_drops,
        wire_lost: s.wire_lost,
        send_failed: s.send_failed,
        events: s.events,
        accounted_mw: s.accounted_total().milliwatts(),
        budget_mw: s.budget.milliwatts(),
        rtt_ns: s.rtt_samples_ns,
    })
}

// ---------------------------------------------------------------------
// Single layers, for the per-layer ledger
// ---------------------------------------------------------------------

/// Receives timed batches from [`micro_layers`]. `body` performs exactly
/// `calls` calls of the operation `name`; the implementor times it.
pub trait BatchTimer {
    /// Time one batch.
    fn time(&mut self, name: &'static str, calls: usize, body: &mut dyn FnMut());
}

/// Values the ledger reports that are not timings.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LayerFacts {
    /// `size_of::<NodeEngine>()`.
    pub engine_size_of: usize,
    /// `ServiceModel::saturation_rate` of the default service model: the
    /// paper's 11 800 requests per second (§4.5.2).
    pub slurm_saturation_rps: f64,
    /// Whether the engine table still held exactly its budget after the
    /// timed protocol rounds.
    pub lab_conserved: bool,
}

/// Calls per timed batch for in-memory operations.
pub const BATCH: usize = 1024;
/// Engines in the bench-owned table, so cache behaviour resembles a
/// cluster and not one hot automaton.
pub const TABLE: usize = 4096;
/// Datagrams per timed batch for socket operations: under the kernel's
/// default receive buffer, like the reactor's own window.
const SOCKET_BATCH: usize = 128;

fn w(watts: u64) -> Power {
    Power::from_watts_u64(watts)
}

fn node(i: usize) -> NodeId {
    NodeId::new(i as u32)
}

/// The protocol parameters of the mega-scale scenario (donors park at the
/// margin after one shed), shared by every engine the ledger builds.
fn lab_params() -> NodeParams {
    ShardedConfig::mega(TABLE, 1, 0).node
}

fn new_engine(i: usize, n: usize, params: NodeParams) -> NodeEngine {
    NodeEngine::new(
        node(i),
        n,
        EngineConfig::new(params),
        w(160),
        SharedObserver::noop(),
    )
}

/// Build `n` engines and return RSS growth per engine in bytes.
pub fn engine_bytes_per_node(n: usize) -> f64 {
    let params = lab_params();
    let before = host::rss_mib();
    let engines: Vec<NodeEngine> = (0..n).map(|i| new_engine(i, n, params)).collect();
    let after = host::rss_mib();
    black_box(&engines);
    (after - before) * 1024.0 * 1024.0 / n as f64
}

/// Time every single-layer operation of the ledger, at least `min_calls`
/// calls each, on inputs drawn from `seed`.
pub fn micro_layers(seed: u64, min_calls: usize, t: &mut dyn BatchTimer) -> io::Result<LayerFacts> {
    let batches = min_calls.div_ceil(BATCH);
    let lab_conserved = engine_lab(seed, min_calls, t);
    // A suspecting peer pick scans all `TABLE` candidates and costs
    // microseconds, not nanoseconds: these two rows rest on fewer calls.
    engine_suspect_lab(seed, (batches / 50).max(4), t);
    engine_new(batches, t);
    discovery(seed, batches, (batches / 10).max(4), t);
    pool_and_escrow(seed, batches, t);
    wire(batches, t);
    sockets(seed, min_calls.div_ceil(SOCKET_BATCH), t)?;
    sim_parts(seed, batches, t);
    slurm_parts(seed, batches, t);
    power_and_workload(seed, batches, t);
    trace_sinks(batches, t);
    Ok(LayerFacts {
        engine_size_of: std::mem::size_of::<NodeEngine>(),
        slurm_saturation_rps: ServiceModel::default().saturation_rate(),
        lab_conserved,
    })
}

/// A lockstep cluster of [`TABLE`] engines owned by the benchmark, driven
/// in stages so each timed batch holds one kind of `NodeEngine::handle`
/// input.
///
/// Roles by `i % 4`: 1 is a steady donor (sheds once, then ticks at the
/// margin), 3 a donor whose demand falls a little every round (an excess
/// tick each round), 0 and 2 swap between hungry and donor every
/// [`LAB_EPOCH`] rounds so power keeps circulating and grants stay
/// non-zero. Requesters with `i % 16 == 0` never have their acks
/// delivered, which leaves their granters' escrow entries to expire: on
/// even granters through the per-entry timers they asked for, on odd ones
/// through the bulk sweep.
struct Lab {
    engines: Vec<NodeEngine>,
    rngs: Vec<TestRng>,
    caps: Vec<Power>,
    out: Vec<EngineOutput>,
    /// (engine, length of `out` after its call) per call of a batch.
    ends: Vec<(u32, u32)>,
    requests: Vec<(u32, EngineInput)>,
    outcomes: Vec<(u32, EngineInput)>,
    grants: Vec<(u32, EngineInput)>,
    acks: Vec<(u32, EngineInput)>,
    /// Escrow timers by the round they fall due in.
    timers: Vec<Vec<(u32, EngineInput)>>,
    nonzero_grants: usize,
}

/// Rounds between role swaps: long enough that a newly hungry node drains
/// its own pool (it asks there first) and spends most of the epoch asking
/// peers.
const LAB_EPOCH: u64 = 64;
/// Safety stop for the lab, far above what `min_calls` needs.
const LAB_MAX_ROUNDS: u64 = 4_000;

impl Lab {
    fn new(seed: u64) -> Self {
        let params = lab_params();
        Lab {
            engines: (0..TABLE).map(|i| new_engine(i, TABLE, params)).collect(),
            rngs: (0..TABLE)
                .map(|i| TestRng::seed_from_u64(penelope_sim::node_seed(seed, i as u64)))
                .collect(),
            caps: vec![w(160); TABLE],
            out: Vec::with_capacity(4 * BATCH),
            ends: Vec::with_capacity(BATCH),
            requests: Vec::new(),
            outcomes: Vec::new(),
            grants: Vec::new(),
            acks: Vec::new(),
            timers: Vec::new(),
            nonzero_grants: 0,
        }
    }

    fn demand(i: usize, round: u64) -> Power {
        let even_epoch = (round / LAB_EPOCH).is_multiple_of(2);
        match i % 4 {
            0 if even_epoch => w(250),
            2 if !even_epoch => w(250),
            1 => w(100),
            3 => Power::from_milliwatts(150_000u64.saturating_sub(200 * round).max(70_000)),
            _ => w(100),
        }
    }

    /// Feed `inputs` in batches of [`BATCH`], timing each batch under
    /// `name` when given, then route what the engines emitted.
    fn stage(
        &mut self,
        t: &mut dyn BatchTimer,
        name: Option<&'static str>,
        now: SimTime,
        round: u64,
        inputs: &mut Vec<(u32, EngineInput)>,
    ) {
        while !inputs.is_empty() {
            let take = inputs.len().min(BATCH);
            let mut batch = inputs.drain(..take);
            let (engines, rngs, out, ends) = (
                &mut self.engines,
                &mut self.rngs,
                &mut self.out,
                &mut self.ends,
            );
            let mut body = || {
                for (i, input) in batch.by_ref() {
                    let i = i as usize;
                    engines[i].handle(now, input, &mut rngs[i], out);
                    ends.push((i as u32, out.len() as u32));
                }
            };
            match name {
                Some(name) => t.time(name, take, &mut body),
                None => body(),
            }
            drop(batch);
            self.route(round);
        }
    }

    /// Turn the last batch's outputs into the next stages' inputs.
    fn route(&mut self, round: u64) {
        let mut out = std::mem::take(&mut self.out);
        let mut ends = std::mem::take(&mut self.ends);
        let mut items = out.drain(..);
        let mut taken = 0u32;
        for &(i, end) in &ends {
            let me = node(i as usize);
            while taken < end {
                taken += 1;
                match items.next().expect("ends index into out") {
                    EngineOutput::Actuate { cap } => self.caps[i as usize] = cap,
                    EngineOutput::Send { dst, msg, .. } => {
                        let stage = match &msg {
                            PeerMsg::Request(_) => &mut self.requests,
                            PeerMsg::Grant(..) => &mut self.grants,
                            // A requester on the withheld list never acks.
                            PeerMsg::Ack(..) if i % 16 == 0 => continue,
                            PeerMsg::Ack(..) => &mut self.acks,
                        };
                        stage.push((dst.raw(), EngineInput::Msg { src: me, msg }));
                    }
                    EngineOutput::SendGrant {
                        dst,
                        msg,
                        amount,
                        seq,
                    } => {
                        self.nonzero_grants += 1;
                        self.grants
                            .push((dst.raw(), EngineInput::Msg { src: me, msg }));
                        self.outcomes.push((
                            i,
                            EngineInput::GrantOutcome {
                                requester: dst,
                                seq,
                                amount,
                                delivered: true,
                            },
                        ));
                    }
                    // Even granters get their timers fed back one by one;
                    // odd ones are swept in bulk.
                    EngineOutput::SetEscrowTimer { requester, seq, at } if i % 2 == 0 => {
                        let due = (at.as_nanos() / 1_000_000_000).max(round + 1) as usize;
                        if self.timers.len() <= due {
                            self.timers.resize_with(due + 1, Vec::new);
                        }
                        self.timers[due].push((i, EngineInput::EscrowDeadline { requester, seq }));
                    }
                    EngineOutput::SetEscrowTimer { .. } | EngineOutput::Resolved { .. } => {}
                    EngineOutput::PowerLost { .. } => {
                        unreachable!("no crash, so no stale grant, in the lab")
                    }
                }
            }
        }
        drop(items);
        ends.clear();
        self.out = out;
        self.ends = ends;
    }

    fn take_requests(&mut self) -> Vec<(u32, EngineInput)> {
        std::mem::take(&mut self.requests)
    }

    fn take_outcomes(&mut self) -> Vec<(u32, EngineInput)> {
        std::mem::take(&mut self.outcomes)
    }

    fn take_grants(&mut self) -> Vec<(u32, EngineInput)> {
        std::mem::take(&mut self.grants)
    }

    fn take_acks(&mut self) -> Vec<(u32, EngineInput)> {
        std::mem::take(&mut self.acks)
    }

    fn conserved(&self) -> bool {
        let held: Power = self
            .engines
            .iter()
            .map(|e| e.cap() + e.pool().available() + e.escrowed_undelivered())
            .sum();
        held == w(160) * TABLE as u64
    }
}

/// Run protocol rounds until the rarest input kind (a non-zero grant's
/// outcome) has `min_calls` calls; returns whether the table conserved
/// its budget.
fn engine_lab(seed: u64, min_calls: usize, t: &mut dyn BatchTimer) -> bool {
    let mut lab = Lab::new(seed);
    let mut inputs: Vec<(u32, EngineInput)> = Vec::with_capacity(TABLE);
    for round in 1..=LAB_MAX_ROUNDS {
        if lab.nonzero_grants >= min_calls {
            break;
        }
        let now = SimTime::from_secs(round);
        // Escrow expiry both ways: per-entry timers as `ClusterSim`
        // schedules them (most are stale by the time they fire, the ack
        // came first), then the bulk sweep the multiplexed daemon runs on
        // every engine that holds an entry.
        if let Some(due) = lab.timers.get_mut(round as usize) {
            inputs.append(due);
        }
        lab.stage(
            t,
            Some("core.engine.escrow_deadline_ns"),
            now,
            round,
            &mut inputs,
        );
        inputs.extend(
            (1..TABLE)
                .step_by(2)
                .filter(|&i| lab.engines[i].escrow_len() > 0)
                .map(|i| (i as u32, EngineInput::SweepEscrow)),
        );
        lab.stage(
            t,
            Some("core.engine.sweep_escrow_ns"),
            now,
            round,
            &mut inputs,
        );
        // Ticks, one stage per role so each batch is one kind of tick.
        let hungry_role = if (round / LAB_EPOCH).is_multiple_of(2) {
            0
        } else {
            2
        };
        for (role, name) in [
            (1, Some("core.engine.tick_margin_ns")),
            (3, Some("core.engine.tick_excess_ns")),
            (hungry_role, Some("core.engine.tick_hungry_ns")),
            (2 - hungry_role, None),
        ] {
            inputs.extend((0..TABLE).filter(|i| i % 4 == role).map(|i| {
                let reading = Lab::demand(i, round).min(lab.caps[i]);
                (i as u32, EngineInput::Tick { reading })
            }));
            lab.stage(t, name, now, round, &mut inputs);
        }
        // Request → grant (+ outcome) → ack, each stage one message kind.
        for (name, pick) in [
            (
                "core.engine.msg_request_ns",
                Lab::take_requests as fn(&mut Lab) -> Vec<_>,
            ),
            ("core.engine.grant_outcome_ns", Lab::take_outcomes),
            ("core.engine.msg_grant_ns", Lab::take_grants),
            ("core.engine.msg_ack_ns", Lab::take_acks),
        ] {
            let mut stage_inputs = pick(&mut lab);
            lab.stage(t, Some(name), now, round, &mut stage_inputs);
        }
    }
    lab.conserved()
}

/// Hungry ticks on engines that hold one gossiped suspicion: every peer
/// pick filters all `n` candidates through the suspicion table.
fn engine_suspect_lab(seed: u64, batches: usize, t: &mut dyn BatchTimer) {
    let mut lab = Lab::new(seed);
    let digest = SuspicionDigest {
        incarnation: 0,
        entries: vec![SuspicionEntry {
            peer: node(7),
            incarnation: 0,
        }],
    };
    let zero_grant = |seq: u64, digest: Option<Box<SuspicionDigest>>| {
        PeerMsg::Grant(
            PowerGrant {
                amount: Power::ZERO,
                seq,
            },
            digest,
        )
    };
    // Plant the suspicion the way it spreads in a run: piggybacked on a
    // grant from a peer.
    let mut plant: Vec<(u32, EngineInput)> = (0..TABLE)
        .map(|i| {
            let msg = zero_grant(u64::MAX, Some(Box::new(digest.clone())));
            (i as u32, EngineInput::Msg { src: node(1), msg })
        })
        .collect();
    lab.stage(t, None, SimTime::from_millis(1), 0, &mut plant);
    lab.grants.clear();
    let hungry: Vec<usize> = (0..TABLE).filter(|i| i % 4 == 0).collect();
    assert_eq!(hungry.len(), BATCH);
    for round in 0..batches as u64 {
        // Millisecond steps keep the whole run inside the probe interval,
        // so the suspicion stays active throughout.
        let now = SimTime::from_millis(2 + round);
        let mut ticks: Vec<(u32, EngineInput)> = hungry
            .iter()
            .map(|&i| (i as u32, EngineInput::Tick { reading: w(160) }))
            .collect();
        lab.stage(
            t,
            Some("core.engine.tick_hungry_suspect_ns"),
            now,
            0,
            &mut ticks,
        );
        // Answer every request empty-handed so the requester is free to
        // ask again next round.
        let mut replies: Vec<(u32, EngineInput)> = lab
            .requests
            .drain(..)
            .map(|(dst, input)| match input {
                EngineInput::Msg {
                    src,
                    msg: PeerMsg::Request(PowerRequest { seq, .. }),
                } => {
                    let msg = zero_grant(seq, None);
                    (
                        src.raw(),
                        EngineInput::Msg {
                            src: NodeId::new(dst),
                            msg,
                        },
                    )
                }
                other => unreachable!("request stage held {other:?}"),
            })
            .collect();
        assert_eq!(
            replies.len(),
            BATCH,
            "a suspecting hungry tick sent no request"
        );
        lab.stage(t, None, now, 0, &mut replies);
    }
}

fn engine_new(batches: usize, t: &mut dyn BatchTimer) {
    let params = lab_params();
    let mut table: Vec<NodeEngine> = Vec::with_capacity(BATCH);
    for b in 0..batches {
        table.clear();
        t.time("core.engine.new_ns", BATCH, &mut || {
            for i in 0..BATCH {
                table.push(new_engine(b * BATCH + i, TABLE, params));
            }
        });
        black_box(&table);
    }
}

fn discovery(seed: u64, batches: usize, suspect_batches: usize, t: &mut dyn BatchTimer) {
    let mut rng = TestRng::seed_from_u64(seed ^ 0xD15C);
    let mut cursor = 0u32;
    let suspect = node(7);
    for (name, active, batches) in [
        ("core.discovery.choose_peer_ns", false, batches),
        (
            "core.discovery.choose_peer_suspect_ns",
            true,
            suspect_batches,
        ),
    ] {
        for _ in 0..batches {
            t.time(name, BATCH, &mut || {
                for idx in 0..BATCH {
                    black_box(choose_peer(
                        DiscoveryStrategy::UniformRandom,
                        &mut rng,
                        idx * 4 % TABLE,
                        TABLE,
                        &mut cursor,
                        None,
                        active,
                        |p| p == suspect,
                    ));
                }
            });
        }
    }
}

fn pool_and_escrow(seed: u64, batches: usize, t: &mut dyn BatchTimer) {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x9001);
    let mut pool = PowerPool::new(PoolConfig::default());
    for _ in 0..batches {
        pool.deposit(w(10_000));
        t.time("core.pool.handle_request_ns", BATCH, &mut || {
            for k in 0..BATCH {
                black_box(pool.handle_request(k % 8 == 0, w(20)));
            }
        });
        pool.drain();
    }
    // An escrow the size a busy granter holds: eight open entries.
    let far = SimTime::from_secs(1_000_000);
    let mut escrow: GrantEscrow<NodeId> = GrantEscrow::new();
    for k in 0..8u64 {
        escrow.insert(node(k as usize), k, w(5), EscrowState::AwaitingAck, far);
    }
    let keys: Vec<(NodeId, u64)> = (0..BATCH)
        .map(|_| {
            (
                node(rng.gen_range(8..TABLE as u64) as usize),
                rng.gen_range(0..1u64 << 40),
            )
        })
        .collect();
    for _ in 0..batches {
        t.time("core.escrow.insert_release_ns", BATCH, &mut || {
            for &(requester, seq) in &keys {
                escrow.insert(requester, seq, w(5), EscrowState::AwaitingAck, far);
                black_box(escrow.release(requester, seq));
            }
        });
        t.time("core.escrow.take_expired_ns", BATCH, &mut || {
            for k in 0..BATCH {
                black_box(escrow.take_expired(SimTime::from_secs(k as u64)));
            }
        });
    }
}

/// The five frames the mux sends, as `WireMsg` picks their version: v2
/// request, v3 request with a bid, v1 grant, v2 grant with a digest, v1
/// ack.
fn wire_frames() -> [(&'static str, &'static str, WireMsg); 5] {
    let digest = SuspicionDigest {
        incarnation: 3,
        entries: (0..2)
            .map(|k| SuspicionEntry {
                peer: node(40 + k),
                incarnation: 1,
            })
            .collect(),
    };
    let request = |bid: Power| WireMsg::Request {
        seq: 0x1234_5678,
        urgent: true,
        alpha: w(30),
        from: Some(node(17)),
        bid,
    };
    [
        (
            "daemon.wire.encode_request_ns",
            "daemon.wire.decode_request_ns",
            request(Power::ZERO),
        ),
        (
            "daemon.wire.encode_request_bid_ns",
            "daemon.wire.decode_request_bid_ns",
            request(w(3)),
        ),
        (
            "daemon.wire.encode_grant_ns",
            "daemon.wire.decode_grant_ns",
            WireMsg::Grant {
                seq: 0x1234_5678,
                amount: w(12),
                digest: None,
            },
        ),
        (
            "daemon.wire.encode_grant_digest_ns",
            "daemon.wire.decode_grant_digest_ns",
            WireMsg::Grant {
                seq: 0x1234_5678,
                amount: w(12),
                digest: Some(Box::new(digest)),
            },
        ),
        (
            "daemon.wire.encode_ack_ns",
            "daemon.wire.decode_ack_ns",
            WireMsg::Ack {
                seq: 0x1234_5678,
                digest: None,
            },
        ),
    ]
}

fn wire(batches: usize, t: &mut dyn BatchTimer) {
    for (encode, decode, msg) in wire_frames() {
        let bytes = msg.encode();
        assert_eq!(
            WireMsg::decode(&bytes).as_ref(),
            Ok(&msg),
            "{encode} round trip"
        );
        for _ in 0..batches {
            t.time(encode, BATCH, &mut || {
                for _ in 0..BATCH {
                    black_box(black_box(&msg).encode());
                }
            });
            t.time(decode, BATCH, &mut || {
                for _ in 0..BATCH {
                    black_box(WireMsg::decode(black_box(&bytes)).is_ok());
                }
            });
        }
    }
}

/// Loopback datagrams: the floor under a mux frame, then a send through
/// the passthrough and through the fault shim.
fn sockets(seed: u64, batches: usize, t: &mut dyn BatchTimer) -> io::Result<()> {
    // Frame header plus a v2 request, the commonest mux frame.
    let (_, _, request) = &wire_frames()[0];
    let mut frame = vec![0u8; 8];
    frame.extend_from_slice(&request.encode());
    let rx = UdpSocket::bind("127.0.0.1:0")?;
    rx.set_read_timeout(Some(Duration::from_millis(100)))?;
    let dst = rx.local_addr()?;
    let mut buf = [0u8; 256];
    let mut drain = |n: usize| -> io::Result<()> {
        for _ in 0..n {
            rx.recv_from(&mut buf)?;
        }
        Ok(())
    };

    // The reactor's pattern: send until 192 are in flight, drain to 64.
    let tx = UdpSocket::bind("127.0.0.1:0")?;
    let per_cycle = MUX_WINDOW - MUX_DRAIN_TO;
    for _ in 0..MUX_DRAIN_TO {
        tx.send_to(&frame, dst)?;
    }
    let mut failed = None;
    for _ in 0..(batches * SOCKET_BATCH).div_ceil(per_cycle) {
        t.time("net.udp.loopback_ns_per_datagram", per_cycle, &mut || {
            let cycle = (0..per_cycle)
                .try_for_each(|_| tx.send_to(&frame, dst).map(drop))
                .and_then(|()| drain(per_cycle));
            if let Err(e) = cycle {
                failed = Some(e);
            }
        });
    }
    if let Some(e) = failed {
        return Err(e);
    }
    drain(MUX_DRAIN_TO)?;

    let passthrough: Arc<dyn DatagramSocket> = Arc::new(UdpSocket::bind("127.0.0.1:0")?);
    let shim = FaultySocket::new(
        UdpSocket::bind("127.0.0.1:0")?,
        FaultConfig::lossy(seed ^ 0xFA17_FA17, 50),
    );
    shim.register_peer(dst);
    let faulty: Arc<dyn DatagramSocket> = Arc::new(shim);
    for (name, socket) in [
        ("net.shim.passthrough_send_ns", passthrough),
        ("net.shim.faulty_send_ns", faulty),
    ] {
        for _ in 0..batches {
            let mut sent = 0usize;
            t.time(name, SOCKET_BATCH, &mut || {
                for _ in 0..SOCKET_BATCH {
                    if matches!(
                        socket.send_to(&frame, dst),
                        Ok(penelope_net::shim::SendStatus::Sent)
                    ) {
                        sent += 1;
                    }
                }
            });
            drain(sent)?;
        }
    }
    Ok(())
}

fn sim_parts(seed: u64, batches: usize, t: &mut dyn BatchTimer) {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x51A1);
    // The hold model: pop the earliest event, push one a random interval
    // later, at a steady depth.
    for (name, depth) in [
        ("sim.event_queue.push_pop_ns_1k", 1_000usize),
        ("sim.event_queue.push_pop_ns_100k", 100_000),
    ] {
        let mut q = EventQueue::with_capacity(depth);
        for i in 0..depth {
            q.push(
                SimTime::from_nanos(rng.gen_range(0..1_000_000_000u64)),
                Event::Tick(node(i % TABLE)),
            );
        }
        let gaps: Vec<u64> = (0..BATCH)
            .map(|_| rng.gen_range(1..1_000_000_000u64))
            .collect();
        for _ in 0..batches {
            t.time(name, BATCH, &mut || {
                for &gap in &gaps {
                    let s = q.pop().expect("steady depth");
                    q.push(SimTime::from_nanos(s.at.as_nanos() + gap), s.event);
                }
            });
        }
    }
    let mut net = SimNet::new(LatencyModel::default());
    let latency = LatencyModel::default();
    for b in 0..batches {
        let now = SimTime::from_micros(b as u64);
        t.time("net.simnet.route_ns", BATCH, &mut || {
            for k in 0..BATCH {
                black_box(net.route(node(k), node(TABLE - 1 - k), k as u32, now, &mut rng));
            }
        });
        t.time("net.latency.sample_ns", BATCH, &mut || {
            for _ in 0..BATCH {
                black_box(latency.sample(&mut rng));
            }
        });
    }
}

fn slurm_parts(seed: u64, batches: usize, t: &mut dyn BatchTimer) {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x5109);
    let mut server = PowerServer::new(PoolConfig::default());
    // Arrivals a little slower than the mean service time: the queue
    // works, and never fills.
    let mut queue = ServerQueue::new(ServiceModel::default(), 1200);
    let mut clock = 0u64;
    for _ in 0..batches {
        server.on_report(w(10_000));
        t.time("slurm.server.on_request_ns", BATCH, &mut || {
            for k in 0..BATCH {
                black_box(server.on_request(k % 8 == 0, w(20), k as u64));
            }
        });
        server.drain();
        t.time("slurm.queue.offer_ns", BATCH, &mut || {
            for _ in 0..BATCH {
                clock += 100_000;
                black_box(queue.offer(SimTime::from_nanos(clock), &mut rng));
            }
        });
    }
    assert_eq!(
        queue.stats().dropped,
        0,
        "offer micro-bench overflowed the queue"
    );
}

fn power_and_workload(seed: u64, batches: usize, t: &mut dyn BatchTimer) {
    let mut rng = TestRng::seed_from_u64(seed ^ 0x9A91);
    let profile = Profile::new(
        "steady",
        vec![Phase::new(w(200), 1.0e12)],
        PerfModel::default(),
    );
    let mut domains: Vec<SimulatedRapl<WorkloadState>> = (0..BATCH)
        .map(|_| {
            SimulatedRapl::new(
                WorkloadState::new(profile.clone()),
                w(160),
                RaplConfig::default(),
            )
        })
        .collect();
    // One read and one cap change per domain per simulated second, the
    // rhythm of a 1 Hz decider.
    for b in 0..batches {
        let now = SimTime::from_secs(b as u64 + 1);
        t.time("power.rapl.read_ns", BATCH, &mut || {
            for d in domains.iter_mut() {
                black_box(d.read_power_with(now, &mut rng));
            }
        });
        let cap = w(150 + (b % 2) as u64 * 20);
        t.time("power.rapl.set_cap_ns", BATCH, &mut || {
            for d in domains.iter_mut() {
                d.set_cap(cap, now);
            }
        });
        t.time("workload.state.current_demand_ns", BATCH, &mut || {
            for d in domains.iter() {
                black_box(d.device().current_demand());
            }
        });
    }
}

fn trace_sinks(batches: usize, t: &mut dyn BatchTimer) {
    let sinks: [(&'static str, SharedObserver); 4] = [
        ("trace.emit_noop_ns", SharedObserver::noop()),
        (
            "trace.emit_counter_ns",
            SharedObserver::from(Arc::new(CounterObserver::new())),
        ),
        (
            "trace.emit_ring_ns",
            SharedObserver::from(Arc::new(RingBufferObserver::with_capacity(4096))),
        ),
        (
            "trace.emit_jsonl_ns",
            SharedObserver::from(Arc::new(JsonlObserver::new(io::sink()))),
        ),
    ];
    for (name, sink) in sinks {
        for b in 0..batches {
            t.time(name, BATCH, &mut || {
                for k in 0..BATCH {
                    // The event every decider iteration emits.
                    sink.emit(|| TraceEvent {
                        at: SimTime::from_secs(b as u64),
                        node: node(k),
                        period: b as u64,
                        kind: EventKind::CapActuated {
                            cap: w(160),
                            reading: w(150),
                            pool: Power::ZERO,
                        },
                    });
                }
            });
        }
    }
}
