//! Cross-substrate conformance: one [`Scenario`], two substrates, one
//! set of invariants.
//!
//! Penelope's portability claim (§3.3) is that the *same* decider + pool
//! algorithms (Alg. 1 & 2) behave correctly over any substrate providing
//! power, transport and clock. A [`Scenario`] is everything a run is made
//! of — the cluster's `ClusterConfig`, one `Profile` per node and the
//! period-stamped `FaultScript` — in the types the substrates themselves
//! take, so nothing is translated on the way in. Each [`Substrate`] runs
//! it and reports a per-period [`Snapshot`] stream:
//!
//! * [`SimSubstrate`] — the deterministic discrete-event simulator.
//!   Single-threaded, so every per-period snapshot is a consistent cut
//!   with exact in-flight accounting.
//! * [`MultiplexedDaemon`] — the daemon's own code: its `Reactor`, wire
//!   format and real UDP datagrams on loopback, every node's engine behind
//!   one socket pair (`penelope_daemon::Mux`), stepped one period at a
//!   time on the virtual clock: round `p` ticks at the instant the
//!   simulator ticks period `p`. Each round is pumped until every frame
//!   has landed, so its snapshots are consistent cuts too —
//!   unless the kernel lost a datagram, after which the cuts say they are
//!   not. Its socket shim adds what only a wire can: duplication and
//!   wall-clock delay.
//!
//! Both run the *same* `NodeEngine` through the same executor
//! (`NodeEngine::step`), seed each node's stream the same way
//! (`penelope_testkit::rng::node_seed`) and read the [`FaultScript`] onto
//! the same `penelope_net::FaultPlane` (`FaultAction::apply`); only what
//! each substrate's `Effects` do — power delivery, transport — and the
//! clock differ. A seed fixes a run on both, except for the daemon's wire
//! delays, and on an [idealized](Scenario::idealized) loss-free scenario
//! the two emit equal protocol-event streams. The per-node daemon on the
//! wall clock is not a conformance substrate; `penelope-daemon`'s
//! `udp_cluster` tests smoke it on real sockets.
//!
//! Every run records the events it emitted ([`SubstrateRun::events`]).
//! [`check_run`] is the one verdict on a run: it holds the run's cuts, its
//! end state and its event stream to every [`Invariant`], and reads what
//! the run must show (a request, the fault legs firing, the script's
//! liveness) off the scenario itself. Cut `p` is the state at the end of
//! period `p` on both substrates. [`assert_conformant`] runs a scenario
//! on one of [`SUBSTRATES`] and panics listing every violation; only
//! tests that expect violations call [`check_run`] themselves. The one
//! comparison across the two substrates is exact: [`normalize_protocol`]
//! strips a stream to what both must emit alike on an idealized
//! loss-free scenario, and the two results must be equal. [`oracle`]
//! holds the differential Penelope/Fair/SLURM ordering checks from the
//! paper's §4.2–§4.3.

use std::sync::Arc;

use penelope_net::FaultPlane;
use penelope_sim::{ClusterConfig, ClusterSim, FaultAction, FaultScript, SystemKind};
use penelope_trace::{EventKind, FanoutObserver, RingBufferObserver, SharedObserver, TraceEvent};
use penelope_units::{NodeId, Power, PowerRange, SimDuration, SimTime};
use penelope_workload::{PerfModel, Phase, Profile};

mod check;
mod daemon;
pub mod oracle;
#[cfg(test)]
mod tests;

pub use check::{assert_conformant, check_run, normalize_protocol, Invariant, Violation};
pub use daemon::MultiplexedDaemon;
pub use penelope_sim::{NodeSnapshot, Snapshot};

/// The decision period of every scenario: the one clock faults are
/// stamped on ([`at_period`]), cuts are taken on and loss is averaged over.
pub const PERIOD: SimDuration = SimDuration::from_secs(1);

/// The instant period `p` starts at — what a fault that takes effect in
/// period `p` is stamped with.
pub fn at_period(p: u64) -> SimTime {
    SimTime::ZERO + PERIOD * p
}

fn watts(w: u64) -> Power {
    Power::from_watts_u64(w)
}

/// One conformance scenario: everything a substrate needs to reproduce
/// the exact same logical run, in the types it takes.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Human-readable name, used in failure reports.
    pub name: String,
    /// Number of decision periods to run.
    pub periods: u64,
    /// The cluster: budget, safe range, decider knobs, RAPL
    /// noise, discovery, latency and service models, observer — and the
    /// master seed, **the reproducing seed reported on failure**. A
    /// substrate reads the part of it it can honour. The one field not to
    /// edit is `node.decider.period`: it stays [`PERIOD`], which is what
    /// the fault script and the checks count periods in.
    pub cfg: ClusterConfig,
    /// One workload per node; the cluster has `profiles.len()` nodes.
    pub profiles: Vec<Profile>,
    /// The fault schedule, period-stamped ([`at_period`]). The simulator
    /// installs it; the multiplexed daemon applies each period's share of
    /// it between periods.
    pub faults: FaultScript,
    /// Duplication probability on every link, in permille. A copy samples
    /// its own delay, so duplicates can overtake originals. Only a real
    /// wire can duplicate, so this has no `FaultAction`: the daemon
    /// substrate honours it on real datagrams through the socket shim and
    /// the simulator ignores it.
    pub dup_permille: u16,
    /// Upper bound of the uniform per-datagram delay (reordering), in
    /// milliseconds; 0 = none. Wire-only, like `dup_permille`.
    pub jitter_ms: u16,
}

impl Scenario {
    /// A fault-free Penelope cluster with one node per entry of `demands`,
    /// each running that phase list: 160 W per node, an 80–300 W safe
    /// range, exact power meters, invariant checking on. Every node gets
    /// the same linear cap→performance model; what the suite varies is the
    /// *demand trajectory*, which is what drives deposits, requests and
    /// urgency. Anything else is an edit of
    /// [`Scenario::cfg`] or [`Scenario::faults`].
    pub fn new(
        name: impl Into<String>,
        seed: u64,
        periods: u64,
        demands: impl IntoIterator<Item = Vec<Phase>>,
    ) -> Scenario {
        let perf = PerfModel::new(watts(60), 1.0);
        let profiles: Vec<Profile> = demands
            .into_iter()
            .enumerate()
            .map(|(i, phases)| Profile::new(format!("w{i}"), phases, perf))
            .collect();
        let safe = PowerRange::from_watts(80, 300);
        let mut cfg =
            ClusterConfig::checked(SystemKind::Penelope, watts(160) * profiles.len() as u64);
        cfg.seed = seed;
        cfg.node.safe_range = safe;
        cfg.rapl.safe_range = safe;
        cfg.rapl.read_noise_std = 0.0;
        cfg.node.decider.period = PERIOD;
        // Jitterless ticks: both substrates tick at exact period boundaries,
        // which keeps the per-node RNG streams aligned across substrates.
        cfg.tick_jitter = SimDuration::ZERO;
        Scenario {
            name: name.into(),
            periods,
            cfg,
            profiles,
            faults: FaultScript::none(),
            dup_permille: 0,
            jitter_ms: 0,
        }
    }

    /// Node count.
    pub fn nodes(&self) -> usize {
        self.profiles.len()
    }

    /// Each node's even share of the budget: its initial cap, and what a
    /// restart re-admits at most.
    pub fn budget_per_node(&self) -> Power {
        self.cfg.budget / self.nodes() as u64
    }

    /// The transport idealized: zero message latency and zero pool service
    /// time, so a request sent in period *p* is served and its grant
    /// applied within period *p* — the same phase alignment the
    /// multiplexed daemon's rounds have, each pumped until quiet. With read
    /// noise and tick jitter also zero, the two substrates draw identical
    /// per-node RNG streams and, on a loss-free script, their normalized
    /// protocol-event streams must be *equal*, which is what the
    /// event-level conformance tests assert.
    pub fn idealized(mut self) -> Scenario {
        self.cfg.latency = penelope_net::LatencyModel::Constant(SimDuration::ZERO);
        self.cfg.service = penelope_slurm::ServiceModel {
            lo: SimDuration::ZERO,
            hi: SimDuration::ZERO,
        };
        self
    }

    /// Lean on the reliability layer: retry dropped requests instead of
    /// eating a full timeout per loss (and, under churn or cuts, feed the
    /// suspicion set fast enough to matter).
    fn retrying(mut self) -> Scenario {
        self.cfg.node.decider.max_retransmits = 2;
        self
    }

    /// Drop every peer message with probability `drop_permille / 1000`
    /// from time zero.
    fn dropping(mut self, drop_permille: u16) -> Scenario {
        let rate = f64::from(drop_permille) / 1000.0;
        self.faults = self
            .faults
            .at(SimTime::ZERO, FaultAction::SetDropRate(rate));
        self
    }

    /// What the churn and partition families run under: retries on, and
    /// background loss when a rate is asked for.
    fn background_loss(self, drop_permille: u16) -> Scenario {
        match drop_permille {
            0 => self.retrying(),
            _ => self.retrying().dropping(drop_permille),
        }
    }

    fn fault(mut self, period: u64, action: FaultAction) -> Scenario {
        self.faults = self.faults.at(at_period(period), action);
        self
    }

    /// True iff the script can retire power for good (a node dies). A
    /// script without a `Kill` is pure connectivity — loss, partitions,
    /// link cuts — and must keep `lost` at exactly zero: every grant
    /// stranded by a cut link is escrowed and reclaimed.
    pub fn kills_a_node(&self) -> bool {
        let mut actions = self.faults.entries().iter().map(|(_, action)| action);
        actions.any(|action| matches!(action, FaultAction::Kill(_)))
    }

    /// The random message-loss probability in force during `period`: the
    /// script's last `SetDropRate` stamped at or before its start.
    pub fn drop_rate_in(&self, period: u64) -> f64 {
        let start = at_period(period);
        let mut plane = FaultPlane::healthy();
        for (at, action) in self.faults.in_firing_order() {
            if at <= start {
                action.apply(&mut plane);
            }
        }
        plane.drop_rate()
    }
}

/// The result of running one scenario on one substrate.
#[derive(Clone, Debug)]
pub struct SubstrateRun {
    /// Substrate name ("sim", "daemon", ...).
    pub substrate: String,
    /// One snapshot per period boundary, in order.
    pub snapshots: Vec<Snapshot>,
    /// Final per-node caps (dead nodes report their cap at death).
    pub final_caps: Vec<Power>,
    /// Which nodes were still alive at the end.
    pub final_alive: Vec<bool>,
    /// Total power accounted at the end, including drained in-flight
    /// remnants — the quantity that must equal the initial budget.
    pub final_total: Power,
    /// Duplicate datagrams the fault plane injected (`None` = the
    /// substrate's transport cannot duplicate, or does not count). Under
    /// a non-zero [`Scenario::dup_permille`], a counting substrate
    /// reporting `Some(0)` over many sends never wired the duplication
    /// leg in: an [`Invariant::NonVacuous`] violation, as zero drops are
    /// for loss.
    pub duplicated: Option<u64>,
    /// Datagrams the fault plane held for a sampled delay before sending
    /// (`None` = not counted). Evidence the reordering leg
    /// ([`Scenario::jitter_ms`]) actually fired, held like `duplicated`.
    pub delayed: Option<u64>,
    /// Every protocol and transport event the run emitted, in emission
    /// order. The substrates emit one event vocabulary at the same
    /// protocol points, so [`check_run`] holds every stream to the same
    /// rules and tests diff streams across substrates.
    pub events: Vec<TraceEvent>,
}

/// A substrate that can execute a conformance scenario.
pub trait Substrate {
    /// Substrate name for reports.
    fn name(&self) -> &'static str;

    /// Run the scenario to completion, emitting protocol events to
    /// `scenario.cfg.observer` and recording them in
    /// [`SubstrateRun::events`]; `Err` for infrastructure failures (socket
    /// exhaustion etc.), not invariant violations.
    fn run(&self, scenario: &Scenario) -> Result<SubstrateRun, String>;
}

/// Both legs, simulator first: what every conformance test runs its
/// scenario on.
pub const SUBSTRATES: [&dyn Substrate; 2] = [&SimSubstrate, &MultiplexedDaemon];

// ---------------------------------------------------------------------
// Substrate 1: the simulator
// ---------------------------------------------------------------------

/// The scenario's configuration with an unbounded ring fanned in next to
/// its observer: what the run emits is recorded for [`SubstrateRun::events`].
fn recorded(scenario: &Scenario) -> (ClusterConfig, Arc<RingBufferObserver>) {
    let ring = Arc::new(RingBufferObserver::unbounded());
    let mut cfg = scenario.cfg.clone();
    cfg.observer = FanoutObserver::pair(cfg.observer, SharedObserver::from(Arc::clone(&ring)));
    (cfg, ring)
}

impl SubstrateRun {
    /// Messages the substrate's fault plane dropped over the whole run,
    /// counted off [`SubstrateRun::events`]: every substrate emits
    /// `MsgDropped`/`AckDropped` when its plane fires. Under a script with
    /// a non-zero drop rate and enough traffic, zero is an
    /// [`Invariant::NonVacuous`] violation: the substrate accepted a
    /// drop rate it never honored, so its "lossy" coverage proved nothing.
    pub fn injected_drops(&self) -> u64 {
        let dropped = |ev: &&TraceEvent| {
            matches!(
                ev.kind,
                EventKind::MsgDropped { .. } | EventKind::AckDropped { .. }
            )
        };
        self.events.iter().filter(dropped).count() as u64
    }

    /// Messages the substrate attempted to send over the whole run: the
    /// delivered sends and the drops, acks included. At drop rate `p` over
    /// `n` attempts an honest plane drops zero with probability
    /// `(1-p)^n ≤ e^(-np)`, which is what [`check_run`] weighs a zero
    /// [`SubstrateRun::injected_drops`] against.
    pub fn send_attempts(&self) -> u64 {
        let sent = |ev: &&TraceEvent| matches!(ev.kind, EventKind::MsgSent { .. });
        self.events.iter().filter(sent).count() as u64 + self.injected_drops()
    }
}

/// A substrate's run from its per-period cuts and its recorded stream.
fn cut_run(
    substrate: &str,
    snapshots: Vec<Snapshot>,
    end: &Snapshot,
    events: Vec<TraceEvent>,
) -> SubstrateRun {
    SubstrateRun {
        substrate: substrate.into(),
        snapshots,
        final_caps: end.nodes.iter().map(|n| n.cap).collect(),
        final_alive: end.nodes.iter().map(|n| n.alive).collect(),
        final_total: end.accounted_live() + end.lost,
        // The DES delivers by timestamp, exactly once; only the daemon
        // leg's socket shim can duplicate or delay, and that leg fills
        // these in over this default.
        duplicated: None,
        delayed: None,
        events,
    }
}

/// Conformance adapter for [`ClusterSim`].
pub struct SimSubstrate;

impl Substrate for SimSubstrate {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(&self, scenario: &Scenario) -> Result<SubstrateRun, String> {
        let (cfg, ring) = recorded(scenario);
        let mut sim = ClusterSim::new(cfg, scenario.profiles.clone());
        sim.install_faults(&scenario.faults);
        // Cut `p` is taken the instant before period `p + 1` starts, as
        // the daemon takes its own after round `p`: the faults and ticks
        // stamped `at_period(p + 1)` belong to the next cut. Slicing the
        // run moves no event, so the end state still has the final
        // boundary's tick in it.
        let mut snapshots = Vec::with_capacity(scenario.periods as usize);
        for p in 0..scenario.periods {
            sim.advance_to(at_period(p + 1) - SimDuration::from_nanos(1));
            snapshots.push(sim.conformance_snapshot(p));
        }
        sim.advance_to(at_period(scenario.periods));
        let end = sim.conformance_snapshot(scenario.periods);
        Ok(cut_run("sim", snapshots, &end, ring.events()))
    }
}

// ---------------------------------------------------------------------
// Canned scenarios
// ---------------------------------------------------------------------

/// Hungry from the start.
fn hungry() -> Vec<Phase> {
    vec![Phase::new(watts(220), 60.0)]
}

/// Light for six periods, then hungry.
fn ramp() -> Vec<Phase> {
    vec![Phase::new(watts(100), 6.0), Phase::new(watts(210), 60.0)]
}

/// The canned cluster every scenario below runs but the noisy one:
/// `nodes` nodes alternating [`hungry`] and [`ramp`] (deposit, take-local
/// and peer-request paths in one run), so the hungry nodes must pull power
/// from the excess the light ones deposit. Scenarios differ in name,
/// length and faults.
fn canned(name: impl Into<String>, seed: u64, periods: u64, nodes: usize) -> Scenario {
    let demands = [hungry(), ramp()].into_iter().cycle().take(nodes);
    Scenario::new(name, seed, periods, demands)
}

/// Nodes `< split_at` and nodes `>= split_at` of a four-node cluster stop
/// hearing each other.
fn split(split_at: u32) -> FaultAction {
    FaultAction::Partition(vec![
        (0..split_at).map(NodeId::new).collect(),
        (split_at..4).map(NodeId::new).collect(),
    ])
}

/// Nominal scenario: no faults, exact power meters.
pub fn nominal_scenario(seed: u64) -> Scenario {
    canned("nominal", seed, 10, 4)
}

/// Node-fault scenario: node 1 of five is killed at the start of period
/// 4; its cap and pooled power must be retired, never redistributed.
pub fn node_fault_scenario(seed: u64) -> Scenario {
    canned("node-fault", seed, 12, 5).fault(4, FaultAction::Kill(NodeId::new(1)))
}

/// Noisy-power scenario: ±5 % multiplicative Gaussian read noise on
/// every power meter, no faults, eight nodes: six hungry from the start
/// and two light for six periods, then hungry.
///
/// Noise makes a hungry node ask a peer by chance: one whose first
/// reading lands more than ε below its cap (about one in four at 5 %)
/// sheds into its own pool and climbs back on that pool, which refills
/// with each low reading, so it never asks within the run. Two hungry
/// nodes of four left no request at 28 of seeds 0..400; with six, every
/// seed of 0..400 sends one.
pub fn noisy_power_scenario(seed: u64) -> Scenario {
    let demands = [hungry(), hungry(), hungry(), ramp()]
        .into_iter()
        .cycle()
        .take(8);
    let mut s = Scenario::new("noisy-power", seed, 10, demands);
    s.cfg.rapl.read_noise_std = 0.05;
    s
}

/// Lossy-network scenario: every peer message (request, grant, ack) is
/// independently dropped with probability `drop_permille / 1000`; no node
/// dies. With the grant escrow/ack layer in place the peer protocol must
/// book exactly zero `lost` power at every period boundary, for any rate.
pub fn lossy_scenario(seed: u64, drop_permille: u16, periods: u64) -> Scenario {
    let name = format!("lossy-{drop_permille}permille");
    // The rate is scripted even when it is zero, so the zero-loss leg of a
    // sweep runs the same code path as the others.
    canned(name, seed, periods, 4)
        .retrying()
        .dropping(drop_permille)
}

/// Full wire-fault scenario: loss plus duplication plus delay-reordering
/// on every link. On the daemon substrate all three legs run on real
/// datagrams through the socket shim; the simulator models the loss leg
/// only. Nothing dies, so `lost` must stay exactly zero and every
/// duplicate delivery must be absorbed idempotently (the engine's seq
/// dedup and acked-floor guards are exactly what this shakes out).
pub fn lossy_wire_scenario(
    seed: u64,
    drop_permille: u16,
    dup_permille: u16,
    jitter_ms: u16,
    periods: u64,
) -> Scenario {
    Scenario {
        name: format!("lossy-wire-{drop_permille}d-{dup_permille}u-{jitter_ms}ms"),
        dup_permille,
        jitter_ms,
        ..lossy_scenario(seed, drop_permille, periods)
    }
}

/// Node-churn scenario: node 1 crashes at the start of period 3 and
/// reboots at the start of period 10, optionally under background message
/// loss. Its cap and pool are retired at the crash; the restart re-admits
/// `min(initial cap, lost)` back out of the lost balance — zero-sum at
/// every consistent cut — with fresh decider/pool state but a persistent
/// sequence namespace, so stale pre-crash grants are discarded, never
/// double-paid.
pub fn churn_scenario(seed: u64, drop_permille: u16, periods: u64) -> Scenario {
    canned(format!("churn-{drop_permille}permille"), seed, periods, 4)
        .fault(3, FaultAction::Kill(NodeId::new(1)))
        .fault(10, FaultAction::Restart(NodeId::new(1)))
        .background_loss(drop_permille)
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
        4,
    )
    .fault(3, split(2))
    .fault(8, FaultAction::Heal)
    .background_loss(drop_permille)
}

/// Asymmetric-partition scenario: node 1 goes deaf (every link towards it
/// cut, its own sends still deliver) from period 3 to period 8. Its
/// requests keep being served while every grant back to it dies on the cut
/// link — the worst case for the escrow layer and for gossip (the victim's
/// suspicions of everyone spread cluster-wide while it is deaf, and must
/// be refuted after the heal).
pub fn asymmetric_partition_scenario(seed: u64, drop_permille: u16, periods: u64) -> Scenario {
    let mut s = canned(
        format!("asymmetric-{drop_permille}permille"),
        seed,
        periods,
        4,
    );
    let victim = NodeId::new(1);
    for peer in [0, 2, 3].map(NodeId::new) {
        s.faults = s
            .faults
            .partition_link_at(at_period(3), peer, victim)
            .heal_link_at(at_period(8), peer, victim);
    }
    s.background_loss(drop_permille)
}

/// Flapping-node scenario: node 1 alternates between fully isolated (both
/// directions) and reachable, one period at a time — isolated in periods
/// 3, 5 and 7, restored for good from period 8. The worst case for
/// suspicion stability: suspicion forms, is refuted by the node's own
/// gossip between flaps, forms again.
pub fn flapping_scenario(seed: u64, periods: u64) -> Scenario {
    let mut s = canned("flapping", seed, periods, 4);
    let victim = NodeId::new(1);
    for q in 3..=9 {
        s.faults = if q < 9 && q % 2 == 1 {
            s.faults.isolate_at(at_period(q), victim, 4)
        } else {
            [0, 2, 3]
                .map(NodeId::new)
                .into_iter()
                .fold(s.faults, |f, peer| {
                    f.heal_link_at(at_period(q), peer, victim).heal_link_at(
                        at_period(q),
                        victim,
                        peer,
                    )
                })
        };
    }
    s.retrying()
}

/// Concurrent churn + partition: the cluster splits 2|2 at period 3,
/// node 1 crashes inside its half at period 4, and at period 9 the split
/// heals and the node reboots in the same period — the rebooted node must
/// come back into an already-healed network, and the kill-last ordering
/// contract keeps the kill leg from racing any same-tick connectivity
/// change. Power retired by the crash is legitimately `lost` until the
/// rebirth re-admits it.
pub fn partition_churn_scenario(seed: u64, periods: u64) -> Scenario {
    canned("partition-churn", seed, periods, 4)
        .fault(3, split(2))
        .fault(4, FaultAction::Kill(NodeId::new(1)))
        .fault(9, FaultAction::Heal)
        .fault(9, FaultAction::Restart(NodeId::new(1)))
        .retrying()
}
