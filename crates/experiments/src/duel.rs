//! The decider duel: urgency vs predictive vs market on identical traces.
//!
//! The `DeciderPolicy` seam makes the tick-time request/shed logic
//! swappable while the shared engine (escrow, suspicion, gossip,
//! seq/epochs) stays fixed. This experiment asks the question that seam
//! exists for: *given the same cluster, the same seeded diurnal workload
//! and the same budget, which policy wins?* Every policy runs on
//! bit-identical inputs — same seed, same [`penelope_workload::diurnal`]
//! profiles, same `ClusterConfig` apart from `decider.policy` — so any
//! difference in the scoreboard is the policy, not the draw.
//!
//! Scored per policy:
//!
//! * **turnaround** — mean request→grant round trip, from the
//!   `RequestSent`/`GrantApplied` event stream (lower is better);
//! * **Jain fairness** — Jain's index over each node's integrated cap
//!   (Σ cap·Δt), from `CapActuated` events (higher is better);
//! * **makespan** — when the last workload finished (lower is better).
//!
//! Non-vacuity evidence rides along: the market leg must actually place
//! bids (`BidPlaced` events) and the predictive leg's jump detector must
//! actually fire on a diurnal swing (`ForecastJump` events); a duel where
//! the challengers silently degenerate to urgency proves nothing.

use std::sync::Arc;

use penelope_core::DeciderPolicy;
use penelope_metrics::{jain_from_events, turnaround_from_events, TextTable};
use penelope_sim::{ClusterSim, SystemKind};
use penelope_trace::{EventKind, RingBufferObserver, SharedObserver};
use penelope_units::SimTime;
use penelope_workload::diurnal::{self, DiurnalConfig};

use crate::effort::Effort;
use crate::scenarios::paper_cluster_config;

/// The three contenders, in fixed report order.
pub fn contenders() -> [DeciderPolicy; 3] {
    [
        DeciderPolicy::Urgency,
        DeciderPolicy::Predictive(Default::default()),
        DeciderPolicy::Market(Default::default()),
    ]
}

/// One policy's scoreboard line.
#[derive(Clone, Debug, PartialEq)]
pub struct DuelEntry {
    /// The policy that produced this line.
    pub policy: DeciderPolicy,
    /// Mean request→grant turnaround in milliseconds (`None`: the run
    /// never completed a request round trip).
    pub mean_turnaround_ms: Option<f64>,
    /// Completed request round trips.
    pub grants: usize,
    /// Fraction of requests that never saw a grant.
    pub unanswered_fraction: f64,
    /// Jain's index over integrated per-node caps (`None`: no caps were
    /// ever actuated, which would mean a broken run).
    pub jain: Option<f64>,
    /// Makespan in seconds (`None`: some workload never finished inside
    /// the horizon).
    pub makespan_secs: Option<f64>,
    /// `BidPlaced` events (non-zero exactly when the market leg bid).
    pub bids: u64,
    /// `ForecastJump` events (the predictive jump detector firing).
    pub forecast_jumps: u64,
}

/// The duel scoreboard: one entry per policy, identical inputs.
#[derive(Clone, Debug, PartialEq)]
pub struct DuelResult {
    /// Scoreboard lines, in [`contenders`] order.
    pub entries: Vec<DuelEntry>,
    /// Cluster size every leg ran at.
    pub nodes: usize,
    /// The shared seed.
    pub seed: u64,
}

impl DuelResult {
    /// The policy with the lowest mean turnaround (entries without one
    /// lose automatically).
    pub fn winner_by_turnaround(&self) -> &DuelEntry {
        self.entries
            .iter()
            .min_by(|a, b| {
                let ka = a.mean_turnaround_ms.unwrap_or(f64::INFINITY);
                let kb = b.mean_turnaround_ms.unwrap_or(f64::INFINITY);
                ka.total_cmp(&kb)
            })
            .expect("non-empty duel")
    }

    /// The policy with the highest Jain index.
    pub fn winner_by_fairness(&self) -> &DuelEntry {
        self.entries
            .iter()
            .max_by(|a, b| {
                let ka = a.jain.unwrap_or(f64::NEG_INFINITY);
                let kb = b.jain.unwrap_or(f64::NEG_INFINITY);
                ka.total_cmp(&kb)
            })
            .expect("non-empty duel")
    }

    /// Render the winner table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec![
            "policy",
            "turnaround (ms)",
            "unanswered",
            "Jain",
            "makespan (s)",
            "bids",
            "jumps",
        ]);
        for e in &self.entries {
            t.row(vec![
                e.policy.name().to_string(),
                e.mean_turnaround_ms
                    .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
                format!("{:.1}%", e.unanswered_fraction * 100.0),
                e.jain.map_or_else(|| "-".into(), |v| format!("{v:.4}")),
                e.makespan_secs
                    .map_or_else(|| "-".into(), |v| format!("{v:.2}")),
                format!("{}", e.bids),
                format!("{}", e.forecast_jumps),
            ]);
        }
        format!(
            "Decider duel ({} nodes, seed {:#x}, identical diurnal workloads)\n{}\nwinner by turnaround: {}   winner by fairness: {}\n",
            self.nodes,
            self.seed,
            t.render(),
            self.winner_by_turnaround().policy.name(),
            self.winner_by_fairness().policy.name(),
        )
    }
}

/// The diurnal workload family one duel runs on, sized by effort: the
/// day is compressed by the effort's time scale so smoke runs stay
/// test-sized while the swing (trough→peak ratio, slots per day) is
/// identical at every effort.
pub fn diurnal_config(effort: Effort, seed: u64) -> DiurnalConfig {
    DiurnalConfig {
        seed,
        day_secs: 60.0 * effort.time_scale(),
        ..DiurnalConfig::default()
    }
}

/// Run one policy leg on the shared inputs and fold its scoreboard line.
pub fn run_policy(policy: DeciderPolicy, effort: Effort, seed: u64) -> DuelEntry {
    let nodes = effort.cluster_nodes();
    let profiles = diurnal::cluster(&diurnal_config(effort, seed), nodes);
    let mut cfg = paper_cluster_config(SystemKind::Penelope, 70, nodes, seed);
    cfg.node.decider.policy = policy;
    let ring = Arc::new(RingBufferObserver::unbounded());
    cfg.observer = SharedObserver::from(ring.clone());

    // Diurnal demand routinely exceeds a 140 W cap, so runs stretch well
    // past nominal; give every policy the same generous horizon.
    let nominal = profiles
        .iter()
        .map(|p| p.nominal_runtime_secs())
        .fold(0.0, f64::max);
    let horizon_secs = nominal * 12.0 + 30.0;
    let horizon = SimTime::from_nanos((horizon_secs * 1e9) as u64);

    let report = ClusterSim::new(cfg, profiles).run(horizon);
    let events = ring.events();
    // Integrate cap shares to when the cluster went quiet, not the padded
    // horizon: after the last workload finishes, caps are static and
    // equalized tails would wash out real mid-run unfairness.
    let share_horizon = report
        .runtime_secs()
        .map_or(horizon, |s| SimTime::from_nanos((s * 1e9) as u64));

    let turnaround = turnaround_from_events(&events);
    let count_kind = |tag: usize| events.iter().filter(|e| e.kind.tag() == tag).count() as u64;
    DuelEntry {
        policy,
        mean_turnaround_ms: turnaround.mean().map(|d| d.as_secs_f64() * 1e3),
        grants: turnaround.count(),
        unanswered_fraction: turnaround.unanswered_fraction(),
        jain: jain_from_events(&events, share_horizon),
        makespan_secs: report.runtime_secs(),
        bids: count_kind(
            EventKind::BidPlaced {
                seq: 0,
                bid: penelope_units::Power::ZERO,
            }
            .tag(),
        ),
        forecast_jumps: count_kind(
            EventKind::ForecastJump {
                forecast: penelope_units::Power::ZERO,
                reading: penelope_units::Power::ZERO,
            }
            .tag(),
        ),
    }
}

/// Run the full duel: every contender on identical seeded inputs.
pub fn run(effort: Effort) -> DuelResult {
    run_seeded(effort, 0x00E1_0DE1)
}

/// [`run`] with an explicit seed (the CI job pins one so the winner table
/// artifact is reproducible).
pub fn run_seeded(effort: Effort, seed: u64) -> DuelResult {
    let entries = contenders()
        .into_iter()
        .map(|p| run_policy(p, effort, seed))
        .collect();
    DuelResult {
        entries,
        nodes: effort.cluster_nodes(),
        seed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duel_runs_all_three_policies_on_identical_inputs() {
        let r = run_seeded(Effort::Smoke, 0xD0E1);
        assert_eq!(r.entries.len(), 3);
        assert_eq!(r.entries[0].policy.name(), "urgency");
        assert_eq!(r.entries[1].policy.name(), "predictive");
        assert_eq!(r.entries[2].policy.name(), "market");
        for e in &r.entries {
            assert!(e.jain.is_some(), "{}: no caps actuated", e.policy.name());
            let j = e.jain.unwrap();
            assert!((0.0..=1.0 + 1e-9).contains(&j), "{j}");
            assert!(e.grants > 0, "{}: no grants completed", e.policy.name());
        }
    }

    #[test]
    fn challenger_legs_are_not_vacuous() {
        // The duel proves nothing if the market never bids or the
        // predictive jump detector never fires on a diurnal swing.
        let r = run_seeded(Effort::Smoke, 0xD0E2);
        let by_name = |n: &str| {
            r.entries
                .iter()
                .find(|e| e.policy.name() == n)
                .expect("entry")
        };
        assert!(by_name("market").bids > 0, "market leg placed no bids");
        assert!(
            by_name("predictive").forecast_jumps > 0,
            "predictive leg never snapped its forecast"
        );
        // And the control legs must stay clean: urgency neither bids nor
        // forecasts.
        assert_eq!(by_name("urgency").bids, 0);
        assert_eq!(by_name("urgency").forecast_jumps, 0);
    }

    #[test]
    fn duel_is_deterministic_in_the_seed() {
        let a = run_seeded(Effort::Smoke, 7);
        let b = run_seeded(Effort::Smoke, 7);
        for (x, y) in a.entries.iter().zip(&b.entries) {
            assert_eq!(x.mean_turnaround_ms, y.mean_turnaround_ms);
            assert_eq!(x.jain, y.jain);
            assert_eq!(x.makespan_secs, y.makespan_secs);
            assert_eq!(x.bids, y.bids);
        }
    }

    #[test]
    fn render_names_a_winner() {
        let r = run_seeded(Effort::Smoke, 0xD0E3);
        let s = r.render();
        assert!(s.contains("winner by turnaround"));
        assert!(s.contains("urgency") && s.contains("predictive") && s.contains("market"));
    }
}
