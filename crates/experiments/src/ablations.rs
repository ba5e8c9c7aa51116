//! Ablations of Penelope's design choices (the studies DESIGN.md calls out).
//!
//! 1. **Transaction limiter** (§3.2): the 10 %/1 W/30 W limiter vs an
//!    unlimited pool vs a fixed 5 W grant — hoarding and power oscillation
//!    vs redistribution speed.
//! 2. **Urgency** (§3): recovery time of a node that donated power and then
//!    becomes hungry, with urgency on vs off.
//! 3. **Power discovery** (§3.1): uniformly random peer choice vs a
//!    deterministic round-robin sweep vs gossip hints.
//! 4. **Decider synchronization**: SLURM server turnaround under 0 / 30 ms /
//!    200 ms launch jitter at scale.
//! 5. **Excess-shedding margin**: Algorithm 1's `C = P` vs parking at
//!    `P + ε` — the oscillation/utilization trade-off.
//!
//! Reachable as `cargo run --release --example paper -- ablations`.

use penelope_core::PoolConfig;
use penelope_metrics::TextTable;
use penelope_sim::{ClusterConfig, ClusterSim, DiscoveryStrategy, SystemKind};
use penelope_units::{Power, SimDuration, SimTime};
use penelope_workload::{npb, PerfModel, Phase, Profile};

use crate::effort::Effort;
use crate::scale::run_scenario;
use crate::scenarios::ScaleScenario;

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

/// The five ablations, rendered, plus the one pair of numbers a test can
/// hold them to.
#[derive(Clone, Debug)]
pub struct AblationsResult {
    /// One rendered table (with the reading it supports) per ablation, in
    /// the order of the module docs.
    pub tables: [String; 5],
    /// Ablation 2: finish time of the donor-turned-hungry node, seconds,
    /// with urgency enabled (infinite: never finished).
    pub urgency_on_s: f64,
    /// The same with urgency disabled.
    pub urgency_off_s: f64,
}

impl AblationsResult {
    /// All five tables, a blank line between them.
    pub fn render(&self) -> String {
        self.tables.join("\n")
    }
}

fn fmt_opt(v: Option<f64>) -> String {
    v.map_or_else(|| "-".into(), |x| format!("{x:.2}s"))
}

/// One Penelope run of the BT/EP scale scenario with a mutated config:
/// `[median, total, messages, cap reversals/tick]` as table cells.
fn scale_arm(nodes: usize, mutate: impl FnOnce(&mut ClusterConfig)) -> [String; 4] {
    let scenario = ScaleScenario::for_pair(&npb::bt(), &npb::ep(), nodes, 1.0, 3);
    let report = run_scenario(SystemKind::Penelope, &scenario, mutate);
    let tracker = report.redistribution.as_ref().expect("tracking installed");
    [
        fmt_opt(tracker.median_time().map(|d| d.as_secs_f64())),
        fmt_opt(tracker.total_time().map(|d| d.as_secs_f64())),
        report.net.delivered.to_string(),
        format!("{:.4}", report.oscillation.reversal_rate()),
    ]
}

fn limiter(nodes: usize) -> String {
    let mut t = TextTable::new(vec![
        "limiter",
        "median",
        "total",
        "messages",
        "cap reversals/tick",
    ]);
    for (label, pool) in [
        ("10%/1W/30W (paper)", PoolConfig::default()),
        ("unlimited", PoolConfig::unlimited()),
        ("fixed 5W", PoolConfig::fixed(w(5))),
    ] {
        let [median, total, messages, reversals] = scale_arm(nodes, |c| c.node.pool = pool);
        t.row(vec![label.to_string(), median, total, messages, reversals]);
    }
    format!(
        "Ablation 1: pool transaction limiter ({nodes} nodes, 1 Hz)\n{}\
         unlimited grants move power fastest but let single nodes hoard the\n\
         whole pool (and oscillate); tiny fixed grants crawl. The paper's\n\
         clamped-percentage limiter sits between (S3.2).\n",
        t.render()
    )
}

/// A node donates for 20 s (demand 90 W), then needs 240 W; its partner is
/// greedy throughout. Without urgency the phase change strands it at the
/// safe floor. Returns the phased node's finish time in seconds.
fn urgency_arm(enable_urgency: bool) -> f64 {
    let perf = PerfModel::new(w(60), 1.0);
    let phased = Profile::new(
        "phased",
        vec![Phase::new(w(90), 20.0), Phase::new(w(240), 30.0)],
        perf,
    );
    let greedy = Profile::new("greedy", vec![Phase::new(w(250), 500.0)], perf);
    let mut cfg = ClusterConfig::paper_defaults(SystemKind::Penelope, w(320));
    cfg.node.decider.enable_urgency = enable_urgency;
    cfg.rapl.actuation_delay = SimDuration::ZERO;
    cfg.management_overhead = 0.0;
    let report = ClusterSim::new(cfg, vec![phased, greedy]).run(SimTime::from_secs(2000));
    report.finished[0].map_or(f64::INFINITY, |t| t.as_secs_f64())
}

fn urgency(on_s: f64, off_s: f64) -> String {
    let mut t = TextTable::new(vec!["urgency", "phased node finish"]);
    t.row(vec!["enabled (paper)".to_string(), format!("{on_s:.1}s")]);
    t.row(vec!["disabled".to_string(), format!("{off_s:.1}s")]);
    format!(
        "Ablation 2: distributed urgency (donor turns hungry mid-run)\n{}\
         urgency lets a node that gave power away reclaim its initial cap\n\
         instead of crawling at whatever it can win 1W at a time (S3).\n",
        t.render()
    )
}

fn discovery(nodes: usize) -> String {
    let mut t = TextTable::new(vec!["discovery", "median", "total"]);
    for (label, strategy) in [
        ("uniform random (paper)", DiscoveryStrategy::UniformRandom),
        ("round robin", DiscoveryStrategy::RoundRobin),
        (
            "gossip hints (ext.)",
            DiscoveryStrategy::GossipHint { explore: 0.2 },
        ),
    ] {
        let [median, total, ..] = scale_arm(nodes, |c| c.discovery = strategy);
        t.row(vec![label.to_string(), median, total]);
    }
    format!(
        "Ablation 3: power discovery strategy ({nodes} nodes, 1 Hz)\n{}",
        t.render()
    )
}

fn jitter(nodes: usize) -> String {
    let scenario = ScaleScenario::for_pair(&npb::bt(), &npb::ep(), nodes, 1.0, 9);
    let mut t = TextTable::new(vec!["launch jitter", "SLURM turnaround"]);
    for (label, jitter_ms) in [
        ("0ms (lockstep)", 0u64),
        ("30ms (paper-like)", 30),
        ("200ms (spread)", 200),
    ] {
        let report = run_scenario(SystemKind::Slurm, &scenario, |c| {
            c.tick_jitter = SimDuration::from_millis(jitter_ms)
        });
        let turnaround = report
            .turnaround
            .mean()
            .map_or_else(|| "-".into(), |d| format!("{:.3}ms", d.as_millis_f64()));
        t.row(vec![label.to_string(), turnaround]);
    }
    format!(
        "Ablation 4: decider synchronization vs SLURM server load ({nodes} nodes, 1 Hz)\n{}\
         synchronized decider rounds are what queue up at the serial server;\n\
         spreading phases hides the bottleneck until frequency rises (S4.5).\n",
        t.render()
    )
}

/// The oscillation lives on nodes whose demand sits *under* their cap: a
/// flat 120 W workload on a 160 W share releases, reclassifies as hungry
/// (`C = P`), claws power back, and releases again. Measure both the cap
/// churn and the peer traffic it generates.
fn shed_margin() -> String {
    let mut t = TextTable::new(vec!["shed headroom", "cap reversals/tick", "messages"]);
    for (label, headroom) in [("0 (Alg. 1 verbatim)", Power::ZERO), ("epsilon (5W)", w(5))] {
        let perf = PerfModel::new(w(60), 1.0);
        let workloads: Vec<Profile> = (0..8)
            .map(|i| Profile::new(format!("flat{i}"), vec![Phase::new(w(120), 60.0)], perf))
            .collect();
        let mut cfg = ClusterConfig::paper_defaults(SystemKind::Penelope, w(8 * 160));
        cfg.node.decider.shed_headroom = headroom;
        cfg.rapl.actuation_delay = SimDuration::ZERO;
        cfg.management_overhead = 0.0;
        let report = ClusterSim::new(cfg, workloads).run(SimTime::from_secs(400));
        t.row(vec![
            label.to_string(),
            format!("{:.4}", report.oscillation.reversal_rate()),
            report.net.offered().to_string(),
        ]);
    }
    format!(
        "Ablation 5: excess-shedding margin (8 flat under-demand nodes)\n{}\
         capping exactly at the reading (C = P) leaves every donor classified\n\
         power-hungry next tick, producing the release/reclaim dance; parking\n\
         at the margin trades a little utilization for a quiet cap.\n",
        t.render()
    )
}

/// Run all five ablations. Effort sizes the scale-scenario clusters
/// (jitter at the effort's maximum scale, limiter and discovery at up to
/// 264 nodes); the urgency and shed-margin runs are small and fixed.
pub fn run(effort: Effort) -> AblationsResult {
    let jitter_nodes = effort.max_scale_nodes();
    let scale_nodes = jitter_nodes.min(264);
    let urgency_on_s = urgency_arm(true);
    let urgency_off_s = urgency_arm(false);
    AblationsResult {
        tables: [
            limiter(scale_nodes),
            urgency(urgency_on_s, urgency_off_s),
            discovery(scale_nodes),
            jitter(jitter_nodes),
            shed_margin(),
        ],
        urgency_on_s,
        urgency_off_s,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn five_tables_and_urgency_recovers_no_slower() {
        let r = run(Effort::Smoke);
        for (i, table) in r.tables.iter().enumerate() {
            assert!(
                table.starts_with(&format!("Ablation {}:", i + 1)) && table.lines().count() >= 4,
                "{table}"
            );
        }
        assert!(
            r.urgency_on_s.is_finite() && r.urgency_on_s <= r.urgency_off_s,
            "urgency on {} s vs off {} s",
            r.urgency_on_s,
            r.urgency_off_s
        );
    }
}
