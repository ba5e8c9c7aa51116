//! Extension — performance under node churn (crash *and* rejoin).
//!
//! Figure 3 measures Penelope with a node permanently lost. Real clusters
//! reboot: the crashed node comes back minutes later and must rejoin the
//! peer-to-peer protocol without a coordinator to re-admit it. This
//! experiment runs the Figure-2 matrix with one node killed at 25 % of the
//! Fair runtime and restarted at 50 %, re-admitted at its initial cap out
//! of the lost-power ledger. The metric is *retention*: churned makespan
//! performance as a fraction of the fault-free Penelope run. Timeout-driven
//! suspicion keeps the survivors from burning periods on the dead peer,
//! and the restarted node's urgency path pulls it back toward its fair
//! share, so retention should stay close to 1.

use penelope_metrics::{geometric_mean, TextTable};
use penelope_sim::{ClusterSim, FaultScript, SystemKind};
use penelope_units::{NodeId, SimTime};
use penelope_workload::Profile;

use crate::effort::Effort;
use crate::nominal::{run_cell, PAPER_CAPS_W};
use crate::parallel;
use crate::scenarios::{pair_subset, pair_workloads, paper_cluster_config};

/// One row of the churn table.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnRow {
    /// Initial powercap per socket (watts).
    pub per_socket_cap_w: u64,
    /// Geomean normalized performance, fault-free Penelope.
    pub nominal: f64,
    /// Geomean normalized performance with one node crash/restarted.
    pub churned: f64,
}

/// The whole experiment.
#[derive(Clone, Debug, PartialEq)]
pub struct ChurnResult {
    /// One row per initial cap.
    pub rows: Vec<ChurnRow>,
    /// Overall geomean, fault-free.
    pub overall_nominal: f64,
    /// Overall geomean, churned.
    pub overall_churned: f64,
}

impl ChurnResult {
    /// Churned performance as a fraction of fault-free performance.
    pub(crate) fn retention(&self) -> f64 {
        self.overall_churned / self.overall_nominal
    }

    /// Render the experiment as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["cap/socket", "nominal", "churned"]);
        for r in &self.rows {
            t.row(vec![
                format!("{}W", r.per_socket_cap_w),
                format!("{:.3}", r.nominal),
                format!("{:.3}", r.churned),
            ]);
        }
        t.row(vec![
            "overall".to_string(),
            format!("{:.3}", self.overall_nominal),
            format!("{:.3}", self.overall_churned),
        ]);
        format!(
            "Churn tolerance: crash at 25%, rejoin at 50% of Fair runtime (normalized to Fair)\n{}\
             Performance retained under churn: {:.1}%\n",
            t.render(),
            self.retention() * 100.0
        )
    }
}

/// Run one churned cell: the last node is killed at 25 % of the Fair
/// runtime and restarted at 50 %. Returns the makespan in seconds.
pub(crate) fn run_churn_cell(
    per_socket_cap_w: u64,
    pair: &(Profile, Profile),
    nodes: usize,
    time_scale: f64,
    seed: u64,
    fair_runtime_secs: f64,
) -> f64 {
    let cfg = paper_cluster_config(SystemKind::Penelope, per_socket_cap_w, nodes, seed);
    let workloads = pair_workloads(&pair.0, &pair.1, nodes, time_scale);
    let longest = workloads
        .iter()
        .map(|w| w.nominal_runtime_secs())
        .fold(0.0, f64::max);
    let horizon_secs = longest * 12.0 + 30.0;
    let horizon = SimTime::from_nanos((horizon_secs * 1e9) as u64);
    let kill_at = SimTime::from_nanos((fair_runtime_secs * 0.25 * 1e9) as u64);
    let restart_at = SimTime::from_nanos((fair_runtime_secs * 0.50 * 1e9) as u64);
    let mut sim = ClusterSim::new(cfg, workloads);
    sim.install_faults(&FaultScript::kill_restart(
        NodeId::new(nodes as u32 - 1),
        kill_at,
        restart_at,
    ));
    let report = sim.run(horizon);
    report.runtime_secs().unwrap_or(horizon_secs)
}

/// Run the full churn matrix.
pub fn run(effort: Effort) -> ChurnResult {
    run_with_caps(effort, &PAPER_CAPS_W)
}

/// Run the churn experiment for a custom cap list, parallel across
/// `PENELOPE_JOBS` workers (default: all cores).
pub fn run_with_caps(effort: Effort, caps: &[u64]) -> ChurnResult {
    run_with_caps_jobs(effort, caps, parallel::jobs_from_env())
}

/// Run the churn matrix with an explicit worker count. One fan-out cell
/// per (cap, pair): the Fair reference, the fault-free Penelope run and
/// the churned run share a seed and the kill/restart schedule depends
/// only on the Fair makespan computed inside the same cell, so cells are
/// independent and the parallel matrix is identical to the serial one.
pub(crate) fn run_with_caps_jobs(effort: Effort, caps: &[u64], jobs: usize) -> ChurnResult {
    let pairs = pair_subset(effort.pairs());
    let nodes = effort.cluster_nodes();
    let ts = effort.time_scale();
    let mut cells = Vec::with_capacity(caps.len() * pairs.len());
    for &cap in caps {
        for (pi, pair) in pairs.iter().enumerate() {
            let seed = (cap << 8) ^ pi as u64 ^ 0xC4A2;
            cells.push((cap, pair, seed));
        }
    }
    let outcomes = parallel::par_map_adaptive(jobs, &cells, |&(cap, pair, seed)| {
        let fair = run_cell(SystemKind::Fair, cap, pair, nodes, ts, seed);
        let nominal = run_cell(SystemKind::Penelope, cap, pair, nodes, ts, seed);
        let churned = run_churn_cell(cap, pair, nodes, ts, seed, fair);
        (fair, nominal, churned)
    });

    let mut rows = Vec::with_capacity(caps.len());
    let mut all_nominal = Vec::new();
    let mut all_churned = Vec::new();
    for (ci, &cap) in caps.iter().enumerate() {
        let chunk = &outcomes[ci * pairs.len()..(ci + 1) * pairs.len()];
        let nominal_norm: Vec<f64> = chunk
            .iter()
            .map(|(fair, nominal, _)| fair / nominal)
            .collect();
        let churned_norm: Vec<f64> = chunk
            .iter()
            .map(|(fair, _, churned)| fair / churned)
            .collect();
        all_nominal.extend_from_slice(&nominal_norm);
        all_churned.extend_from_slice(&churned_norm);
        rows.push(ChurnRow {
            per_socket_cap_w: cap,
            nominal: geometric_mean(&nominal_norm),
            churned: geometric_mean(&churned_norm),
        });
    }
    ChurnResult {
        rows,
        overall_nominal: geometric_mean(&all_nominal),
        overall_churned: geometric_mean(&all_churned),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejoin_retains_most_of_the_fault_free_performance() {
        let r = run_with_caps(Effort::Smoke, &[60]);
        assert!(
            r.retention() > 0.5,
            "churned run retained only {:.1}% of fault-free performance",
            r.retention() * 100.0
        );
        assert!(
            r.retention() <= 1.05,
            "churn cannot beat fault-free by more than jitter: {:.3}",
            r.retention()
        );
        assert!(r.render().contains("Churn tolerance"));
    }

    #[test]
    fn parallel_matrix_matches_serial() {
        let serial = run_with_caps_jobs(Effort::Smoke, &[60], 1);
        let parallel = run_with_caps_jobs(Effort::Smoke, &[60], 4);
        assert_eq!(serial, parallel);
    }
}
