//! Extension: coordinator faults under back-to-back jobs.
//!
//! §4.4 predicts: "in a generalized environment multiple workloads would
//! run on the same hardware back to back. If these workloads have
//! drastically different power consumption patterns, a failure to SLURM's
//! server could throttle application performance even more than is
//! indicated by our data." This experiment tests that prediction: each node
//! runs a random sequence of NPB jobs, the coordinator dies early, and we
//! measure how the faulty-SLURM penalty scales with the number of jobs per
//! node (more jobs ⇒ more power-pattern changes after the caps froze).

use penelope_metrics::{geometric_mean, TextTable};
use penelope_sim::{ClusterSim, FaultScript, SystemKind};
use penelope_units::{NodeId, SimTime};
use penelope_workload::{synth, Profile};

use crate::effort::Effort;

/// One row: jobs-per-node vs normalized performance of the faulty systems.
#[derive(Clone, Debug)]
pub struct MultiJobRow {
    /// Number of back-to-back jobs each node runs.
    pub jobs_per_node: usize,
    /// Faulty SLURM, normalized to Fair.
    pub slurm_faulty: f64,
    /// Faulty (one client dead) Penelope, normalized to Fair.
    pub penelope_faulty: f64,
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct MultiJobResult {
    /// One row per jobs-per-node setting.
    pub rows: Vec<MultiJobRow>,
}

impl MultiJobResult {
    /// Render as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["jobs/node", "SLURM (faulty)", "Penelope (faulty)"]);
        for r in &self.rows {
            t.row(vec![
                format!("{}", r.jobs_per_node),
                format!("{:.3}", r.slurm_faulty),
                format!("{:.3}", r.penelope_faulty),
            ]);
        }
        format!(
            "Extension (S4.4 prediction): coordinator fault with back-to-back jobs\n{}",
            t.render()
        )
    }
}

fn workloads(nodes: usize, jobs: usize, time_scale: f64, seed: u64) -> Vec<Profile> {
    (0..nodes)
        .map(|i| synth::npb_sequence(seed.wrapping_add(i as u64 * 7919), jobs).scaled(time_scale))
        .collect()
}

fn run_one(
    system: SystemKind,
    profiles: Vec<Profile>,
    per_socket_cap_w: u64,
    fault_at: Option<SimTime>,
    seed: u64,
) -> f64 {
    let nodes = profiles.len();
    let cfg = crate::scenarios::paper_cluster_config(system, per_socket_cap_w, nodes, seed);
    let longest = profiles
        .iter()
        .map(|p| p.nominal_runtime_secs())
        .fold(0.0, f64::max);
    let horizon_secs = longest * 12.0 + 30.0;
    let horizon = SimTime::from_nanos((horizon_secs * 1e9) as u64);
    let mut sim = ClusterSim::new(cfg, profiles);
    if let Some(at) = fault_at {
        match system {
            SystemKind::Slurm => sim.install_faults(&FaultScript::kill_server_at(at)),
            SystemKind::Penelope => sim.install_faults(&FaultScript::kill_node_at(
                at,
                NodeId::new(nodes as u32 - 1),
            )),
            SystemKind::Fair => {}
        }
    }
    sim.run(horizon).runtime_secs().unwrap_or(horizon_secs)
}

/// Sweep jobs-per-node ∈ {1, 2, 4} over several random job assignments.
pub fn run(effort: Effort) -> MultiJobResult {
    let nodes = effort.cluster_nodes();
    let ts = effort.time_scale();
    let repeats = match effort {
        Effort::Smoke => 2,
        Effort::Quick => 4,
        Effort::Full => 8,
    };
    let cap_w = 70u64;
    let mut rows = Vec::new();
    for jobs in [1usize, 2, 4] {
        let mut slurm_norm = Vec::new();
        let mut pen_norm = Vec::new();
        for rep in 0..repeats {
            let seed = (jobs as u64) << 32 | rep as u64;
            let profiles = workloads(nodes, jobs, ts, seed);
            let fair = run_one(SystemKind::Fair, profiles.clone(), cap_w, None, seed);
            let fault_at = SimTime::from_nanos((fair * 0.2 * 1e9) as u64);
            let slurm = run_one(
                SystemKind::Slurm,
                profiles.clone(),
                cap_w,
                Some(fault_at),
                seed,
            );
            let pen = run_one(SystemKind::Penelope, profiles, cap_w, Some(fault_at), seed);
            slurm_norm.push(fair / slurm);
            pen_norm.push(fair / pen);
        }
        rows.push(MultiJobRow {
            jobs_per_node: jobs,
            slurm_faulty: geometric_mean(&slurm_norm),
            penelope_faulty: geometric_mean(&pen_norm),
        });
    }
    MultiJobResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn penelope_stays_ahead_regardless_of_job_count() {
        let r = run(Effort::Smoke);
        assert_eq!(r.rows.len(), 3);
        for row in &r.rows {
            assert!(
                row.penelope_faulty > row.slurm_faulty,
                "at {} jobs: penelope {} !> slurm {}",
                row.jobs_per_node,
                row.penelope_faulty,
                row.slurm_faulty
            );
        }
        assert!(r.render().contains("back-to-back"));
    }
}
