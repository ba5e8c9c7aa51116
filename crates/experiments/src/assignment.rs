//! Extension: sensitivity to the initial power assignment (§2.2.1).
//!
//! *Power assignment* is one of the paper's two identifying axes of a power
//! manager. All three evaluated systems start from the even split; this
//! experiment asks how much that choice matters: give the cluster a
//! deliberately *inverted* assignment (hungry nodes get the safe floor,
//! modest nodes get the leftovers) and measure how much of the damage each
//! system undoes. Static Fair is stuck with it; the dynamic systems'
//! shifting — and in particular Penelope's urgency, whose whole purpose is
//! returning nodes to a sane cap — should recover most of the loss.

use penelope_metrics::TextTable;
use penelope_sim::{ClusterSim, SystemKind};
use penelope_units::{Power, SimTime};
use penelope_workload::{npb, Profile};

use crate::effort::Effort;
use crate::scenarios::paper_cluster_config;

/// Runtimes for one system under even vs inverted assignments.
#[derive(Clone, Debug)]
pub struct AssignmentRow {
    /// System label.
    pub system: &'static str,
    /// Makespan with the even split, seconds.
    pub even_secs: f64,
    /// Makespan with the inverted assignment, seconds.
    pub inverted_secs: f64,
}

impl AssignmentRow {
    /// Slowdown caused by the bad assignment, percent.
    pub(crate) fn penalty_pct(&self) -> f64 {
        (self.inverted_secs / self.even_secs - 1.0) * 100.0
    }
}

/// The experiment result.
#[derive(Clone, Debug)]
pub struct AssignmentResult {
    /// One row per system.
    pub rows: Vec<AssignmentRow>,
}

impl AssignmentResult {
    /// Render as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["system", "even split", "inverted", "penalty"]);
        for r in &self.rows {
            t.row(vec![
                r.system.to_string(),
                format!("{:.1}s", r.even_secs),
                format!("{:.1}s", r.inverted_secs),
                format!("{:+.1}%", r.penalty_pct()),
            ]);
        }
        format!(
            "Extension (S2.2.1): sensitivity to the initial power assignment\n{}",
            t.render()
        )
    }

    /// The row for a system.
    pub fn row(&self, system: &str) -> &AssignmentRow {
        self.rows
            .iter()
            .find(|r| r.system == system)
            .expect("system present")
    }
}

/// Run the experiment: half DC (modest), half EP (hungry), 70 W/socket
/// even budget; the inverted assignment gives every EP node the 80 W safe
/// floor and hands the freed watts to the DC nodes.
pub fn run(effort: Effort) -> AssignmentResult {
    let nodes = effort.cluster_nodes();
    let ts = effort.time_scale();
    let workloads: Vec<Profile> = (0..nodes / 2)
        .map(|_| npb::dc().scaled(ts))
        .chain((0..nodes - nodes / 2).map(|_| npb::ep().scaled(ts)))
        .collect();
    let per_node = Power::from_watts_u64(140);
    let floor = Power::from_watts_u64(80);
    // Inverted: EP nodes at the floor; DC nodes absorb the difference
    // (clamped by the 300 W ceiling, which 200 W stays well under).
    let spare_per_hungry = per_node - floor;
    let dc_nodes = nodes / 2;
    let ep_nodes = nodes - dc_nodes;
    let dc_extra = spare_per_hungry.mul_f64(ep_nodes as f64 / dc_nodes as f64);
    let inverted: Vec<Power> = (0..nodes)
        .map(|i| {
            if i < dc_nodes {
                per_node + dc_extra
            } else {
                floor
            }
        })
        .collect();

    let horizon_secs = workloads
        .iter()
        .map(|w| w.nominal_runtime_secs())
        .fold(0.0, f64::max)
        * 20.0
        + 30.0;
    let horizon = SimTime::from_nanos((horizon_secs * 1e9) as u64);

    let mut rows = Vec::new();
    for system in [SystemKind::Fair, SystemKind::Slurm, SystemKind::Penelope] {
        let cfg = paper_cluster_config(system, 70, nodes, 0xA551);
        let even = ClusterSim::new(cfg.clone(), workloads.clone())
            .run(horizon)
            .runtime_secs()
            .unwrap_or(horizon_secs);
        let inv = ClusterSim::with_assignments(cfg, workloads.clone(), inverted.clone())
            .run(horizon)
            .runtime_secs()
            .unwrap_or(horizon_secs);
        rows.push(AssignmentRow {
            system: system.label(),
            even_secs: even,
            inverted_secs: inv,
        });
    }
    AssignmentResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dynamic_systems_recover_from_bad_assignments() {
        let r = run(Effort::Smoke);
        let fair = r.row("Fair");
        let pen = r.row("Penelope");
        let slurm = r.row("SLURM");
        // A bad static assignment hurts Fair badly...
        assert!(
            fair.penalty_pct() > 20.0,
            "inverted assignment barely hurt Fair: {:+.1}%",
            fair.penalty_pct()
        );
        // ...while the dynamic systems shift/urgency their way back.
        assert!(
            pen.penalty_pct() < fair.penalty_pct() / 2.0,
            "Penelope did not recover: {:+.1}% vs Fair {:+.1}%",
            pen.penalty_pct(),
            fair.penalty_pct()
        );
        assert!(
            slurm.penalty_pct() < fair.penalty_pct() / 2.0,
            "SLURM did not recover: {:+.1}% vs Fair {:+.1}%",
            slurm.penalty_pct(),
            fair.penalty_pct()
        );
        assert!(r.render().contains("initial power assignment"));
    }
}
