//! Figure 2 — performance under nominal conditions.
//!
//! All three systems run every application pair at each initial powercap
//! (60–100 W per socket); SLURM and Penelope performance (`1/runtime`) is
//! normalized to Fair and aggregated across pairs by geometric mean (§4.3).
//! The paper's headline: the two dynamic systems are nearly equivalent,
//! SLURM ahead by only ~1.8 % on average and never more than 3 %.

use penelope_metrics::{geometric_mean, TextTable};
use penelope_sim::{ClusterSim, SystemKind};
use penelope_units::SimTime;
use penelope_workload::Profile;

use crate::effort::Effort;
use crate::parallel;
use crate::scenarios::{pair_subset, pair_workloads, paper_cluster_config};

/// The per-socket caps the paper sweeps (§4.3).
pub(crate) const PAPER_CAPS_W: [u64; 5] = [60, 70, 80, 90, 100];

/// One row of Figure 2: geometric-mean normalized performance per system at
/// one initial cap.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2Row {
    /// Initial powercap per socket (watts).
    pub per_socket_cap_w: u64,
    /// SLURM's geomean normalized performance (Fair = 1.0).
    pub slurm: f64,
    /// Penelope's geomean normalized performance.
    pub penelope: f64,
}

/// The whole figure: per-cap rows plus the across-everything geomean.
#[derive(Clone, Debug, PartialEq)]
pub struct Fig2Result {
    /// One row per initial cap.
    pub rows: Vec<Fig2Row>,
    /// Geomean across all pairs and caps, SLURM.
    pub overall_slurm: f64,
    /// Geomean across all pairs and caps, Penelope.
    pub overall_penelope: f64,
}

impl Fig2Result {
    /// SLURM's mean advantage over Penelope, percent (paper: ≈1.8 %).
    pub fn slurm_advantage_pct(&self) -> f64 {
        (self.overall_slurm / self.overall_penelope - 1.0) * 100.0
    }

    /// Render the figure as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(vec!["cap/socket", "SLURM", "Penelope"]);
        for r in &self.rows {
            t.row(vec![
                format!("{}W", r.per_socket_cap_w),
                format!("{:.3}", r.slurm),
                format!("{:.3}", r.penelope),
            ]);
        }
        t.row(vec![
            "overall".to_string(),
            format!("{:.3}", self.overall_slurm),
            format!("{:.3}", self.overall_penelope),
        ]);
        format!(
            "Figure 2: performance under nominal conditions (normalized to Fair)\n{}\
             SLURM advantage over Penelope: {:+.2}%\n",
            t.render(),
            self.slurm_advantage_pct()
        )
    }
}

/// Run one (system, cap, pair) cell and return the makespan in seconds
/// (the horizon when the run stalled).
pub fn run_cell(
    system: SystemKind,
    per_socket_cap_w: u64,
    pair: &(Profile, Profile),
    nodes: usize,
    time_scale: f64,
    seed: u64,
) -> f64 {
    let cfg = paper_cluster_config(system, per_socket_cap_w, nodes, seed);
    let workloads = pair_workloads(&pair.0, &pair.1, nodes, time_scale);
    // Generous horizon: the slowest app under the tightest cap stretches by
    // a few ×; anything beyond this is a stall and reported as the horizon.
    let longest = workloads
        .iter()
        .map(|w| w.nominal_runtime_secs())
        .fold(0.0, f64::max);
    let horizon_secs = longest * 8.0 + 30.0;
    let horizon = SimTime::from_nanos((horizon_secs * 1e9) as u64);
    let report = ClusterSim::new(cfg, workloads).run(horizon);
    report.runtime_secs().unwrap_or(horizon_secs)
}

/// Run the full Figure 2 matrix at the given effort.
pub fn run(effort: Effort) -> Fig2Result {
    run_with_caps(effort, &PAPER_CAPS_W)
}

/// Run Figure 2 for a custom cap list (used by tests),
/// parallel across `PENELOPE_JOBS` workers (default: all cores).
pub fn run_with_caps(effort: Effort, caps: &[u64]) -> Fig2Result {
    run_with_caps_jobs(effort, caps, parallel::jobs_from_env())
}

/// Run Figure 2 with an explicit worker count. Every (system, cap, pair)
/// cell is independent (its seed depends only on the cap and pair index),
/// so the fanned-out matrix is identical to the serial one.
pub(crate) fn run_with_caps_jobs(effort: Effort, caps: &[u64], jobs: usize) -> Fig2Result {
    const SYSTEMS: [SystemKind; 3] = [SystemKind::Fair, SystemKind::Slurm, SystemKind::Penelope];
    let pairs = pair_subset(effort.pairs());
    let nodes = effort.cluster_nodes();
    let ts = effort.time_scale();
    let mut cells = Vec::with_capacity(caps.len() * pairs.len() * SYSTEMS.len());
    for &cap in caps {
        for (pi, pair) in pairs.iter().enumerate() {
            let seed = (cap << 8) ^ pi as u64;
            for system in SYSTEMS {
                cells.push((system, cap, pair, seed));
            }
        }
    }
    let runtimes = parallel::par_map_adaptive(jobs, &cells, |&(system, cap, pair, seed)| {
        run_cell(system, cap, pair, nodes, ts, seed)
    });

    let mut rows = Vec::with_capacity(caps.len());
    let mut all_slurm = Vec::new();
    let mut all_pen = Vec::new();
    let per_cap = pairs.len() * SYSTEMS.len();
    for (ci, &cap) in caps.iter().enumerate() {
        let chunk = &runtimes[ci * per_cap..(ci + 1) * per_cap];
        let mut slurm_norm = Vec::with_capacity(pairs.len());
        let mut pen_norm = Vec::with_capacity(pairs.len());
        for pi in 0..pairs.len() {
            let fair = chunk[pi * SYSTEMS.len()];
            let slurm = chunk[pi * SYSTEMS.len() + 1];
            let pen = chunk[pi * SYSTEMS.len() + 2];
            slurm_norm.push(fair / slurm);
            pen_norm.push(fair / pen);
        }
        all_slurm.extend_from_slice(&slurm_norm);
        all_pen.extend_from_slice(&pen_norm);
        rows.push(Fig2Row {
            per_socket_cap_w: cap,
            slurm: geometric_mean(&slurm_norm),
            penelope: geometric_mean(&pen_norm),
        });
    }
    Fig2Result {
        rows,
        overall_slurm: geometric_mean(&all_slurm),
        overall_penelope: geometric_mean(&all_pen),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_matrix_has_paper_shape() {
        // Two caps, smoke effort: dynamic systems at or above Fair under
        // the tight cap, and SLURM ≈ Penelope.
        let r = run_with_caps(Effort::Smoke, &[60, 100]);
        assert_eq!(r.rows.len(), 2);
        let tight = &r.rows[0];
        assert!(
            tight.penelope > 1.0,
            "Penelope below Fair under a tight cap: {}",
            tight.penelope
        );
        assert!(
            tight.slurm > 1.0,
            "SLURM below Fair under a tight cap: {}",
            tight.slurm
        );
        // Near-equivalence: within ±8 % of each other even at smoke effort.
        assert!(
            r.slurm_advantage_pct().abs() < 8.0,
            "advantage {}%",
            r.slurm_advantage_pct()
        );
        let rendered = r.render();
        assert!(rendered.contains("Figure 2"));
        assert!(rendered.contains("overall"));
    }

    #[test]
    fn parallel_matrix_matches_serial() {
        let serial = run_with_caps_jobs(Effort::Smoke, &[80], 1);
        let parallel = run_with_caps_jobs(Effort::Smoke, &[80], 4);
        assert_eq!(serial, parallel);
    }
}
