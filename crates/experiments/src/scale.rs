//! Figures 4–8 — the scale study.
//!
//! The paper fixes the end-of-application scenario (half the cluster goes
//! idle, releasing excess; the other half is hungry) and measures, over all
//! 36 application pairs:
//!
//! * **power redistribution time** — time to shift 50 % (median, Figs. 4 & 6)
//!   and 100 % (total, Fig. 5) of the available excess;
//! * **turnaround time** — how long deciders wait for responses
//!   (Figs. 7 & 8);
//!
//! once against decider frequency at maximum scale (Figs. 4, 5, 7) and once
//! against scale at 1 Hz (Figs. 6, 8). A SLURM run that cannot finish
//! redistributing (dropped packets) reports the experiment runtime as its
//! total time, exactly as the paper does for Fig. 5.

use penelope_metrics::{SummaryStats, TextTable};
use penelope_sim::{ClusterConfig, ClusterSim, RunReport, SystemKind};
use penelope_workload::Profile;

use crate::effort::Effort;
use crate::parallel;
use crate::scenarios::{pair_subset, ScaleScenario};

/// The frequency axis of Figs. 4, 5 and 7 (iterations per second).
pub const PAPER_FREQUENCIES: [f64; 8] = [1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 20.0, 24.0];

/// The scale axis of Figs. 6 and 8 (the paper sweeps 44 → 1056 nodes).
pub const PAPER_SCALES: [usize; 5] = [44, 132, 264, 528, 1056];

/// Measurements for one system at one sweep point, aggregated over pairs.
#[derive(Clone, Debug, PartialEq)]
pub struct SystemPoint {
    /// Median across pairs of the 50 %-redistribution time (seconds).
    pub median_redist_s: f64,
    /// Median across pairs of the 100 %-redistribution time (seconds);
    /// incomplete runs count as the experiment runtime.
    pub total_redist_s: f64,
    /// Mean turnaround across pairs (milliseconds).
    pub turnaround_ms: f64,
    /// Standard deviation of per-pair mean turnaround (milliseconds).
    pub turnaround_std_ms: f64,
    /// Mean fraction of requests that never got a response.
    pub unanswered_frac: f64,
    /// Fraction of pairs whose redistribution completed within the horizon.
    pub completed_frac: f64,
}

/// One sweep point: the x value (frequency in Hz or scale in nodes) and
/// both systems' measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepRow {
    /// Frequency (Hz) or scale (node count), depending on the sweep.
    pub x: f64,
    /// SLURM's aggregate measurements.
    pub slurm: SystemPoint,
    /// Penelope's aggregate measurements.
    pub penelope: SystemPoint,
}

/// Raw per-pair outcome of one run.
#[derive(Clone, Debug, PartialEq)]
pub struct RunOutcome {
    /// Time to shift 50 % of the excess, seconds (`None`: never happened).
    pub median_s: Option<f64>,
    /// Time to shift 100 % of the excess, seconds (`None`: never happened).
    pub total_s: Option<f64>,
    /// Mean request/response turnaround in milliseconds.
    pub turnaround_ms: f64,
    /// Fraction of requests that never received a response.
    pub unanswered: f64,
    /// How long the experiment ran after the donors finished, seconds.
    pub experiment_s: f64,
}

/// Run one (system, scenario) scale point — redistribution tracked from
/// the donors' finish, stopping once it completes — with the scenario's
/// config adjusted by `mutate` first (the ablations' hook).
pub(crate) fn run_scenario(
    system: SystemKind,
    scenario: &ScaleScenario,
    mutate: impl FnOnce(&mut ClusterConfig),
) -> RunReport {
    let mut cfg = scenario.config(system);
    mutate(&mut cfg);
    let epsilon = cfg.node.decider.epsilon;
    let horizon = scenario.horizon();
    let workloads = scenario.workloads(epsilon, horizon);
    let mut sim = ClusterSim::new(cfg, workloads);
    sim.track_redistribution(
        scenario.total_excess(),
        scenario.recipients(),
        scenario.donor_finish,
    );
    sim.stop_when_redistributed();
    sim.run(horizon)
}

/// Run one (system, scenario) scale point and return its raw measurements.
pub fn run_point(system: SystemKind, scenario: &ScaleScenario) -> RunOutcome {
    let report = run_scenario(system, scenario, |_| {});
    let tracker = report.redistribution.as_ref().expect("tracking installed");
    let experiment_s = report
        .ended_at
        .saturating_since(scenario.donor_finish)
        .as_secs_f64();
    RunOutcome {
        median_s: tracker.median_time().map(|d| d.as_secs_f64()),
        total_s: tracker.total_time().map(|d| d.as_secs_f64()),
        turnaround_ms: report
            .turnaround
            .mean()
            .map(|d| d.as_millis_f64())
            .unwrap_or(0.0),
        unanswered: report.turnaround.unanswered_fraction(),
        experiment_s,
    }
}

fn aggregate(outcomes: &[RunOutcome]) -> SystemPoint {
    let medians: Vec<f64> = outcomes
        .iter()
        .map(|o| o.median_s.unwrap_or(o.experiment_s))
        .collect();
    let totals: Vec<f64> = outcomes
        .iter()
        .map(|o| o.total_s.unwrap_or(o.experiment_s))
        .collect();
    let turns: Vec<f64> = outcomes.iter().map(|o| o.turnaround_ms).collect();
    let turn_stats = SummaryStats::from_samples(&turns);
    SystemPoint {
        median_redist_s: SummaryStats::from_samples(&medians).median(),
        total_redist_s: SummaryStats::from_samples(&totals).median(),
        turnaround_ms: turn_stats.mean(),
        turnaround_std_ms: turn_stats.std(),
        unanswered_frac: outcomes.iter().map(|o| o.unanswered).sum::<f64>() / outcomes.len() as f64,
        completed_frac: outcomes.iter().filter(|o| o.total_s.is_some()).count() as f64
            / outcomes.len() as f64,
    }
}

/// One independent simulation cell of a sweep.
struct Cell {
    system: SystemKind,
    scenario: ScaleScenario,
}

/// Run every (point, pair, system) cell of a sweep — fanned out over
/// `jobs` workers — and reassemble rows in axis order. Each cell's seed
/// depends only on its own (nodes, frequency, pair) coordinates, so the
/// result is identical for any worker count.
fn run_sweep(
    pairs: &[(Profile, Profile)],
    points: &[(usize, f64, f64)],
    jobs: usize,
) -> Vec<SweepRow> {
    let mut cells = Vec::with_capacity(points.len() * pairs.len() * 2);
    for &(nodes, frequency_hz, _) in points {
        for (pi, (a, b)) in pairs.iter().enumerate() {
            let seed = (nodes as u64) << 20 | (frequency_hz as u64) << 8 | pi as u64;
            let scenario = ScaleScenario::for_pair(a, b, nodes, frequency_hz, seed);
            cells.push(Cell {
                system: SystemKind::Slurm,
                scenario: scenario.clone(),
            });
            cells.push(Cell {
                system: SystemKind::Penelope,
                scenario,
            });
        }
    }
    let outcomes = parallel::par_map_adaptive(jobs, &cells, |c| run_point(c.system, &c.scenario));
    let per_row = pairs.len() * 2;
    points
        .iter()
        .enumerate()
        .map(|(ri, &(_, _, x))| {
            let chunk = &outcomes[ri * per_row..(ri + 1) * per_row];
            let slurm: Vec<RunOutcome> = chunk.iter().step_by(2).cloned().collect();
            let penelope: Vec<RunOutcome> = chunk.iter().skip(1).step_by(2).cloned().collect();
            SweepRow {
                x,
                slurm: aggregate(&slurm),
                penelope: aggregate(&penelope),
            }
        })
        .collect()
}

/// Figs. 4/5/7 with an explicit worker count: sweep decider frequency at
/// the effort's maximum scale, cells fanned out over `jobs` workers.
pub(crate) fn frequency_sweep_with_jobs(
    effort: Effort,
    frequencies: &[f64],
    jobs: usize,
) -> Vec<SweepRow> {
    let pairs = pair_subset(effort.pairs());
    let nodes = effort.max_scale_nodes();
    let points: Vec<(usize, f64, f64)> = frequencies.iter().map(|&f| (nodes, f, f)).collect();
    run_sweep(&pairs, &points, jobs)
}

/// Figs. 4/5/7: sweep decider frequency at the effort's maximum scale,
/// parallel across `PENELOPE_JOBS` workers (default: all cores).
pub fn frequency_sweep(effort: Effort, frequencies: &[f64]) -> Vec<SweepRow> {
    frequency_sweep_with_jobs(effort, frequencies, parallel::jobs_from_env())
}

/// Figs. 6/8 with an explicit worker count: sweep scale at 1 iteration
/// per second, cells fanned out over `jobs` workers.
pub(crate) fn scale_sweep_with_jobs(
    effort: Effort,
    scales: &[usize],
    jobs: usize,
) -> Vec<SweepRow> {
    let pairs = pair_subset(effort.pairs());
    let points: Vec<(usize, f64, f64)> = scales
        .iter()
        .map(|&n| {
            let n = if n % 2 == 0 { n } else { n + 1 };
            (n, 1.0, n as f64)
        })
        .collect();
    run_sweep(&pairs, &points, jobs)
}

/// Figs. 6/8: sweep scale at 1 iteration per second, parallel across
/// `PENELOPE_JOBS` workers (default: all cores).
pub fn scale_sweep(effort: Effort, scales: &[usize]) -> Vec<SweepRow> {
    scale_sweep_with_jobs(effort, scales, parallel::jobs_from_env())
}

fn render_series(
    title: &str,
    x_label: &str,
    rows: &[SweepRow],
    pick: impl Fn(&SystemPoint) -> String,
) -> String {
    let mut t = TextTable::new(vec![x_label, "SLURM", "Penelope"]);
    for r in rows {
        t.row(vec![format!("{}", r.x), pick(&r.slurm), pick(&r.penelope)]);
    }
    format!("{title}\n{}", t.render())
}

/// Fig. 4: median redistribution time (s) vs frequency.
pub fn render_fig4(rows: &[SweepRow]) -> String {
    render_series(
        "Figure 4: median redistribution time (s) vs decider frequency (Hz)",
        "freq",
        rows,
        |p| format!("{:.2}", p.median_redist_s),
    )
}

/// Fig. 5: total redistribution time (s) vs frequency, with completion rate.
pub fn render_fig5(rows: &[SweepRow]) -> String {
    render_series(
        "Figure 5: total redistribution time (s) vs decider frequency (Hz) \
         [incomplete runs count as experiment runtime]",
        "freq",
        rows,
        |p| {
            format!(
                "{:.2} ({:.0}% complete)",
                p.total_redist_s,
                p.completed_frac * 100.0
            )
        },
    )
}

/// Fig. 6: median redistribution time (s) vs scale.
pub fn render_fig6(rows: &[SweepRow]) -> String {
    render_series(
        "Figure 6: median redistribution time (s) vs scale (nodes)",
        "nodes",
        rows,
        |p| format!("{:.2}", p.median_redist_s),
    )
}

/// Fig. 7: mean turnaround time (ms) vs frequency.
pub fn render_fig7(rows: &[SweepRow]) -> String {
    render_series(
        "Figure 7: mean turnaround time (ms) vs decider frequency (Hz)",
        "freq",
        rows,
        |p| {
            format!(
                "{:.3} +/-{:.3} (lost {:.0}%)",
                p.turnaround_ms,
                p.turnaround_std_ms,
                p.unanswered_frac * 100.0
            )
        },
    )
}

/// Fig. 8: mean turnaround time (ms) vs scale.
pub fn render_fig8(rows: &[SweepRow]) -> String {
    render_series(
        "Figure 8: mean turnaround time (ms) vs scale (nodes)",
        "nodes",
        rows,
        |p| format!("{:.3} +/-{:.3}", p.turnaround_ms, p.turnaround_std_ms),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frequency_sweep_shapes() {
        // Smoke effort, two frequencies. Expect the paper's qualitative
        // shapes even at small scale:
        //  - Penelope's median redistribution time improves with frequency;
        //  - Penelope stays complete (100 % of pairs redistribute).
        let rows = frequency_sweep(Effort::Smoke, &[1.0, 8.0]);
        assert_eq!(rows.len(), 2);
        let (lo, hi) = (&rows[0], &rows[1]);
        assert!(
            hi.penelope.median_redist_s < lo.penelope.median_redist_s,
            "Penelope did not speed up with frequency: {} -> {}",
            lo.penelope.median_redist_s,
            hi.penelope.median_redist_s
        );
        assert!(lo.penelope.completed_frac > 0.9);
        assert!(lo.slurm.completed_frac > 0.9);
        // At low scale/frequency SLURM's central cache redistributes faster
        // (§3.3: centralized converges faster when not a bottleneck).
        assert!(lo.slurm.median_redist_s <= lo.penelope.median_redist_s);
    }

    #[test]
    fn turnaround_grows_with_scale_for_slurm_only() {
        // SLURM turnaround grows with scale — the synchronized request
        // burst queues at the serial server once the burst outpaces what
        // the server can drain inside the launch-jitter window (~330
        // requests), so the effect appears between ~264 and 1056 nodes.
        // Penelope's stays flat: the same load is spread over all pools.
        use crate::scenarios::ScaleScenario;
        use penelope_workload::npb;
        let measure = |n: usize| {
            let sc = ScaleScenario::for_pair(&npb::bt(), &npb::ep(), n, 1.0, 7);
            (
                run_point(SystemKind::Slurm, &sc).turnaround_ms,
                run_point(SystemKind::Penelope, &sc).turnaround_ms,
            )
        };
        let (slurm_small, pen_small) = measure(264);
        let (slurm_large, pen_large) = measure(1056);
        assert!(
            slurm_large > slurm_small * 3.0,
            "SLURM turnaround did not grow with scale: {slurm_small} -> {slurm_large} ms"
        );
        let pen_growth = pen_large / pen_small;
        assert!(
            pen_growth < 1.5,
            "Penelope turnaround grew with scale: {pen_small} -> {pen_large} ms"
        );
    }

    #[test]
    fn parallel_sweep_matches_serial_bitwise() {
        // The conformance contract of the parallel engine: for a fixed
        // seed formula, the fanned-out sweep produces exactly the rows the
        // serial sweep does — f64-equal on every aggregated metric.
        let serial = frequency_sweep_with_jobs(Effort::Smoke, &[1.0, 8.0], 1);
        let parallel = frequency_sweep_with_jobs(Effort::Smoke, &[1.0, 8.0], 4);
        assert_eq!(serial.len(), 2);
        assert_eq!(serial, parallel);

        let serial = scale_sweep_with_jobs(Effort::Smoke, &[32, 64], 1);
        let parallel = scale_sweep_with_jobs(Effort::Smoke, &[32, 64], 3);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn renderers_produce_all_series() {
        let rows = scale_sweep(Effort::Smoke, &[32, 96]);
        assert_eq!(rows.len(), 2);
        assert!(render_fig4(&rows).contains("Figure 4"));
        assert!(render_fig5(&rows).contains("Figure 5"));
        assert!(render_fig6(&rows).contains("Figure 6"));
        assert!(render_fig7(&rows).contains("Figure 7"));
        assert!(render_fig8(&rows).contains("Figure 8"));
        // Small smoke clusters must still fully redistribute.
        assert!(rows[0].penelope.completed_frac > 0.9);
        assert!(rows[0].slurm.completed_frac > 0.9);
    }
}
