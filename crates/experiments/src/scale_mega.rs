//! The mega-scale sweep: sharded runs at 10^5–10^7 nodes.
//!
//! The paper's scale study (§4.5) stops at 1056 simulated nodes because
//! the straight-line simulator walks every node every protocol period.
//! This sweep drives the sharded engine ([`ShardedSim`]) instead, whose
//! quiescent-tick elision makes the per-period cost proportional to the
//! *active* minority only, and sweeps node counts two to four orders of
//! magnitude beyond the paper. Memory tracks the active minority too: a
//! donor nothing is sent to owns no engine (`engines built` in the table).
//!
//! Each cell is one [`ShardedConfig::mega`] scenario: a 1-in-64 hungry
//! minority sustains request/grant/ack traffic against a donor majority
//! that sheds once and quiesces at the margin. Cells derive their seeds
//! from their position in the axis, so the sweep is deterministic; the
//! sharded schedule is shard-count and thread-count invariant by
//! construction, so the shard count picked per cell changes no row.
//! Reachable as `cargo run --release --example paper -- mega`.

use penelope_metrics::TextTable;
use penelope_sim::{ShardReport, ShardedConfig, ShardedSim};

use crate::effort::Effort;
use crate::parallel;

/// Master seed the sweep derives per-cell seeds from.
pub(crate) const MEGA_SEED: u64 = 0x4d45_4741; // "MEGA"

/// The node-count axis for one effort preset. Smoke (CI) stops at 10^5;
/// the full preset reaches the 10^6-node headline point and a 10^7-node
/// cell (2.2 GiB and under a minute on a 2-core host).
pub(crate) fn node_axis(effort: Effort) -> Vec<usize> {
    match effort {
        Effort::Smoke => vec![100_000],
        Effort::Quick => vec![100_000, 300_000],
        Effort::Full => vec![100_000, 300_000, 1_000_000, 10_000_000],
    }
}

/// Protocol periods simulated per cell. Enough to amortize the one-off
/// engine construction cost and reach the drained-pool steady state.
pub(crate) fn periods(effort: Effort) -> u64 {
    match effort {
        Effort::Smoke => 250,
        Effort::Quick => 250,
        Effort::Full => 300,
    }
}

/// One sweep point: a node count and the sharded run's report.
#[derive(Clone, Debug, PartialEq)]
pub struct MegaRow {
    /// Cluster size of this cell.
    pub n_nodes: usize,
    /// Shards the run was partitioned into.
    pub shards: usize,
    /// Events the engine actually executed (ticks, deliveries, expiries).
    pub executed_events: u64,
    /// Provably-idle ticks elided (still protocol work, done in O(1)).
    pub elided_ticks: u64,
    /// Peer messages delivered.
    pub messages: u64,
    /// Drain rounds, each a barrier across the shards.
    pub rounds: u64,
    /// Nodes that ever owned an engine: the hungry minority and the donors
    /// something was sent to.
    pub engines_built: usize,
    /// Polynomial over node order of every node's input digest and final
    /// state; equal across shard counts and thread counts for the same
    /// seed.
    pub fingerprint: u64,
}

/// Build the cell configuration for axis point `i` at `n_nodes`.
///
/// One shard per 32 768 nodes (at least 2, at most 16) — enough
/// partitioning that even the smoke point exercises the cross-shard
/// exchange path, without drowning small cells in barrier overhead.
pub(crate) fn cell_config(effort: Effort, i: usize, n_nodes: usize) -> ShardedConfig {
    let mut cfg = ShardedConfig::mega(n_nodes, periods(effort), MEGA_SEED ^ (i as u64) << 32);
    cfg.shards = (n_nodes / 32_768).clamp(2, 16).min(n_nodes);
    cfg
}

fn run_cell(effort: Effort, i: usize, n_nodes: usize) -> MegaRow {
    let report: ShardReport = ShardedSim::new(cell_config(effort, i, n_nodes)).run();
    assert!(
        report.conservation_ok,
        "mega cell n={n_nodes} violated power conservation"
    );
    MegaRow {
        n_nodes,
        shards: report.shards,
        executed_events: report.executed_events,
        elided_ticks: report.elided_ticks,
        messages: report.messages,
        rounds: report.rounds,
        engines_built: report.engines_built,
        fingerprint: report.fingerprint,
    }
}

/// Run the mega sweep over `nodes` with an explicit cell worker count.
///
/// `jobs` parallelizes *cells*; within a cell the sharded engine runs
/// serially (its own `jobs` stays 1) so the two layers of parallelism
/// never nest. Rows are bit-identical for every `jobs` value.
pub(crate) fn mega_sweep_with_jobs(effort: Effort, nodes: &[usize], jobs: usize) -> Vec<MegaRow> {
    let cells: Vec<(usize, usize)> = nodes.iter().copied().enumerate().collect();
    parallel::par_map(jobs, &cells, |&(i, n)| run_cell(effort, i, n))
}

/// Run the mega sweep over the effort's `node_axis` with the worker
/// count from `PENELOPE_JOBS`.
pub fn run(effort: Effort) -> Vec<MegaRow> {
    mega_sweep_with_jobs(effort, &node_axis(effort), parallel::jobs_from_env())
}

/// The sweep as a table, one line per node count.
pub fn render(rows: &[MegaRow]) -> String {
    let mut t = TextTable::new(vec![
        "nodes",
        "shards",
        "executed events",
        "elided ticks",
        "messages",
        "rounds",
        "engines built",
        "fingerprint",
    ]);
    for r in rows {
        t.row(vec![
            r.n_nodes.to_string(),
            r.shards.to_string(),
            r.executed_events.to_string(),
            r.elided_ticks.to_string(),
            r.messages.to_string(),
            r.rounds.to_string(),
            r.engines_built.to_string(),
            format!("{:016x}", r.fingerprint),
        ]);
    }
    format!(
        "Mega-scale sweep: sharded engine, 1-in-64 hungry minority\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    // Small axis so the suite stays fast; the real 10^5+ points run from
    // `paper -- mega`.
    const TEST_NODES: [usize; 2] = [2_048, 4_096];

    #[test]
    fn mega_sweep_rows_conserve_and_mostly_elide() {
        let rows = mega_sweep_with_jobs(Effort::Smoke, &TEST_NODES, 1);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            // The donor majority (63 of every 64 nodes) must be elided
            // most of the time or the scaling story is broken.
            let slots = row.n_nodes as u64 * periods(Effort::Smoke);
            assert!(
                row.elided_ticks > slots / 2,
                "n={}: only {} of {} tick slots elided",
                row.n_nodes,
                row.elided_ticks,
                slots
            );
            assert!(row.messages > 0, "n={}: no protocol traffic", row.n_nodes);
            assert!(
                row.executed_events + row.elided_ticks >= slots,
                "every node ticks every period, executed or elided"
            );
        }
        // Events scale with the axis, so the larger cell dominates.
        assert!(rows[1].elided_ticks > rows[0].elided_ticks);
        assert_eq!(render(&rows).lines().count(), 5);
    }

    #[test]
    fn parallel_cells_match_serial_bitwise() {
        let serial = mega_sweep_with_jobs(Effort::Smoke, &TEST_NODES, 1);
        let par = mega_sweep_with_jobs(Effort::Smoke, &TEST_NODES, 4);
        assert_eq!(serial, par);
    }

    #[test]
    fn cell_seeds_differ_across_the_axis() {
        let a = cell_config(Effort::Smoke, 0, 1024).seed;
        let b = cell_config(Effort::Smoke, 1, 1024).seed;
        assert_ne!(a, b);
    }
}
