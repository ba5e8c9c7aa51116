//! Results of a simulated run.

use penelope_metrics::{OscillationStats, RedistributionTracker, TurnaroundStats};
use penelope_net::NetStats;
use penelope_slurm::QueueStats;
use penelope_units::{NodeId, Power, SimTime};

use crate::config::SystemKind;

/// Everything the experiment harness needs from one cluster run.
#[derive(Debug)]
pub struct RunReport {
    /// Which manager ran.
    pub system: SystemKind,
    /// Number of workload (client) nodes.
    pub n_nodes: usize,
    /// Per-node workload completion times (`None`: never finished —
    /// crashed, stalled, or horizon reached first).
    pub finished: Vec<Option<SimTime>>,
    /// Nodes that were crashed by fault injection.
    pub dead: Vec<NodeId>,
    /// Virtual time the run ended (completion or horizon).
    pub ended_at: SimTime,
    /// Merged request/response round-trip statistics.
    pub turnaround: TurnaroundStats,
    /// The redistribution tracker, if the run was tracking one.
    pub redistribution: Option<RedistributionTracker>,
    /// Network counters.
    pub net: NetStats,
    /// The SLURM server queue's counters, when the system had a server.
    pub server_queue: Option<QueueStats>,
    /// Power permanently lost (crashes, dropped power-bearing messages).
    pub lost: Power,
    /// Final node-level caps.
    pub final_caps: Vec<Power>,
    /// Whether the conservation invariant held at every checked point.
    pub conservation_ok: bool,
    /// Discrete events processed by the simulator during the run — exact
    /// per seed, so the repo benchmark pins it in its `fidelity` block.
    pub events: u64,
    /// Cluster-wide cap-oscillation statistics (merged over nodes).
    pub oscillation: OscillationStats,
    /// Per-node time series, when [`record_traces`] was enabled.
    ///
    /// [`record_traces`]: crate::ClusterSim::record_traces
    pub trace: Option<crate::trace::ClusterTrace>,
}

impl RunReport {
    /// The experiment runtime: "the time necessary for all nodes to
    /// complete their workloads" (§4.1), over nodes that were alive at the
    /// end. `None` if any live node never finished.
    pub(crate) fn makespan(&self) -> Option<SimTime> {
        let mut latest = SimTime::ZERO;
        for (i, fin) in self.finished.iter().enumerate() {
            if self.dead.iter().any(|d| d.index() == i) {
                continue; // a crashed node's workload is excluded
            }
            match fin {
                Some(t) => latest = latest.max(*t),
                None => return None,
            }
        }
        Some(latest)
    }

    /// Makespan in seconds (the performance figures' denominator).
    pub fn runtime_secs(&self) -> Option<f64> {
        self.makespan().map(|t| t.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(finished: Vec<Option<SimTime>>, dead: Vec<NodeId>) -> RunReport {
        let n = finished.len();
        RunReport {
            system: SystemKind::Fair,
            n_nodes: n,
            finished,
            dead,
            ended_at: SimTime::from_secs(100),
            turnaround: TurnaroundStats::new(),
            redistribution: None,
            net: NetStats::default(),
            server_queue: None,
            lost: Power::ZERO,
            final_caps: vec![Power::from_watts_u64(100); n],
            conservation_ok: true,
            events: 0,
            oscillation: OscillationStats::new(),
            trace: None,
        }
    }

    #[test]
    fn makespan_is_latest_finish() {
        let r = report(
            vec![Some(SimTime::from_secs(10)), Some(SimTime::from_secs(30))],
            vec![],
        );
        assert_eq!(r.makespan(), Some(SimTime::from_secs(30)));
        assert_eq!(r.runtime_secs(), Some(30.0));
    }

    #[test]
    fn unfinished_live_node_voids_makespan() {
        let r = report(vec![Some(SimTime::from_secs(10)), None], vec![]);
        assert_eq!(r.makespan(), None);
    }

    #[test]
    fn dead_nodes_excluded_from_makespan() {
        let r = report(
            vec![Some(SimTime::from_secs(10)), None],
            vec![NodeId::new(1)],
        );
        assert_eq!(r.makespan(), Some(SimTime::from_secs(10)));
    }
}
