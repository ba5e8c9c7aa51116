//! Per-node time-series recording.
//!
//! When enabled, the simulator samples every node at each decider iteration:
//! the cap the manager wants, the power reading it acted on, and the local
//! pool level. The traces power the Figure-1-style visualizations in the
//! examples and export to CSV for external plotting.
//!
//! [`ClusterTrace`] is an [`Observer`]: it listens for
//! [`CapActuated`](EventKind::CapActuated) events — the one event every
//! substrate emits exactly once per decider iteration — and ignores the
//! rest of the protocol vocabulary. That makes the CSV/series exports a
//! *projection* of the structured event stream rather than a parallel
//! recording path, so plots and event logs can never disagree.

use std::sync::Mutex;

use penelope_trace::{EventKind, Observer, TraceEvent};
use penelope_units::{NodeId, Power, SimTime};

/// One sample of one node's power state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceSample {
    /// When the sample was taken (the node's tick).
    pub at: SimTime,
    /// The node-level cap after the iteration.
    pub cap: Power,
    /// The average power reading the iteration acted on.
    pub reading: Power,
    /// The local pool level after the iteration (zero for Fair/SLURM).
    pub pool: Power,
}

/// All nodes' recorded samples, behind accessor methods.
///
/// Samples arrive through [`Observer::on_event`] (or [`push`](Self::push)
/// directly), so the container is internally synchronized, as every
/// observer is.
#[derive(Debug, Default)]
pub struct ClusterTrace {
    nodes: Mutex<Vec<Vec<TraceSample>>>,
}

impl Clone for ClusterTrace {
    fn clone(&self) -> Self {
        ClusterTrace {
            nodes: Mutex::new(self.nodes.lock().expect("trace lock").clone()),
        }
    }
}

impl ClusterTrace {
    /// Create an empty trace for `n` nodes.
    pub fn new(n: usize) -> Self {
        ClusterTrace {
            nodes: Mutex::new(vec![Vec::new(); n]),
        }
    }

    /// Append a sample for `node`, growing the per-node table if the node
    /// was not pre-sized.
    pub fn push(&self, node: NodeId, sample: TraceSample) {
        let mut nodes = self.nodes.lock().expect("trace lock");
        if node.index() >= nodes.len() {
            nodes.resize_with(node.index() + 1, Vec::new);
        }
        nodes[node.index()].push(sample);
    }

    /// Number of nodes the trace has rows for.
    pub fn n_nodes(&self) -> usize {
        self.nodes.lock().expect("trace lock").len()
    }

    /// The cap trajectory of one node, in watts (for sparklines).
    pub fn cap_series_watts(&self, node: NodeId) -> Vec<f64> {
        let nodes = self.nodes.lock().expect("trace lock");
        nodes
            .get(node.index())
            .map(|samples| samples.iter().map(|s| s.cap.as_watts()).collect())
            .unwrap_or_default()
    }

    /// Export every sample as CSV: `node,t_secs,cap_w,reading_w,pool_w`.
    pub fn to_csv(&self) -> String {
        let nodes = self.nodes.lock().expect("trace lock");
        let mut out = String::from("node,t_secs,cap_w,reading_w,pool_w\n");
        for (i, samples) in nodes.iter().enumerate() {
            for s in samples {
                out.push_str(&format!(
                    "{},{:.6},{:.3},{:.3},{:.3}\n",
                    i,
                    s.at.as_secs_f64(),
                    s.cap.as_watts(),
                    s.reading.as_watts(),
                    s.pool.as_watts()
                ));
            }
        }
        out
    }

    /// Total number of samples across all nodes.
    pub fn len(&self) -> usize {
        self.nodes
            .lock()
            .expect("trace lock")
            .iter()
            .map(Vec::len)
            .sum()
    }

    /// True iff no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Observer for ClusterTrace {
    fn on_event(&self, ev: &TraceEvent) {
        if let EventKind::CapActuated { cap, reading, pool } = ev.kind {
            self.push(
                ev.node,
                TraceSample {
                    at: ev.at,
                    cap,
                    reading,
                    pool,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(secs: u64, cap_w: u64) -> TraceSample {
        TraceSample {
            at: SimTime::from_secs(secs),
            cap: Power::from_watts_u64(cap_w),
            reading: Power::from_watts_u64(cap_w - 10),
            pool: Power::from_watts_u64(5),
        }
    }

    #[test]
    fn push_and_series() {
        let t = ClusterTrace::new(2);
        t.push(NodeId::new(0), sample(1, 100));
        t.push(NodeId::new(0), sample(2, 120));
        t.push(NodeId::new(1), sample(1, 90));
        assert_eq!(t.cap_series_watts(NodeId::new(0)), vec![100.0, 120.0]);
        assert_eq!(t.nodes.lock().unwrap()[1][0].pool, Power::from_watts_u64(5));
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.nodes.lock().unwrap()[0].len(), 2);
    }

    #[test]
    fn csv_layout() {
        let t = ClusterTrace::new(1);
        t.push(NodeId::new(0), sample(3, 150));
        let csv = t.to_csv();
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("node,t_secs,cap_w,reading_w,pool_w"));
        assert_eq!(lines.next(), Some("0,3.000000,150.000,140.000,5.000"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn empty_trace() {
        let t = ClusterTrace::new(3);
        assert!(t.is_empty());
        assert_eq!(t.cap_series_watts(NodeId::new(2)), Vec::<f64>::new());
        assert_eq!(t.cap_series_watts(NodeId::new(9)), Vec::<f64>::new());
    }

    #[test]
    fn records_cap_actuated_events_only() {
        let t = ClusterTrace::new(1);
        t.on_event(&TraceEvent {
            at: SimTime::from_secs(2),
            node: NodeId::new(0),
            period: 2,
            kind: EventKind::CapActuated {
                cap: Power::from_watts_u64(140),
                reading: Power::from_watts_u64(130),
                pool: Power::from_watts_u64(7),
            },
        });
        t.on_event(&TraceEvent {
            at: SimTime::from_secs(2),
            node: NodeId::new(0),
            period: 2,
            kind: EventKind::UrgencyCleared {
                released: Power::ZERO,
            },
        });
        assert_eq!(t.len(), 1);
        let s = t.nodes.lock().unwrap()[0][0];
        assert_eq!(s.cap, Power::from_watts_u64(140));
        assert_eq!(s.pool, Power::from_watts_u64(7));
    }
}
