//! Struct-of-arrays node storage for the simulator hot path.
//!
//! The simulator used to keep one `SimNode` struct per node and walk a
//! `Vec<SimNode>`; every event handler then touched one ~500-byte struct
//! spanning several cache lines even when it needed two fields. The
//! [`NodeTable`] here is the same state transposed: one parallel `Vec`
//! per field, indexed by `NodeId`, so
//!
//! * the per-tick path (`next_tick_at`, `rapl`, `rng`, `manager`) streams
//!   through dense homogeneous arrays instead of striding across structs,
//! * disjoint fields borrow independently — the driver can hold
//!   `&mut manager[i]` and `&mut rng[i]` at once without the split-borrow
//!   contortions the struct layout forced,
//! * whole-cluster folds (conformance snapshots, conservation audits)
//!   scan exactly the columns they read.
//!
//! The columns are the manager, RAPL domain, RNG stream, completion flag,
//! initial cap and next tick time: what the driver needs to run a node.
//! Measurement is not here: turnaround, oscillation and redistribution
//! live in the simulator's one `MetricsCollector`, and a SLURM client
//! keeps its own failover state.
//!
//! The transposition is storage-only: field contents, update order and
//! RNG draw sequences are unchanged, which
//! `tests/layout_conformance.rs` pins with per-seed digests of complete
//! trace streams recorded from the pre-SoA layout.

use penelope_power::{PowerInterface, SimulatedRapl};
use penelope_testkit::rng::TestRng;
use penelope_units::{Power, SimTime};
use penelope_workload::WorkloadState;

use crate::node::Manager;

/// Per-node simulation state, one parallel `Vec` per field.
///
/// Row `i` across all columns is node `i`'s state; every column always
/// has the same length. Built once by [`NodeTable::push`] per node at
/// cluster construction; rows are never removed (dead nodes keep their
/// row, exactly as the struct layout kept their `SimNode`).
#[derive(Debug, Default)]
pub(crate) struct NodeTable {
    /// The power manager (Fair / Penelope engine + queue / SLURM client).
    pub manager: Vec<Manager>,
    /// Simulated RAPL domain over the node's workload.
    pub rapl: Vec<SimulatedRapl<WorkloadState>>,
    /// Per-node deterministic RNG stream.
    pub rng: Vec<TestRng>,
    /// Whether the workload's completion has been observed.
    pub finished_seen: Vec<bool>,
    /// The cap each node was initially assigned.
    pub initial_cap: Vec<Power>,
    /// When each node's *live* tick chain fires next. A tick arriving at
    /// any other time belongs to a superseded chain (a pre-crash tick
    /// racing a restart-spawned one) and is dropped, so a node never
    /// double-ticks per period across a kill/restart round-trip.
    pub next_tick_at: Vec<SimTime>,
}

impl NodeTable {
    /// An empty table with room for `n` nodes in every column.
    pub fn with_capacity(n: usize) -> Self {
        NodeTable {
            manager: Vec::with_capacity(n),
            rapl: Vec::with_capacity(n),
            rng: Vec::with_capacity(n),
            finished_seen: Vec::with_capacity(n),
            initial_cap: Vec::with_capacity(n),
            next_tick_at: Vec::with_capacity(n),
        }
    }

    /// Append one node's row across every column.
    pub fn push(
        &mut self,
        manager: Manager,
        rapl: SimulatedRapl<WorkloadState>,
        rng: TestRng,
        initial_cap: Power,
        next_tick_at: SimTime,
    ) {
        self.manager.push(manager);
        self.rapl.push(rapl);
        self.rng.push(rng);
        self.finished_seen.push(false);
        self.initial_cap.push(initial_cap);
        self.next_tick_at.push(next_tick_at);
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.manager.len()
    }

    /// The cap node `i`'s manager currently wants enforced.
    pub fn cap(&self, i: usize) -> Power {
        match &self.manager[i] {
            Manager::Fair => self.rapl[i].cap(),
            Manager::Penelope { engine, .. } => engine.cap(),
            Manager::Slurm { client } => client.cap(),
        }
    }

    /// Power cached in node `i`'s local pool (zero for Fair/SLURM).
    pub fn pooled(&self, i: usize) -> Power {
        match &self.manager[i] {
            Manager::Penelope { engine, .. } => engine.pool().available(),
            _ => Power::ZERO,
        }
    }

    /// Power node `i` holds in total (cap + pool) — what leaves the
    /// system if it crashes.
    pub fn holdings(&self, i: usize) -> Power {
        self.cap(i) + self.pooled(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_core::{EngineConfig, NodeEngine, NodeParams};
    use penelope_power::RaplConfig;
    use penelope_slurm::{ServerQueue, ServiceModel};
    use penelope_trace::SharedObserver;
    use penelope_units::{NodeId, PowerRange};
    use penelope_workload::{PerfModel, Phase, Profile};

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    fn table_with(manager: Manager) -> NodeTable {
        let profile = Profile::new(
            "t",
            vec![Phase::new(w(100), 1.0)],
            PerfModel::new(w(60), 1.0),
        );
        let mut t = NodeTable::with_capacity(1);
        t.push(
            manager,
            SimulatedRapl::new(
                penelope_workload::WorkloadState::new(profile),
                w(160),
                RaplConfig::default(),
            ),
            TestRng::seed_from_u64(0),
            w(160),
            SimTime::ZERO,
        );
        t
    }

    #[test]
    fn fair_node_reports_rapl_cap_and_no_pool() {
        let t = table_with(Manager::Fair);
        assert_eq!(t.len(), 1);
        assert_eq!(t.cap(0), w(160));
        assert_eq!(t.pooled(0), Power::ZERO);
        assert_eq!(t.holdings(0), w(160));
    }

    #[test]
    fn penelope_node_holdings_include_pool() {
        let params = NodeParams {
            safe_range: PowerRange::from_watts(80, 300),
            ..NodeParams::default()
        };
        let mut engine = NodeEngine::new(
            NodeId::new(0),
            2,
            EngineConfig::new(params),
            w(160),
            SharedObserver::noop(),
        );
        engine.pool_mut().deposit(w(25));
        let t = table_with(Manager::Penelope {
            engine,
            queue: ServerQueue::new(ServiceModel::default(), 16),
        });
        assert_eq!(t.pooled(0), w(25));
        assert_eq!(t.holdings(0), w(185));
    }

    #[test]
    fn columns_stay_parallel() {
        let mut t = table_with(Manager::Fair);
        let profile = Profile::new(
            "u",
            vec![Phase::new(w(90), 1.0)],
            PerfModel::new(w(60), 1.0),
        );
        t.push(
            Manager::Fair,
            SimulatedRapl::new(
                penelope_workload::WorkloadState::new(profile),
                w(120),
                RaplConfig::default(),
            ),
            TestRng::seed_from_u64(1),
            w(120),
            SimTime::from_millis(5),
        );
        assert_eq!(t.len(), 2);
        for col in [
            t.rapl.len(),
            t.rng.len(),
            t.finished_seen.len(),
            t.next_tick_at.len(),
        ] {
            assert_eq!(col, 2, "every column advances together");
        }
        assert_eq!(t.initial_cap[1], w(120));
        assert_eq!(t.next_tick_at[1], SimTime::from_millis(5));
    }
}
