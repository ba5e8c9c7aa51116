//! Metrics for the paper's experiments.
//!
//! Four families of measurement appear in the paper:
//!
//! * **Application performance** (Figs. 2–3): `1/runtime`, normalized to the
//!   *Fair* baseline, aggregated across application pairs by geometric mean
//!   ([`perf`]).
//! * **Power redistribution time** (Figs. 4–6): the time for some fraction
//!   (50 % median / 100 % total) of the available excess to reach
//!   power-hungry nodes ([`redistribution`]).
//! * **Turnaround time** (Figs. 7–8): how long a decider waits for a
//!   response to a power request ([`turnaround`]).
//! * **Power oscillation** (§3.2): how often each node's cap reverses
//!   direction — what the pool's transaction limiter exists to damp
//!   ([`oscillation`]).
//!
//! The last three are computed in one place, the streaming
//! [`MetricsCollector`] ([`collector`]): the simulator calls its entry
//! points directly, and [`SharedCollector`] feeds the same entry points
//! from the protocol-event stream of any substrate — the Penelope engines
//! and the centralized SLURM arm alike.
//!
//! Plus the generic summary statistics ([`stats`]) and plain-text table
//! rendering ([`table`]) used by the benchmark harness to print the same
//! rows/series the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collector;
pub mod oscillation;
pub mod perf;
pub mod redistribution;
pub mod sparkline;
pub mod stats;
pub mod table;
pub mod turnaround;

pub use collector::{Figures, MetricsCollector, SharedCollector};
pub use oscillation::OscillationStats;
pub use perf::geometric_mean;
pub use redistribution::RedistributionTracker;
pub use sparkline::{downsample, sparkline};
pub use stats::SummaryStats;
pub use table::TextTable;
pub use turnaround::TurnaroundStats;
