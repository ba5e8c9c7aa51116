//! Metrics for the paper's experiments.
//!
//! Three families of measurement appear in the evaluation (§4):
//!
//! * **Application performance** (Figs. 2–3): `1/runtime`, normalized to the
//!   *Fair* baseline, aggregated across application pairs by geometric mean
//!   ([`perf`]).
//! * **Power redistribution time** (Figs. 4–6): the time for some fraction
//!   (50 % median / 100 % total) of the available excess to reach
//!   power-hungry nodes ([`redistribution`]).
//! * **Turnaround time** (Figs. 7–8): how long a decider waits for a
//!   response to a power request ([`turnaround`]).
//!
//! Plus the generic summary statistics ([`stats`]) and plain-text table
//! rendering ([`table`]) used by the benchmark harness to print the same
//! rows/series the paper reports.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod folds;
pub mod oscillation;
pub mod perf;
pub mod redistribution;
pub mod sparkline;
pub mod stats;
pub mod table;
pub mod turnaround;

pub use folds::{oscillation_from_events, redistribution_from_events, turnaround_from_events};
pub use oscillation::OscillationStats;
pub use perf::{geometric_mean, normalized_performance, PerfSummary};
pub use redistribution::RedistributionTracker;
pub use sparkline::{downsample, sparkline};
pub use stats::SummaryStats;
pub use table::TextTable;
pub use turnaround::TurnaroundStats;
