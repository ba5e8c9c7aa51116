//! The experiment harness: one module per artifact in the paper's
//! evaluation (§4), each producing typed rows and a printable table/series.
//!
//! | Module | Paper artifact |
//! |---|---|
//! | [`overhead`] | §4.2 — per-application overhead of running Penelope |
//! | [`nominal`] | Fig. 2 — performance under nominal conditions |
//! | [`faulty`] | Fig. 3 — performance with a coordinator fault |
//! | [`scale`] | Figs. 4–8 — redistribution & turnaround vs frequency/scale |
//! | [`multijob`] | Extension: §4.4's back-to-back-jobs fault prediction |
//! | [`assignment`] | Extension: §2.2.1 initial-assignment sensitivity |
//! | [`failover`] | Extension: §4.4's fallback-coordinator future work |
//! | [`churn`] | Extension: node crash/rejoin tolerance under churn |
//! | [`scale_mega`] | Extension: sharded scale study at 10^5–10^6 nodes |
//! | [`ablations`] | DESIGN.md's five design-choice ablations |
//! | [`service`] | §4.5.2 — server service time and saturation extrapolation |
//!
//! Every experiment takes an [`Effort`] knob so the full paper matrix (36
//! application pairs, 5 powercaps, 1056 nodes) and a quick CI-sized subset
//! share one code path.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod assignment;
pub mod churn;
pub mod effort;
pub mod failover;
pub mod faulty;
pub mod multijob;
pub mod nominal;
pub mod overhead;
pub mod parallel;
pub mod scale;
pub mod scale_mega;
pub mod scenarios;
pub mod service;

pub use effort::Effort;
