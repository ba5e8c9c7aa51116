//! Workload power profiles and the power→performance model.
//!
//! The paper evaluates on the NAS Parallel Benchmarks (class D, IS omitted:
//! nine applications, §4.1). What the power-management experiments actually
//! exercise is (a) heterogeneous, time-varying *power demand* across
//! applications and (b) the nonlinear relationship between a node's powercap
//! and its execution speed (§2.1, [19, 37]). This crate provides both:
//!
//! * [`Profile`] — a named sequence of [`Phase`]s, each with a power demand
//!   and an amount of work (seconds at full speed).
//! * [`PerfModel`] — the concave cap→rate curve: capping a phase below its
//!   demand slows it by `((cap − idle)/(demand − idle))^α`.
//! * [`WorkloadState`] — integrates progress under a (piecewise-constant)
//!   effective cap; implements [`penelope_power::CappedDevice`] so it plugs
//!   straight under the simulated RAPL domain.
//! * [`npb`] — nine synthetic profiles standing in for BT, CG, DC, EP, FT,
//!   LU, MG, SP and UA, plus the 36 unordered pairs the paper sweeps.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod npb;
pub mod perf;
pub mod profile;
pub mod state;
pub mod synth;

pub use perf::PerfModel;
pub use profile::{Phase, Profile};
pub use state::WorkloadState;
