//! The JSON value the repo benchmark reads and writes its results with.
//!
//! `benchmark/src/adapter.rs` imports [`json::Json`] from this crate, and
//! a product PR may not edit `benchmark/`, so the module lives here until
//! a benchmark PR moves it. Nothing else is left: timing, baselines and
//! regression gates are `benchmark/`'s job (`bash benchmark/run.sh`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
