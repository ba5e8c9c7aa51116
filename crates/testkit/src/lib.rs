//! # penelope-testkit
//!
//! Deterministic test infrastructure for the Penelope workspace, with no
//! dependencies outside the repository:
//!
//! * [`rng`] — the workspace PRNG (SplitMix64-seeded xoshiro256**) with
//!   the `gen_range`/`gen_bool`/`shuffle` surface the codebase uses;
//!   product crates, tests and benches all use it directly.
//! * [`prop`] — a fixed-iteration property-test harness with integer /
//!   float / vec / tuple generators, binary-search shrinking and
//!   seed-reporting failure output; every property suite in the
//!   workspace runs on it.
//!
//! The cross-substrate conformance harness, and the checks it holds every
//! run's cuts and event stream to, live in the root crate
//! (`penelope::conformance`), beside the substrates it drives.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod prop;
pub mod rng;

pub use rng::{node_seed, Rng, TestRng};
