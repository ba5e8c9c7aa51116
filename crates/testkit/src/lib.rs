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
//!   seed-reporting failure output; the in-tree `proptest` shim is
//!   built on it.
//! * [`conformance`] — substrate-neutral scenario descriptions, the
//!   per-period safety invariants (no minting, safe caps, balanced pool
//!   accounting, zero-sum), bounded sim↔runtime divergence checking and
//!   the Penelope/Fair/SLURM differential oracle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod events;
pub mod prop;
pub mod rng;

pub use conformance::{
    ConformanceReport, DivergenceBound, FaultSpec, Invariant, NodeSnapshot, PhaseSpec, Scenario,
    Snapshot, Substrate, SubstrateRun, Violation, WorkloadSpec,
};
pub use events::{
    check_grant_served_pairing, check_urgency_alternation, normalize_protocol, ProtocolStep,
};
pub use rng::{node_stream, Rng, TestRng};
