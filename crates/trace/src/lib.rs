//! # penelope-trace — structured observability for every substrate
//!
//! The paper's evaluation (§4) is derived from *watching* the protocol:
//! per-request turnaround, redistribution traffic, cap trajectories. This
//! crate defines the typed protocol-event vocabulary ([`TraceEvent`] /
//! [`EventKind`]) and the [`Observer`] sink trait that the DES simulator
//! and the UDP daemon, per node or multiplexed, both emit through — the
//! same events everywhere, so the conformance harness can diff event
//! streams across substrates and the metrics crate can read the figures
//! off any stream instead of reconstructing them from lossy summaries.
//!
//! ## Choosing an observer
//!
//! * [`SharedObserver::noop()`] (the default) — disabled; emission sites
//!   skip event construction entirely, so tracing costs nothing when off,
//!   and the handle owns no allocation.
//! * [`RingBufferObserver`] — capture events in memory (optionally bounded,
//!   flight-recorder style) for programmatic analysis.
//! * [`JsonlObserver`] — stream events to a writer as JSONL
//!   (see [`validate_jsonl`] for the schema contract).
//! * [`CounterObserver`] — lock-free per-kind counts, power totals and a
//!   grant-size histogram; the common status shape for local and remote
//!   nodes.
//! * [`FanoutObserver`] — deliver to several of the above at once.
//!
//! Substrates accept any of these through [`SharedObserver`], a cheaply
//! clonable handle that keeps config structs `Clone + Debug`, and emit
//! through a [`Stamper`], the single site that builds a [`TraceEvent`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counter;
pub mod event;
pub mod jsonl;
pub mod observer;
pub mod ring;

pub use counter::{CounterObserver, CounterSnapshot};
pub use event::{EventKind, NodeClass, TraceEvent};
pub use jsonl::{validate_jsonl, JsonlObserver, JsonlSummary};
pub use observer::{FanoutObserver, Observer, SharedObserver, Stamper};
pub use ring::RingBufferObserver;
