//! Threaded in-process cluster runtime.
//!
//! The paper deploys Penelope as two threads per node — a local decider and
//! a power pool server — plus, for the SLURM baseline, one client thread
//! per node and a central server process (§4.1, §4.5). This crate is that
//! deployment in miniature: every node is a pair of OS threads, messages
//! travel over the channel-based [`penelope_net::ThreadNet`], periods are
//! real wall-clock sleeps, and the "hardware" is the same simulated RAPL
//! domain used by the DES, driven by wall time.
//!
//! It exists to demonstrate that the *identical* decider/pool/client state
//! machines from `penelope-core` and `penelope-slurm` run unchanged against
//! real concurrency — locks, races, blocking waits — not just under the
//! deterministic simulator. Both of a Penelope node's threads step the
//! node's one locked `NodeEngine` through the same `Effects` mapping
//! (endpoint routing, hardware cap, `MsgSent`), differing only in which
//! endpoint range their messages go to. Tests keep periods in the milliseconds so a
//! whole cluster run takes a second or two.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cluster;
pub mod hardware;
pub mod report;

pub use cluster::{RuntimeConfig, ThreadedCluster, ThreadedClusterBuilder};
pub use hardware::NodeHardware;
pub use report::ThreadedReport;
