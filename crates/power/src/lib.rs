//! Power measurement and capping substrate.
//!
//! The paper's only hardware requirement (§3.3): *"Penelope only requires an
//! interface through which power can be read and node-level powercaps can be
//! set."* That interface is [`PowerInterface`]. The production system used
//! Intel RAPL; this crate provides [`SimulatedRapl`], a faithful software
//! model of the documented RAPL dynamics (averaged-power readings, bounded
//! safe range, and an actuation lag — RAPL converges on a new cap in under
//! half a second, §4.5).
//!
//! The device *under* the cap is abstracted as a [`CappedDevice`]: something
//! that, given an effective cap over a time window, consumes energy and makes
//! progress. `penelope-workload` implements it for NPB-like application
//! profiles; this crate ships a constant-demand device.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod device;
pub(crate) mod iface;
pub(crate) mod linux_rapl;
pub mod rapl;

pub use device::{CappedDevice, ConstantDevice};
pub use iface::PowerInterface;
pub use linux_rapl::{LinuxRapl, RaplError};
pub use rapl::{RaplConfig, SimulatedRapl};
