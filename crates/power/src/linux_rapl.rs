//! Real Intel RAPL via the Linux `powercap` sysfs interface.
//!
//! This is the deployment backend: on a Linux machine with
//! `/sys/class/powercap/intel-rapl:*` domains (and permissions to write the
//! power-limit constraint files), [`LinuxRapl`] implements the same
//! [`PowerInterface`] the deciders run against in simulation — read average
//! power since the last read, set a node-level cap — by
//!
//! * summing the monotonically increasing `energy_uj` counters of the
//!   selected package domains (handling counter wraparound via
//!   `max_energy_range_uj`), and
//! * splitting a requested node-level cap evenly across the packages'
//!   `constraint_0_power_limit_uw` files, exactly how the paper applies one
//!   logical cap to a dual-socket node.
//!
//! The sysfs root is injectable, so the protocol logic (domain discovery,
//! wrap handling, cap splitting, clamping) is fully unit-tested against a
//! synthetic tree without hardware. A real cluster deployment needs only
//! `LinuxRapl::discover()` and root (or `CAP_SYS_ADMIN`-granted) access.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use penelope_units::{Power, PowerRange, SimTime};

use crate::iface::PowerInterface;

/// One RAPL package domain (`intel-rapl:N`).
#[derive(Clone, Debug)]
struct Domain {
    /// Directory containing `energy_uj` etc.
    dir: PathBuf,
    /// Wraparound modulus of the energy counter, microjoules.
    max_energy_uj: u64,
    /// Last raw counter value seen.
    last_energy_uj: u64,
}

/// Errors from the sysfs backend.
#[derive(Debug)]
pub enum RaplError {
    /// The powercap class directory is missing (no RAPL support / not Linux).
    NoPowercap(PathBuf),
    /// No package domains were found under the class directory.
    NoDomains(PathBuf),
    /// A sysfs read/write failed (typically permissions on the limit file).
    Io(PathBuf, io::Error),
    /// A sysfs file held something unparsable.
    Parse(PathBuf, String),
}

impl std::fmt::Display for RaplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RaplError::NoPowercap(p) => write!(f, "no powercap interface at {}", p.display()),
            RaplError::NoDomains(p) => {
                write!(f, "no intel-rapl package domains under {}", p.display())
            }
            RaplError::Io(p, e) => write!(f, "sysfs I/O on {}: {e}", p.display()),
            RaplError::Parse(p, s) => write!(f, "unparsable sysfs value in {}: {s:?}", p.display()),
        }
    }
}

impl std::error::Error for RaplError {}

fn read_u64(path: &Path) -> Result<u64, RaplError> {
    let text = fs::read_to_string(path).map_err(|e| RaplError::Io(path.to_path_buf(), e))?;
    text.trim()
        .parse()
        .map_err(|_| RaplError::Parse(path.to_path_buf(), text.trim().to_string()))
}

fn write_u64(path: &Path, value: u64) -> Result<(), RaplError> {
    fs::write(path, format!("{value}\n")).map_err(|e| RaplError::Io(path.to_path_buf(), e))
}

/// A node-level power domain backed by the Linux powercap sysfs tree.
#[derive(Debug)]
pub struct LinuxRapl {
    domains: Vec<Domain>,
    safe_range: PowerRange,
    requested_cap: Power,
    /// Accumulated energy (µJ) since the last `read_power`.
    window_energy_uj: u128,
    /// Timestamp of the last `read_power`.
    window_start: SimTime,
}

impl LinuxRapl {
    /// The production sysfs root.
    const DEFAULT_ROOT: &'static str = "/sys/class/powercap";

    /// Discover package domains under the default sysfs root.
    pub fn discover(safe_range: PowerRange) -> Result<Self, RaplError> {
        Self::discover_at(Path::new(Self::DEFAULT_ROOT), safe_range)
    }

    /// Discover package domains under an explicit root (tests inject a
    /// synthetic tree here).
    ///
    /// Package domains are direct children named `intel-rapl:<n>` (socket
    /// packages); subdomains like `intel-rapl:<n>:<m>` (core/dram planes)
    /// are intentionally skipped — the paper caps whole sockets.
    fn discover_at(root: &Path, safe_range: PowerRange) -> Result<Self, RaplError> {
        let entries = fs::read_dir(root).map_err(|_| RaplError::NoPowercap(root.to_path_buf()))?;
        let mut domains = Vec::new();
        for entry in entries.flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if !name.starts_with("intel-rapl:") || name.matches(':').count() != 1 {
                continue;
            }
            let dir = entry.path();
            let max_energy_uj = read_u64(&dir.join("max_energy_range_uj"))?;
            let last_energy_uj = read_u64(&dir.join("energy_uj"))?;
            domains.push(Domain {
                dir,
                max_energy_uj,
                last_energy_uj,
            });
        }
        if domains.is_empty() {
            return Err(RaplError::NoDomains(root.to_path_buf()));
        }
        // Deterministic domain order regardless of readdir order.
        domains.sort_by(|a, b| a.dir.cmp(&b.dir));
        let requested_cap = Self::read_total_cap(&domains).unwrap_or(safe_range.max());
        Ok(LinuxRapl {
            domains,
            safe_range,
            requested_cap,
            window_energy_uj: 0,
            window_start: SimTime::ZERO,
        })
    }

    fn read_total_cap(domains: &[Domain]) -> Result<Power, RaplError> {
        let mut total = Power::ZERO;
        for d in domains {
            let uw = read_u64(&d.dir.join("constraint_0_power_limit_uw"))?;
            total += Power::from_milliwatts(uw / 1000);
        }
        Ok(total)
    }

    /// Accumulate energy deltas since the previous poll, handling counter
    /// wraparound. Can be called more often than `read_power` to bound the
    /// wrap window (RAPL counters wrap in minutes under load).
    fn poll_energy(&mut self) -> Result<(), RaplError> {
        for d in &mut self.domains {
            let now = read_u64(&d.dir.join("energy_uj"))?;
            let delta = if now >= d.last_energy_uj {
                now - d.last_energy_uj
            } else {
                // Counter wrapped: modulus is max_energy_range_uj.
                now + (d.max_energy_uj - d.last_energy_uj)
            };
            d.last_energy_uj = now;
            self.window_energy_uj += u128::from(delta);
        }
        Ok(())
    }

    /// Fallible flavour of [`PowerInterface::read_power`].
    fn try_read_power(&mut self, now: SimTime) -> Result<Power, RaplError> {
        self.poll_energy()?;
        let dt = now.saturating_since(self.window_start);
        let avg = if dt.is_zero() {
            Power::ZERO
        } else {
            // µJ / ns = kW; scale to mW: mW = µJ * 1e6 / ns.
            let mw = self.window_energy_uj * 1_000_000 / u128::from(dt.as_nanos());
            Power::from_milliwatts(mw.min(u128::from(u64::MAX)) as u64)
        };
        self.window_start = now;
        self.window_energy_uj = 0;
        Ok(avg)
    }

    /// Fallible flavour of [`PowerInterface::set_cap`]: clamps into the safe
    /// range and splits the node cap evenly across package constraint files.
    fn try_set_cap(&mut self, cap: Power) -> Result<(), RaplError> {
        let clamped = self.safe_range.clamp(cap);
        self.requested_cap = clamped;
        let (share, rem) = clamped.split(self.domains.len() as u64);
        for (i, d) in self.domains.iter().enumerate() {
            let extra = if (i as u64) < rem.milliwatts() { 1 } else { 0 };
            let uw = (share.milliwatts() + extra) * 1000;
            write_u64(&d.dir.join("constraint_0_power_limit_uw"), uw)?;
        }
        Ok(())
    }
}

impl PowerInterface for LinuxRapl {
    /// Infallible wrapper: on a transient sysfs error, reports zero power
    /// (the decider will classify the node as having excess, the safe
    /// direction — it can only give power away, never overdraw).
    fn read_power(&mut self, now: SimTime) -> Power {
        self.try_read_power(now).unwrap_or(Power::ZERO)
    }

    /// Infallible wrapper: a failed write leaves the previous hardware cap
    /// in force, which is always a cap that was valid under the budget.
    fn set_cap(&mut self, cap: Power, _now: SimTime) {
        let _ = self.try_set_cap(cap);
    }

    fn cap(&self) -> Power {
        self.requested_cap
    }

    fn safe_range(&self) -> PowerRange {
        self.safe_range
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build a synthetic powercap tree with `n` package domains plus a
    /// decoy subdomain, returning its root. Every call gets a directory
    /// of its own: the tests run on parallel threads of one process, and
    /// each of them rewrites (one of them deletes) the tree it was given.
    fn fake_tree(n: usize) -> PathBuf {
        static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let k = NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let root =
            std::env::temp_dir().join(format!("penelope-rapl-test-{}-{k}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        for i in 0..n {
            let d = root.join(format!("intel-rapl:{i}"));
            fs::create_dir_all(&d).unwrap();
            fs::write(d.join("energy_uj"), "1000000\n").unwrap();
            fs::write(d.join("max_energy_range_uj"), "262143328850\n").unwrap();
            fs::write(d.join("constraint_0_power_limit_uw"), "100000000\n").unwrap();
            // A core-plane subdomain that must be skipped.
            let sub = root.join(format!("intel-rapl:{i}:0"));
            fs::create_dir_all(&sub).unwrap();
            fs::write(sub.join("energy_uj"), "1\n").unwrap();
        }
        // An unrelated entry that must be ignored.
        fs::create_dir_all(root.join("dtpm")).unwrap();
        root
    }

    fn set_energy(root: &Path, pkg: usize, uj: u64) {
        fs::write(
            root.join(format!("intel-rapl:{pkg}")).join("energy_uj"),
            format!("{uj}\n"),
        )
        .unwrap();
    }

    fn range() -> PowerRange {
        PowerRange::from_watts(80, 300)
    }

    #[test]
    fn discovers_only_package_domains() {
        let root = fake_tree(2);
        let rapl = LinuxRapl::discover_at(&root, range()).unwrap();
        assert_eq!(rapl.domains.len(), 2);
        // Initial cap read back from the constraint files: 2 × 100 W.
        assert_eq!(rapl.cap(), Power::from_watts_u64(200));
    }

    #[test]
    fn missing_root_is_no_powercap() {
        let err = LinuxRapl::discover_at(Path::new("/nonexistent-penelope"), range());
        assert!(matches!(err, Err(RaplError::NoPowercap(_))));
    }

    #[test]
    fn empty_tree_is_no_domains() {
        let root = std::env::temp_dir().join(format!("penelope-rapl-empty-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root).unwrap();
        let err = LinuxRapl::discover_at(&root, range());
        assert!(matches!(err, Err(RaplError::NoDomains(_))));
    }

    #[test]
    fn reads_average_power_from_energy_counters() {
        let root = fake_tree(2);
        let mut rapl = LinuxRapl::discover_at(&root, range()).unwrap();
        let _ = rapl.try_read_power(SimTime::ZERO).unwrap();
        // Each package consumes 50 J over 1 s → 100 W node-level.
        set_energy(&root, 0, 1_000_000 + 50_000_000);
        set_energy(&root, 1, 1_000_000 + 50_000_000);
        let p = rapl.try_read_power(SimTime::from_secs(1)).unwrap();
        assert_eq!(p, Power::from_watts_u64(100));
    }

    #[test]
    fn handles_counter_wraparound() {
        let root = fake_tree(1);
        let mut rapl = LinuxRapl::discover_at(&root, range()).unwrap();
        let _ = rapl.try_read_power(SimTime::ZERO).unwrap();
        // Counter wraps: new value below old; modulus 262143328850.
        // Consumed = (new + max - old) = 500 + 262143328850 - 1000000.
        set_energy(&root, 0, 500);
        let p = rapl.try_read_power(SimTime::from_secs(262)).unwrap();
        // ≈ 262142.33 J over 262 s ≈ 1000.5 W... sanity: within 1% of 1000 W.
        let w = p.as_watts();
        assert!((w - 1000.5).abs() < 10.0, "wrapped power {w}");
    }

    #[test]
    fn split_reads_accumulate_like_one() {
        let root = fake_tree(1);
        let mut rapl = LinuxRapl::discover_at(&root, range()).unwrap();
        let _ = rapl.try_read_power(SimTime::ZERO).unwrap();
        set_energy(&root, 0, 1_000_000 + 30_000_000);
        rapl.poll_energy().unwrap(); // mid-window poll (wrap bounding)
        set_energy(&root, 0, 1_000_000 + 60_000_000);
        let p = rapl.try_read_power(SimTime::from_secs(1)).unwrap();
        assert_eq!(p, Power::from_watts_u64(60));
    }

    #[test]
    fn set_cap_splits_evenly_and_clamps() {
        let root = fake_tree(2);
        let mut rapl = LinuxRapl::discover_at(&root, range()).unwrap();
        rapl.try_set_cap(Power::from_watts_u64(250)).unwrap();
        assert_eq!(rapl.cap(), Power::from_watts_u64(250));
        let read = |i: usize| {
            read_u64(
                &root
                    .join(format!("intel-rapl:{i}"))
                    .join("constraint_0_power_limit_uw"),
            )
            .unwrap()
        };
        assert_eq!(read(0), 125_000_000);
        assert_eq!(read(1), 125_000_000);
        // Clamp below the safe floor.
        rapl.try_set_cap(Power::from_watts_u64(10)).unwrap();
        assert_eq!(rapl.cap(), Power::from_watts_u64(80));
        assert_eq!(read(0) + read(1), 80_000_000);
    }

    #[test]
    fn infallible_interface_degrades_gracefully() {
        let root = fake_tree(1);
        let mut rapl = LinuxRapl::discover_at(&root, range()).unwrap();
        // Destroy the tree: reads report zero (the safe direction), writes
        // are dropped, and the process does not panic.
        fs::remove_dir_all(&root).unwrap();
        assert_eq!(rapl.read_power(SimTime::from_secs(1)), Power::ZERO);
        rapl.set_cap(Power::from_watts_u64(120), SimTime::from_secs(1));
        assert_eq!(rapl.safe_range(), range());
    }

    #[test]
    fn zero_length_window_reports_zero() {
        let root = fake_tree(1);
        let mut rapl = LinuxRapl::discover_at(&root, range()).unwrap();
        let t = SimTime::from_secs(5);
        let _ = rapl.try_read_power(t).unwrap();
        assert_eq!(rapl.try_read_power(t).unwrap(), Power::ZERO);
    }
}
