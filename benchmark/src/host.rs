//! What the benchmark reads from the host: cores, CPU model, process
//! memory and CPU time, and (in the traced binary) allocation counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Allocations counted since process start while counting was switched on.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Off by default, so the instrumentation-off repetitions of a traced run
/// pay one relaxed load per allocation and nothing else.
static COUNTING: AtomicBool = AtomicBool::new(false);

/// The system allocator plus a call counter. Only the traced binary
/// installs it (`#[global_allocator]`); in the untraced binary the count
/// stays zero and no allocation passes through here.
pub struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the only addition is a relaxed
// counter update that touches no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` for this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: `ptr`/`layout` come from `System`; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Switch allocation counting on or off (a no-op in the untraced binary).
pub fn count_allocs(on: bool) {
    COUNTING.store(on, Ordering::Relaxed);
}

/// Allocations counted so far.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// User and system CPU seconds of this process, all threads.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CpuTime {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in the kernel.
    pub sys_s: f64,
}

impl CpuTime {
    /// CPU time used since `earlier`.
    pub fn since(self, earlier: CpuTime) -> CpuTime {
        CpuTime {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }

    /// User plus system seconds.
    pub fn total_s(self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// CPU time of the whole process so far (`getrusage(RUSAGE_SELF)`:
/// microsecond resolution, where `/proc/self/stat` ticks at 10 ms).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_time() -> CpuTime {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines; RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    CpuTime {
        user_s: secs(ru.utime),
        sys_s: secs(ru.stime),
    }
}

/// Peer picks one sample of the reference kernel makes.
const REFERENCE_PICKS: u32 = 2_048;
/// Candidates each pick filters.
const REFERENCE_CANDIDATES: u32 = 2_048;

/// Time one sample of the reference kernel, seconds (about 5 ms here).
///
/// The kernel is a fixed piece of branchy, allocating, store-heavy code —
/// filter a range of candidates into a fresh `Vec` and read one back, the
/// shape of a peer pick — whose time moves with the host's speed the way
/// the single-threaded workloads' does. A dependent arithmetic chain does
/// not: when the sandbox's neighbours were busy it slowed by 5 % while the
/// workloads and this kernel slowed by 30-45 %.
pub fn reference_s() -> f64 {
    let start = Instant::now();
    let mut sum = 0u64;
    for k in 0..REFERENCE_PICKS {
        let skip = k % REFERENCE_CANDIDATES;
        let picked: Vec<u32> = (0..REFERENCE_CANDIDATES).filter(|&i| i != skip).collect();
        sum += u64::from(black_box(&picked)[(k % (REFERENCE_CANDIDATES - 1)) as usize]);
    }
    black_box(sum);
    start.elapsed().as_secs_f64()
}

/// One `kB` field of `/proc/self/status`, in MiB.
fn status_mib(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|n| n.trim().parse().ok())
        .unwrap_or_else(|| panic!("no {field} line in /proc/self/status"));
    kib / 1024.0
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    status_mib("VmHWM:")
}

/// Current resident set of this process (`VmRSS`), MiB.
pub fn rss_mib() -> f64 {
    status_mib("VmRSS:")
}

/// Cores this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model string of the first core, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
