//! The parallel experiment engine.
//!
//! Every sweep in the harness decomposes into *cells* — one independent
//! `ClusterSim` run per (system, scenario, application pair) — and each
//! cell derives its RNG streams from its own deterministic seed, never from
//! shared mutable state. That makes the cells embarrassingly parallel:
//! `par_map` fans them out over a scoped worker pool of plain `std`
//! threads and reassembles results in input order, so a parallel sweep is
//! *bit-for-bit identical* to a serial one (asserted by the conformance
//! test in [`crate::scale`]).
//!
//! Worker count comes from `PENELOPE_JOBS` (default: available
//! parallelism); `PENELOPE_JOBS=1` takes the plain serial path with no
//! threads at all.
//!
//! Tiny sweeps are cheaper than a thread pool: [`par_map_adaptive`]
//! times the first cell inline and only spawns workers when the
//! projected sweep cost clears `PAR_MIN_TOTAL_S`, so smoke-effort
//! matrices no longer pay for parallelism they cannot amortize.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The machine's available parallelism (1 if it cannot be determined).
pub(crate) fn available_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Worker count from the `PENELOPE_JOBS` environment variable, defaulting
/// to [`available_jobs`]. Panics (with the offending value) on anything
/// that is not a positive integer — a silently ignored typo would quietly
/// serialize or misconfigure a long sweep.
pub(crate) fn jobs_from_env() -> usize {
    match std::env::var("PENELOPE_JOBS") {
        Ok(v) => parse_jobs(&v).unwrap_or_else(|e| panic!("{e}")),
        Err(std::env::VarError::NotPresent) => available_jobs(),
        Err(std::env::VarError::NotUnicode(v)) => {
            panic!("PENELOPE_JOBS must be a positive integer, got non-unicode {v:?}")
        }
    }
}

/// Parse a `PENELOPE_JOBS` value: a positive integer.
pub(crate) fn parse_jobs(v: &str) -> Result<usize, String> {
    match v.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!(
            "PENELOPE_JOBS must be a positive integer, got {v:?}"
        )),
    }
}

/// Map `f` over `items` on up to `jobs` scoped worker threads, returning
/// results in input order.
///
/// Work is distributed by an atomic cursor (dynamic load balancing: cells
/// vary from milliseconds to seconds), and each result lands in its own
/// slot, so ordering is exact regardless of completion order. `jobs <= 1`
/// or a single item runs inline on the caller's thread. A panicking cell
/// propagates and fails the whole sweep.
pub(crate) fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(n) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                *results[i].lock().expect("result slot poisoned") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker filled every claimed slot")
        })
        .collect()
}

/// Projected sweep wall time (seconds) below which [`par_map_adaptive`]
/// stays serial: spawning a scoped thread pool costs on the order of a
/// hundred microseconds plus cache-warming, so fanning out a sweep that
/// finishes in a few milliseconds *loses* wall time (the nominal and
/// churn matrices at smoke effort measured 0.5–0.6× "speedups").
pub(crate) const PAR_MIN_TOTAL_S: f64 = 0.01;

/// Should a sweep whose first cell took `first_cell_s` seconds, with
/// `cells` cells in total, skip the worker pool? True when the serial
/// projection (`first_cell_s * cells`) is under `threshold_s`.
///
/// The first cell is the sample because sweep cells are near-uniform in
/// cost (same scenario shape, different parameters); a sweep whose cost
/// is front-loaded just pays the pool it would have paid anyway.
pub(crate) fn should_stay_serial(first_cell_s: f64, cells: usize, threshold_s: f64) -> bool {
    first_cell_s * cells as f64 <= threshold_s
}

/// `par_map` with a measured serial fallback: the first cell runs (and
/// is timed) on the caller's thread, and the pool is spawned for the
/// remainder only when the projected total exceeds `threshold_s`.
///
/// Results are bit-identical to `par_map` in either regime — cells are
/// independent and land in input order — so sweeps can adopt this
/// without disturbing the serial-vs-parallel conformance checks.
pub(crate) fn par_map_adaptive_with_threshold<T, R, F>(
    jobs: usize,
    items: &[T],
    threshold_s: f64,
    f: F,
) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    if jobs <= 1 || n <= 1 {
        return items.iter().map(f).collect();
    }
    let start = std::time::Instant::now();
    let first = f(&items[0]);
    let first_cell_s = start.elapsed().as_secs_f64();
    let mut out = Vec::with_capacity(n);
    out.push(first);
    if should_stay_serial(first_cell_s, n, threshold_s) {
        out.extend(items[1..].iter().map(f));
    } else {
        out.append(&mut par_map(jobs, &items[1..], f));
    }
    out
}

/// `par_map_adaptive_with_threshold` at the default `PAR_MIN_TOTAL_S`.
pub fn par_map_adaptive<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_adaptive_with_threshold(jobs, items, PAR_MIN_TOTAL_S, f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(1, &items, |&x| x * x);
        let parallel = par_map(8, &items, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[256], 256 * 256);
    }

    #[test]
    fn par_map_handles_empty_and_single() {
        let empty: Vec<u32> = vec![];
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn par_map_runs_more_items_than_workers() {
        let items: Vec<usize> = (0..1000).collect();
        let out = par_map(3, &items, |&x| x + 1);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(i, &v)| v == i + 1));
    }

    #[test]
    fn serial_projection_decides_the_fallback() {
        // 1 ms cells, 5 of them -> 5 ms projected, under a 10 ms floor.
        assert!(should_stay_serial(0.001, 5, 0.01));
        // 5 ms cells, 36 of them -> 180 ms projected, worth the pool.
        assert!(!should_stay_serial(0.005, 36, 0.01));
        // Degenerate inputs stay serial rather than spawning for nothing.
        assert!(should_stay_serial(0.0, 1000, 0.01));
    }

    #[test]
    fn adaptive_map_matches_par_map_in_both_regimes() {
        let items: Vec<u64> = (0..57).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
        // Threshold so high every sweep stays serial...
        let serial = par_map_adaptive_with_threshold(8, &items, f64::INFINITY, |&x| x * 3 + 1);
        // ...and so low (negative) every sweep takes the pool.
        let pooled = par_map_adaptive_with_threshold(8, &items, -1.0, |&x| x * 3 + 1);
        assert_eq!(serial, expect);
        assert_eq!(pooled, expect);
        // Default threshold, jobs=1 and tiny inputs: still exact.
        assert_eq!(par_map_adaptive(1, &items, |&x| x * 3 + 1), expect);
        let empty: Vec<u64> = vec![];
        assert!(par_map_adaptive(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map_adaptive(4, &[9u64], |&x| x + 1), vec![10]);
    }

    #[test]
    fn parse_jobs_accepts_positive_integers_only() {
        assert_eq!(parse_jobs("1"), Ok(1));
        assert_eq!(parse_jobs(" 16 "), Ok(16));
        assert!(parse_jobs("0").is_err());
        assert!(parse_jobs("-2").is_err());
        assert!(parse_jobs("many").is_err());
        assert!(parse_jobs("").is_err());
    }

    #[test]
    fn available_jobs_is_positive() {
        assert!(available_jobs() >= 1);
    }
}
