//! Allocation audit of the simulator's steady-state inner loop.
//!
//! The hot path is supposed to be allocation-free per event once warm:
//! the driver reuses one `EngineOutput` buffer across events, message
//! payloads are plain enums (digests are `None` on fault-free runs, so
//! no `Box` is built), the event queue recycles slab slots, and the
//! per-node maps reach a steady working set. This test pins that claim
//! with a counting global allocator: after a warm-up window, a further
//! simulated window of tens of thousands of events must stay under a
//! small constant allocation budget. The metrics collector folds each
//! figure into constant-size state, so it adds nothing per event.
//!
//! A SLURM cell is held to zero: only SLURM cells push server
//! completions, which ride the event queue's timer lane, and once warm
//! its window acquires nothing at all.
//!
//! The sharded simulator's twin pins its calendar: an event is appended
//! to the `Vec` of the lookahead bucket that will deliver it, and a
//! round orders its bucket with key buffers the calendar keeps from round
//! to round, so what a warm run acquires is a `Vec` per bucket and its
//! doublings, plus the engines' own escrow and peer records — per round
//! and per new peer, not per event. The key buffers grow only when a
//! bucket outgrows every earlier one, which a warm run seldom sees.
//!
//! The tests live in their own integration-test binary, and its
//! allocator counts per thread: the test harness's own thread, which
//! collects a finished test's output while the next one runs, never
//! enters a window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use penelope_power::RaplConfig;
use penelope_sim::{ClusterConfig, ClusterSim, ShardedConfig, ShardedSim, SystemKind};
use penelope_units::{Power, PowerRange, SimDuration, SimTime};
use penelope_workload::{PerfModel, Phase, Profile};

/// Counts this thread's heap acquisitions (alloc, realloc,
/// alloc_zeroed); deallocations are free and uncounted.
struct CountingAlloc;

thread_local! {
    static ACQUIRED: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    let _ = ACQUIRED.try_with(|c| c.set(c.get() + 1));
}

/// Heap acquisitions this thread has made so far.
fn allocs() -> u64 {
    ACQUIRED.with(Cell::get)
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller's guarantees under `GlobalAlloc`'s contract carry over; `note`
// touches only a constant-initialised thread-local cell, which never
// allocates and has no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

#[test]
fn steady_state_inner_loop_does_not_allocate() {
    // 16 Penelope nodes, half starved and half saturated, on workloads
    // far longer than the horizon so the protocol churns (classify,
    // deposit, request, grant, ack, retransmit) for the whole window
    // without any completion edge.
    let n = 16usize;
    let workloads: Vec<Profile> = (0..n)
        .map(|i| {
            let demand = if i % 2 == 0 { 100 } else { 250 };
            Profile::new(
                format!("app{i}"),
                vec![Phase::new(w(demand), 1e9)],
                PerfModel::new(w(60), 1.0),
            )
        })
        .collect();
    let mut cfg = ClusterConfig::paper_defaults(SystemKind::Penelope, w(160 * n as u64));
    cfg.rapl = RaplConfig {
        safe_range: PowerRange::from_watts(80, 300),
        actuation_delay: SimDuration::ZERO,
        read_noise_std: 0.0,
    };
    let mut sim = ClusterSim::builder()
        .config(cfg)
        .workloads(workloads)
        .build();

    // Warm-up: let every queue, slab, map and reuse buffer reach its
    // working-set capacity (several response-timeout cycles deep).
    sim.advance_to(SimTime::from_secs(15));

    let before = allocs();
    sim.advance_to(SimTime::from_secs(45));
    let after = allocs();
    let delta = after - before;

    // 30 simulated seconds ≈ 16 nodes × 60 ticks plus the full message
    // and service-event traffic between them — thousands of events. A
    // per-event allocation anywhere in the loop would cost thousands
    // here; the budget is what the window measures (4; 16 while the
    // decider's applied seqs were a `Vec` that grew in the window), room
    // only for the engines' own tables reaching a new high-water mark.
    assert!(
        delta <= 4,
        "steady-state window performed {delta} heap allocations; \
         the inner loop is supposed to be allocation-free per event \
         (reused output buffers, slab-recycled events, boxless messages)"
    );
    println!("{delta} heap acquisitions over the Penelope window");

    // The window really did run protocol traffic, not a quiesced no-op.
    let report = sim.finish();
    assert!(
        report.net.offered() > 100,
        "audit window saw only {} messages — not a hot-path measurement",
        report.net.offered()
    );
}

#[test]
fn steady_state_slurm_inner_loop_does_not_allocate() {
    // The same 16 half-starved, half-saturated nodes, under one SLURM
    // server.
    let n = 16usize;
    let workloads: Vec<Profile> = (0..n)
        .map(|i| {
            let demand = if i % 2 == 0 { 100 } else { 250 };
            Profile::new(
                format!("app{i}"),
                vec![Phase::new(w(demand), 1e9)],
                PerfModel::new(w(60), 1.0),
            )
        })
        .collect();
    let mut cfg = ClusterConfig::paper_defaults(SystemKind::Slurm, w(160 * n as u64));
    cfg.rapl = RaplConfig {
        safe_range: PowerRange::from_watts(80, 300),
        actuation_delay: SimDuration::ZERO,
        read_noise_std: 0.0,
    };
    let mut sim = ClusterSim::builder()
        .config(cfg)
        .workloads(workloads)
        .build();
    sim.advance_to(SimTime::from_secs(15));

    let before = allocs();
    sim.advance_to(SimTime::from_secs(45));
    let delta = allocs() - before;
    assert_eq!(
        delta, 0,
        "steady-state SLURM window performed {delta} heap allocations; \
         the inner loop is supposed to be allocation-free"
    );

    let report = sim.finish();
    let served = report.server_queue.expect("a SLURM cell has a server");
    assert!(
        served.accepted > 100,
        "the run served only {} requests — not a hot-path measurement",
        served.accepted
    );
    println!("{delta} heap acquisitions over the SLURM window");
}

/// Heap acquisitions and executed engine inputs of a dense sharded run:
/// 4 096 nodes, every second one hungry, one shard.
fn dense_shard_run(periods: u64) -> (u64, u64) {
    let cfg = ShardedConfig {
        recipient_every: 2,
        ..ShardedConfig::mega(4096, periods, 42)
    };
    let before = allocs();
    let report = ShardedSim::new(cfg).run();
    let allocs = allocs() - before;
    assert!(report.conservation_ok);
    (allocs, report.executed_events)
}

#[test]
fn a_sharded_input_costs_no_heap_acquisition() {
    // Both runs pay the same set-up (engines, columns, the first wake
    // list); the difference is four periods of traffic and nothing else.
    let (short_allocs, short_inputs) = dense_shard_run(2);
    let (long_allocs, long_inputs) = dense_shard_run(6);
    let inputs = long_inputs - short_inputs;
    assert!(inputs > 30_000, "only {inputs} extra inputs — too thin");
    let per_input = long_allocs.saturating_sub(short_allocs) as f64 / inputs as f64;
    // Measured 0.077 (0.070 on the binary heap this calendar replaced:
    // nine tenths of it is the engines' own escrow and peer records). An
    // acquisition per queued event would read above 0.5: every second
    // input queues a message.
    assert!(
        per_input < 0.15,
        "{per_input:.3} heap acquisitions per extra executed input \
         ({short_allocs} at 2 periods, {long_allocs} at 6, {inputs} inputs apart); \
         the calendar is supposed to grow a `Vec` per bucket, not per event"
    );
    println!("{per_input:.4} heap acquisitions per extra executed input");
}
