//! Allocation audit of the multiplexer's send and receive path.
//!
//! A frame used to cost two heap acquisitions before it reached the
//! socket (`WireMsg::encode`, then the frame around it). The reactor now
//! encodes into one reused buffer and the coalescing socket appends to
//! one reused datagram, so a frame should cost none: what still allocates
//! in a warm run is amortized growth (the RTT sample vector and pending
//! map doubling) and the engines' own bookkeeping. This test pins that
//! with a counting global allocator, as `crates/sim/tests/alloc_free.rs`
//! does for the simulator: the marginal heap acquisitions per frame
//! between a short and a long run of the same cluster stay far below one.
//!
//! Its lossy twin pins the fault path per node-round: once a lost frame
//! plants a suspicion every tick's peer pick used to collect the whole
//! cluster's unsuspected candidates into a fresh `Vec` (about nine
//! acquisitions at 1 000 nodes); the pick now walks the node's own
//! records and allocates nothing.
//!
//! The tests live in their own integration-test binary, and take turns,
//! so the global allocator's counter sees no concurrent test threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use penelope_daemon::{run_multiplexed, MuxConfig};
use penelope_net::FaultConfig;

/// Counts every heap acquisition (alloc, realloc, alloc_zeroed);
/// deallocations are free and uncounted.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Held for the length of a test: one run is counted at a time.
static TURN: Mutex<()> = Mutex::new(());

const NODES: usize = 1000;

/// Heap acquisitions and frames sent of a 1 000-engine soak of `rounds`,
/// lossless or on the benchmark's lossy cell (5 % of frames dropped, the
/// first timeout suspects).
fn soak(rounds: u64, lossy: bool) -> (u64, u64) {
    let mut cfg = MuxConfig::soak(NODES, 42, rounds);
    if lossy {
        cfg.fault = Some(FaultConfig::lossy(42 ^ 0xFA17_FA17, 50));
        cfg.node.decider.suspect_after = 1;
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    let summary = run_multiplexed(&cfg).expect("soak runs");
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    assert_eq!(summary.send_failed, 0, "loopback sends must not fail");
    assert_eq!(summary.injected_drops > 0, lossy);
    (allocs, summary.frames_sent)
}

#[test]
fn a_frame_costs_no_heap_acquisition() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // Both runs pay the same set-up (engines, sockets, tables); the
    // difference is twenty rounds of traffic and nothing else.
    let (short_allocs, short_frames) = soak(10, false);
    let (long_allocs, long_frames) = soak(30, false);
    let frames = long_frames - short_frames;
    assert!(frames > 20_000, "only {frames} extra frames — too thin");
    let per_frame = long_allocs.saturating_sub(short_allocs) as f64 / frames as f64;
    assert!(
        per_frame < 0.5,
        "{per_frame:.3} heap acquisitions per extra frame \
         ({short_allocs} at 10 rounds, {long_allocs} at 30, {frames} frames apart); \
         the send path is supposed to reuse its frame and datagram buffers"
    );
    println!("{per_frame:.4} heap acquisitions per extra frame");
}

#[test]
fn a_suspecting_node_round_stays_off_the_heap() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    let (short_allocs, short_frames) = soak(10, true);
    let (long_allocs, long_frames) = soak(30, true);
    let allocs = long_allocs.saturating_sub(short_allocs) as f64;
    let per_node_round = allocs / (NODES * 20) as f64;
    // What remains is the boxed suspicion digest and its entry `Vec`, on
    // each side of every grant and ack.
    assert!(
        per_node_round < 4.0,
        "{per_node_round:.2} heap acquisitions per extra node-round \
         ({short_allocs} at 10 rounds, {long_allocs} at 30); \
         a suspecting peer pick is supposed to walk the records it holds"
    );
    let per_frame = allocs / (long_frames - short_frames) as f64;
    println!(
        "{per_node_round:.2} heap acquisitions per extra lossy node-round, {per_frame:.2} per frame"
    );
}
