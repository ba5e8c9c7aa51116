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
//! Its lossy twin pins the fault path per frame. Once a lost frame plants
//! a suspicion, every grant and ack carries a boxed suspicion digest, and
//! each tick's peer pick walks the node's own records. The pick allocates
//! nothing, and a digest box comes from the thread's spares and goes back
//! after the encode or the merge, so what remains is amortized growth:
//! 0.16 acquisitions per lossy frame, against 2.55 with a fresh box and
//! entry `Vec` per digest.
//!
//! The third test covers a fault-free run past the seq window. A node
//! that has spent more than `APPLIED_SEQ_WINDOW` seqs attaches an
//! incarnation-only digest to every grant and ack: 0.01 acquisitions per
//! frame with the spares, 0.51 with a fresh box per message.
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

/// Heap acquisitions and frames sent of a soak of `nodes` engines for
/// `rounds`, lossless or on the benchmark's lossy cell (5 % of frames
/// dropped, the first timeout suspects).
fn soak(nodes: usize, rounds: u64, lossy: bool) -> (u64, u64) {
    let mut cfg = MuxConfig::soak(nodes, 42, rounds);
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
    let (short_allocs, short_frames) = soak(NODES, 10, false);
    let (long_allocs, long_frames) = soak(NODES, 30, false);
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
    let (short_allocs, short_frames) = soak(NODES, 10, true);
    let (long_allocs, long_frames) = soak(NODES, 30, true);
    let allocs = long_allocs.saturating_sub(short_allocs) as f64;
    let per_frame = allocs / (long_frames - short_frames) as f64;
    // What remains is amortized growth: RTT samples, escrow and the
    // peer tables' records as suspicion spreads.
    assert!(
        per_frame <= 0.5,
        "{per_frame:.3} heap acquisitions per extra lossy frame \
         ({short_allocs} at 10 rounds, {long_allocs} at 30); \
         a suspecting peer pick is supposed to walk the records it holds, \
         and a digest box to come from the thread's spares"
    );
    let per_node_round = allocs / (NODES * 20) as f64;
    println!(
        "{per_node_round:.2} heap acquisitions per extra lossy node-round, {per_frame:.3} per frame"
    );
}

#[test]
fn an_incarnation_only_digest_reuses_its_box() {
    let _turn = TURN.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
    // 256 nodes spend their first 64 seqs well before round 150, so every
    // grant and ack in the window carries its sender's incarnation.
    let (short_allocs, short_frames) = soak(256, 150, false);
    let (long_allocs, long_frames) = soak(256, 250, false);
    let frames = long_frames - short_frames;
    let per_frame = long_allocs.saturating_sub(short_allocs) as f64 / frames as f64;
    assert!(
        per_frame < 0.2,
        "{per_frame:.3} heap acquisitions per extra frame past the seq window \
         ({short_allocs} at 150 rounds, {long_allocs} at 250, {frames} frames apart); \
         an incarnation-only digest is supposed to reuse a spare box"
    );
    println!("{per_frame:.4} heap acquisitions per extra frame past the seq window");
}
