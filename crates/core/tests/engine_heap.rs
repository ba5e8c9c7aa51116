//! The heap an engine holds, pinned byte for byte.
//!
//! A sharded run builds 10^5–10^6 engines, and beside each `NodeEngine`
//! it keeps whatever heap blocks the engine's tables own. This binary
//! counts them with its own global allocator: how many acquisitions a
//! step makes and how many bytes stay live after it. Counts are kept per
//! thread, so the test harness's own threads never enter a measurement.
//!
//! The pinned shape: the no-op observer and a fresh engine own nothing;
//! a donor that has served one peer owns one escrow slot (kept when the
//! ack empties it) and one peer record (the acked floor); more peers grow
//! the record table by a quarter, not once per record.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use penelope_core::{
    EngineConfig, EngineInput, EngineOutput, GrantAck, NodeEngine, NodeParams, PeerMsg,
    PowerRequest,
};
use penelope_testkit::TestRng;
use penelope_trace::SharedObserver;
use penelope_units::{NodeId, Power, SimTime};

/// Counts this thread's heap acquisitions (alloc, realloc, alloc_zeroed)
/// and the bytes it holds live.
struct CountingAlloc;

thread_local! {
    static ACQUIRED: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn note(acquired: u64, bytes: i64) {
    let _ = ACQUIRED.try_with(|c| c.set(c.get() + acquired));
    let _ = LIVE.try_with(|c| c.set(c.get() + bytes));
}

// SAFETY: every method hands its arguments unchanged to `System`, so the
// caller's guarantees under `GlobalAlloc`'s contract carry over; `note`
// touches only constant-initialised thread-local cells, which never
// allocate and have no destructor.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, -(layout.size() as i64));
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(1, new_size as i64 - layout.size() as i64);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(1, layout.size() as i64);
        // SAFETY: forwarded unchanged (see the impl).
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// This thread's `(acquisitions, live bytes)` so far.
fn counters() -> (u64, i64) {
    (ACQUIRED.with(Cell::get), LIVE.with(Cell::get))
}

/// What running `f` acquired and what it left live.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let (a0, l0) = counters();
    let value = f();
    let (a1, l1) = counters();
    (value, a1 - a0, l1 - l0)
}

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

fn n(i: u32) -> NodeId {
    NodeId::new(i)
}

/// One full served exchange with `peer`: its request, the transport's
/// delivered outcome for the grant, and the peer's ack. The output buffer
/// is the caller's, reused as a driver reuses its own.
fn serve(e: &mut NodeEngine, peer: u32, out: &mut Vec<EngineOutput>) {
    let mut rng = TestRng::seed_from_u64(7);
    let now = SimTime::from_secs(1);
    let inputs = [
        EngineInput::Msg {
            src: n(peer),
            msg: PeerMsg::Request(PowerRequest {
                from: n(peer),
                urgent: false,
                alpha: w(5),
                seq: 0,
            }),
        },
        EngineInput::GrantOutcome {
            requester: n(peer),
            seq: 0,
            amount: w(5),
            delivered: true,
        },
        EngineInput::Msg {
            src: n(peer),
            msg: PeerMsg::Ack(GrantAck { seq: 0 }, None),
        },
    ];
    for input in inputs {
        out.clear();
        e.handle(now, input, &mut rng, out);
    }
}

#[test]
fn the_noop_observer_acquires_nothing() {
    let (obs, acquired, live) = measure(SharedObserver::noop);
    assert_eq!((acquired, live), (0, 0));
    assert!(!obs.enabled());
    assert_eq!(std::mem::size_of::<SharedObserver>(), 16);
}

#[test]
fn a_served_donor_holds_one_escrow_slot_and_one_record() {
    let cfg = Arc::new(EngineConfig::new(NodeParams::default()));
    let mut out = Vec::with_capacity(16);

    let (mut e, acquired, live) =
        measure(|| NodeEngine::new(n(0), 8, cfg.clone(), w(150), SharedObserver::noop()));
    assert_eq!(
        (acquired, live),
        (0, 0),
        "a fresh engine on a shared config owns no heap"
    );

    e.pool_mut().deposit(w(40));
    let ((), _, live) = measure(|| serve(&mut e, 1, &mut out));
    assert_eq!(e.escrow_len(), 0, "the ack released the escrow entry");
    assert_eq!(
        live, 80,
        "one served peer costs one 32-byte escrow slot and one 48-byte acked floor"
    );

    // A second peer adds a record: the table grows once, by a quarter
    // plus four, and the peers after it fit without another acquisition.
    // The emptied escrow slot takes each new grant.
    let ((), acquired, _) = measure(|| serve(&mut e, 2, &mut out));
    assert_eq!(acquired, 1, "the second record grows the table once");
    let ((), acquired, _) = measure(|| {
        for peer in 3..=5 {
            serve(&mut e, peer, &mut out);
        }
    });
    assert_eq!(acquired, 0, "records three to five fit the grown table");
}
