//! The abortable phase barrier [`ShardedSim`] paces its shard workers
//! with, and the guard that aborts it when a worker panics.
//!
//! [`ShardedSim`]: crate::shard::ShardedSim

use std::sync::{Condvar, Mutex};

/// `std::sync::Barrier` plus an abort. The standard barrier does not
/// poison — a thread that unwound without arriving would leave the other
/// parties waiting forever — so this one keeps an `aborted` flag under
/// the same lock as the arrival count: once it is set, every waiter is
/// woken and nobody blocks here again.
pub(crate) struct PhaseBarrier {
    parties: usize,
    state: Mutex<BarrierState>,
    moved: Condvar,
}

/// Nothing panics while holding the barrier's lock.
const UNPOISONED: &str = "the barrier's lock is never held across a panic";

#[derive(Default)]
struct BarrierState {
    arrived: usize,
    generation: u64,
    aborted: bool,
}

impl PhaseBarrier {
    /// A barrier that releases once `parties` threads have arrived.
    pub fn new(parties: usize) -> Self {
        PhaseBarrier {
            parties,
            state: Mutex::default(),
            moved: Condvar::new(),
        }
    }

    /// How many threads each crossing waits for.
    pub(crate) fn parties(&self) -> usize {
        self.parties
    }

    /// Arrive, and block until all parties have. False once the barrier
    /// is aborted: the caller stops there, and so does everyone else.
    pub(crate) fn wait(&self) -> bool {
        let mut state = self.state.lock().expect(UNPOISONED);
        if state.aborted {
            return false;
        }
        state.arrived += 1;
        if state.arrived == self.parties {
            state.arrived = 0;
            state.generation += 1;
            self.moved.notify_all();
            return true;
        }
        let generation = state.generation;
        while state.generation == generation && !state.aborted {
            state = self.moved.wait(state).expect(UNPOISONED);
        }
        !state.aborted
    }

    /// Release every waiter, now and from now on, with `false`.
    pub(crate) fn abort(&self) {
        self.state.lock().expect(UNPOISONED).aborted = true;
        self.moved.notify_all();
    }
}

/// Held by every party for as long as it takes part: a panic aborts the
/// barrier on its way out, so nobody waits for a thread that is gone.
pub(crate) struct AbortOnPanic<'a>(pub &'a PhaseBarrier);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.abort();
        }
    }
}
