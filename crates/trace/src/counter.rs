//! Lock-free counters and a grant-size histogram over the event stream.

use std::sync::atomic::{AtomicU64, Ordering};

use penelope_units::Power;

use crate::event::{EventKind, TraceEvent, KIND_COUNT, KIND_NAMES};
use crate::observer::Observer;

/// Number of log₂ buckets in the grant-size histogram.
pub(crate) const HIST_BUCKETS: usize = 32;

/// Counts events by kind, accumulates the power moved by each kind of
/// transaction, and keeps a log₂ histogram of grant sizes. All state is
/// atomic, so every substrate (including the multi-threaded ones) can share
/// one instance; this is the common "status counter" shape reported by
/// local simulations and remote daemons alike.
#[derive(Debug, Default)]
pub struct CounterObserver {
    kinds: [AtomicU64; KIND_COUNT],
    deposited_mw: AtomicU64,
    withdrawn_mw: AtomicU64,
    granted_mw: AtomicU64,
    applied_mw: AtomicU64,
    grant_hist: [AtomicU64; HIST_BUCKETS],
}

impl CounterObserver {
    /// A fresh, all-zero counter set.
    pub fn new() -> Self {
        CounterObserver::default()
    }

    /// Histogram bucket for a grant of `amount`: bucket *b* holds grants
    /// with `2^(b-1) ≤ milliwatts < 2^b` (bucket 0 is zero-power grants).
    fn bucket(amount: Power) -> usize {
        let mw = amount.milliwatts();
        let bits = (u64::BITS - mw.leading_zeros()) as usize;
        bits.min(HIST_BUCKETS - 1)
    }

    /// A consistent-enough copy of the counters (individual loads are
    /// atomic; the set is not a consistent cut, which is fine for
    /// monitoring).
    pub fn snapshot(&self) -> CounterSnapshot {
        let mut kinds = [0u64; KIND_COUNT];
        for (slot, counter) in kinds.iter_mut().zip(&self.kinds) {
            *slot = counter.load(Ordering::Relaxed);
        }
        let mut grant_hist = [0u64; HIST_BUCKETS];
        for (slot, counter) in grant_hist.iter_mut().zip(&self.grant_hist) {
            *slot = counter.load(Ordering::Relaxed);
        }
        CounterSnapshot {
            kinds,
            deposited: Power::from_milliwatts(self.deposited_mw.load(Ordering::Relaxed)),
            withdrawn: Power::from_milliwatts(self.withdrawn_mw.load(Ordering::Relaxed)),
            granted: Power::from_milliwatts(self.granted_mw.load(Ordering::Relaxed)),
            applied: Power::from_milliwatts(self.applied_mw.load(Ordering::Relaxed)),
            grant_hist,
        }
    }
}

impl Observer for CounterObserver {
    fn on_event(&self, ev: &TraceEvent) {
        self.kinds[ev.kind.tag()].fetch_add(1, Ordering::Relaxed);
        match ev.kind {
            EventKind::PoolDeposit { amount, .. } => {
                self.deposited_mw
                    .fetch_add(amount.milliwatts(), Ordering::Relaxed);
            }
            EventKind::PoolWithdraw { amount, .. } => {
                self.withdrawn_mw
                    .fetch_add(amount.milliwatts(), Ordering::Relaxed);
            }
            EventKind::RequestServed { granted, .. } => {
                self.granted_mw
                    .fetch_add(granted.milliwatts(), Ordering::Relaxed);
                self.grant_hist[Self::bucket(granted)].fetch_add(1, Ordering::Relaxed);
            }
            EventKind::GrantApplied { applied, .. } => {
                self.applied_mw
                    .fetch_add(applied.milliwatts(), Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

/// Plain-data copy of a [`CounterObserver`]'s state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Event counts, one per [`EventKind`] variant in declaration order;
    /// [`CounterSnapshot::count`] reads one by its JSONL name.
    pub kinds: [u64; KIND_COUNT],
    /// Total power deposited into pools.
    pub deposited: Power,
    /// Total power withdrawn locally from pools.
    pub withdrawn: Power,
    /// Total power granted to peers (sum of `RequestServed.granted`).
    pub granted: Power,
    /// Total granted power applied to caps (sum of `GrantApplied.applied`).
    pub applied: Power,
    /// log₂ histogram of grant sizes in milliwatts (bucket 0 = zero-power
    /// grants, bucket *b* = `2^(b-1) ≤ mw < 2^b`).
    pub grant_hist: [u64; HIST_BUCKETS],
}

impl CounterSnapshot {
    /// Count of events of the kind named `name` (see `KIND_NAMES`).
    pub fn count(&self, name: &str) -> u64 {
        KIND_NAMES
            .iter()
            .position(|k| *k == name)
            .map(|i| self.kinds[i])
            .unwrap_or(0)
    }

    /// Requests this node sent to peers.
    pub fn requests_sent(&self) -> u64 {
        self.count("request_sent")
    }

    /// Total events observed.
    pub fn total_events(&self) -> u64 {
        self.kinds.iter().sum()
    }
}

impl Default for CounterSnapshot {
    fn default() -> Self {
        CounterSnapshot {
            kinds: [0; KIND_COUNT],
            deposited: Power::ZERO,
            withdrawn: Power::ZERO,
            granted: Power::ZERO,
            applied: Power::ZERO,
            grant_hist: [0; HIST_BUCKETS],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_units::{NodeId, SimTime};

    fn ev(kind: EventKind) -> TraceEvent {
        TraceEvent {
            at: SimTime::from_secs(1),
            node: NodeId::new(0),
            period: 1,
            kind,
        }
    }

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    #[test]
    fn counts_kinds_and_power_totals() {
        let c = CounterObserver::new();
        c.on_event(&ev(EventKind::PoolDeposit {
            amount: w(10),
            pool: w(10),
        }));
        c.on_event(&ev(EventKind::PoolWithdraw {
            amount: w(4),
            pool: w(6),
        }));
        c.on_event(&ev(EventKind::RequestServed {
            requester: NodeId::new(1),
            seq: 0,
            granted: w(3),
            urgent: false,
        }));
        c.on_event(&ev(EventKind::GrantApplied {
            seq: 0,
            granted: w(3),
            applied: w(3),
        }));
        let snap = c.snapshot();
        assert_eq!(snap.count("pool_deposit"), 1);
        assert_eq!(snap.deposited, w(10));
        assert_eq!(snap.withdrawn, w(4));
        assert_eq!(snap.granted, w(3));
        assert_eq!(snap.applied, w(3));
        assert_eq!(snap.count("request_served"), 1);
        assert_eq!(snap.total_events(), 4);
    }

    #[test]
    fn grant_histogram_uses_log2_buckets() {
        let c = CounterObserver::new();
        for mw in [0u64, 1, 2, 3, 4, 1024] {
            c.on_event(&ev(EventKind::RequestServed {
                requester: NodeId::new(1),
                seq: 0,
                granted: Power::from_milliwatts(mw),
                urgent: false,
            }));
        }
        let h = c.snapshot().grant_hist;
        assert_eq!(h[0], 1); // 0 mW
        assert_eq!(h[1], 1); // 1 mW
        assert_eq!(h[2], 2); // 2-3 mW
        assert_eq!(h[3], 1); // 4-7 mW
        assert_eq!(h[11], 1); // 1024-2047 mW
    }

    #[test]
    fn unknown_kind_name_counts_zero() {
        assert_eq!(CounterSnapshot::default().count("nope"), 0);
    }
}
