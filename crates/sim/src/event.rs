//! The event queue.
//!
//! This is the simulator's hottest data structure: every tick, message
//! delivery and service completion passes through one push and one pop.
//! Events are kept in a slab of reusable slots; the ordering structures
//! hold only a compact *index-stamped* key — `(time, sequence, slot)`, 24
//! bytes — so ordering never moves the (much larger) event payloads and a
//! slot freed by `pop` is handed straight to the next `push`. At steady
//! state the queue allocates nothing per event: message envelopes are
//! written into recycled slots instead of freshly allocated nodes.
//!
//! Most keys need no heap. A re-armed `Tick` lands at `now + period`, an
//! `EscrowTimeout` at `now + escrow_timeout`, and a `ServerProcess` leaves
//! one FIFO server, so each kind arrives in time order already. Those
//! kinds go to a FIFO lane (one for ticks, one for timers) whenever the key
//! is not earlier than the lane's tail, and to the binary heap otherwise —
//! a restart tick, a jittered first tick, a second server's completion.
//! Every other kind goes to the heap. `pop` takes the least key among the
//! lane heads and the heap top, so the `(time, sequence)` order is the
//! same as a single heap's whatever the routing.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use penelope_core::PeerMsg;
use penelope_net::Envelope;
use penelope_slurm::SlurmMsg;
use penelope_units::{NodeId, SimTime};

use crate::faults::FaultAction;

/// Everything that can happen in the simulated cluster.
#[derive(Clone, Debug)]
pub enum Event {
    /// A node's decider iteration.
    Tick(NodeId),
    /// A Penelope protocol message arrives at its destination.
    DeliverPeer(Envelope<PeerMsg>),
    /// A Penelope pool finishes servicing a request (emits the grant).
    PoolProcess(Envelope<PeerMsg>),
    /// A SLURM protocol message arrives (client→server or server→client).
    DeliverSlurm(Envelope<SlurmMsg>),
    /// The SLURM server finishes servicing a queued message.
    ServerProcess(Envelope<SlurmMsg>),
    /// A scripted fault fires.
    Fault(FaultAction),
    /// A granter's escrow deadline for one unacknowledged grant expires.
    EscrowTimeout {
        /// The node whose pool served (and escrowed) the grant.
        granter: NodeId,
        /// The requester the grant was addressed to.
        requester: NodeId,
        /// The request's sequence number.
        seq: u64,
    },
}

/// An event scheduled at a virtual time. Ties are broken by insertion
/// sequence, which makes runs deterministic regardless of heap internals.
#[derive(Clone, Debug)]
pub struct Scheduled {
    /// When the event fires.
    pub at: SimTime,
    /// Insertion sequence number (tie-break).
    pub seq: u64,
    /// The event.
    pub event: Event,
}

/// The compact ordering key: everything the ordering needs, plus the slot
/// the payload lives in. `seq` is unique per push, so two keys never
/// compare equal and FIFO tie-breaking at equal timestamps is total.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct HeapKey {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl HeapKey {
    fn before(&self, other: &HeapKey) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The FIFO lane an event kind may ride: ticks, or timers.
fn lane_of(event: &Event) -> Option<usize> {
    match event {
        Event::Tick(_) => Some(0),
        Event::EscrowTimeout { .. } | Event::ServerProcess(_) => Some(1),
        _ => None,
    }
}

/// A deterministic min-time event queue over a slab of reusable slots.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<HeapKey>,
    /// Ascending runs of keys, appended at the back and popped at the front.
    lanes: [VecDeque<HeapKey>; 2],
    slots: Vec<Option<Event>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Lane-kind pushes that fell back to the heap.
    #[cfg(test)]
    fallbacks: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with room for `n` in-flight events before the slab
    /// has to grow.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            lanes: [VecDeque::with_capacity(n), VecDeque::with_capacity(n)],
            slots: Vec::with_capacity(n),
            ..Self::default()
        }
    }

    /// Schedule `event` at `at`.
    pub fn push(&mut self, at: SimTime, event: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let lane = lane_of(&event);
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab full");
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        };
        let key = HeapKey { at, seq, slot };
        if let Some(lane) = lane.map(|l| &mut self.lanes[l]) {
            // `seq` only grows, so a key not earlier than the tail is later.
            if lane.back().is_none_or(|tail| tail.at <= at) {
                lane.push_back(key);
                return;
            }
            #[cfg(test)]
            {
                self.fallbacks += 1;
            }
        }
        self.heap.push(key);
    }

    /// The least pending key and the lane holding it (`None`: the heap).
    fn head(&self) -> Option<(HeapKey, Option<usize>)> {
        let mut best = self.heap.peek().map(|&k| (k, None));
        for (l, lane) in self.lanes.iter().enumerate() {
            if let Some(&k) = lane.front() {
                if best.is_none_or(|(b, _)| k.before(&b)) {
                    best = Some((k, Some(l)));
                }
            }
        }
        best
    }

    /// Pop the earliest event (FIFO among equal timestamps).
    pub fn pop(&mut self) -> Option<Scheduled> {
        let (key, lane) = self.head()?;
        match lane {
            Some(l) => self.lanes[l].pop_front(),
            None => self.heap.pop(),
        };
        let event = self.slots[key.slot as usize]
            .take()
            .expect("a key points at an occupied slot");
        self.free.push(key.slot);
        Some(Scheduled {
            at: key.at,
            seq: key.seq,
            event,
        })
    }

    /// Peek at the earliest event's time.
    pub(crate) fn next_time(&self) -> Option<SimTime> {
        self.head().map(|(k, _)| k.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True iff no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lane-kind pushes so far that found their lane's tail later and
    /// went to the heap.
    #[cfg(test)]
    pub(crate) fn fallbacks(&self) -> u64 {
        self.fallbacks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    fn tick_ids(q: &mut EventQueue) -> Vec<u32> {
        std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Tick(n) => n.raw(),
                _ => unreachable!(),
            })
            .collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), Event::Tick(NodeId::new(3)));
        q.push(t(10), Event::Tick(NodeId::new(1)));
        q.push(t(20), Event::Tick(NodeId::new(2)));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|s| s.at.as_nanos() / 1_000_000)
            .collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn ties_broken_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.push(t(5), Event::Tick(NodeId::new(i)));
        }
        assert_eq!(tick_ids(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn equal_timestamp_fifo_survives_interleaved_batches() {
        // Push a batch at t=5, drain part of it, push a second batch at the
        // same timestamp: the remainder of batch A must still precede all
        // of batch B, even though B reuses A's freed slots.
        let mut q = EventQueue::new();
        for i in 0..10u32 {
            q.push(t(5), Event::Tick(NodeId::new(i)));
        }
        let mut order = Vec::new();
        for _ in 0..4 {
            order.push(match q.pop().unwrap().event {
                Event::Tick(n) => n.raw(),
                _ => unreachable!(),
            });
        }
        for i in 10..20u32 {
            q.push(t(5), Event::Tick(NodeId::new(i)));
        }
        order.extend(tick_ids(&mut q));
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_batches_order_globally_by_time_then_seq() {
        // Batches inserted out of time order, interleaved with pops: the
        // merged output is sorted by (time, insertion sequence).
        let mut q = EventQueue::new();
        q.push(t(40), Event::Tick(NodeId::new(40)));
        q.push(t(10), Event::Tick(NodeId::new(10)));
        q.push(t(40), Event::Tick(NodeId::new(41)));
        assert_eq!(tick_ids(&mut q)[..1], [10]); // drains 10, 40, 41
        q.push(t(30), Event::Tick(NodeId::new(30)));
        q.push(t(20), Event::Tick(NodeId::new(20)));
        q.push(t(30), Event::Tick(NodeId::new(31)));
        assert_eq!(tick_ids(&mut q), vec![20, 30, 31]);
    }

    #[test]
    fn slab_slots_are_reused_not_grown() {
        // A bounded number of in-flight events keeps the slab bounded no
        // matter how many events pass through — the no-per-event-allocation
        // property the DES hot loop relies on.
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            for i in 0..8u32 {
                q.push(t(round), Event::Tick(NodeId::new(i)));
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.slots.len(), 8);
    }

    #[test]
    fn next_time_peeks_without_popping() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_time(), None);
        q.push(t(7), Event::Tick(NodeId::new(0)));
        assert_eq!(q.next_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    /// A push-index-stamped event of kind `kind` (0..7, every variant).
    fn event(kind: u8, i: u32) -> Event {
        let id = NodeId::new(i);
        let env = || Envelope {
            src: id,
            dst: id,
            sent_at: SimTime::ZERO,
            deliver_at: SimTime::ZERO,
            msg: (),
        };
        let peer = || env().map(|()| PeerMsg::Ack(penelope_core::GrantAck { seq: 0 }, None));
        let slurm = || {
            env().map(|()| SlurmMsg::Report {
                from: id,
                excess: penelope_units::Power::ZERO,
            })
        };
        match kind {
            0 => Event::Tick(id),
            1 => Event::DeliverPeer(peer()),
            2 => Event::PoolProcess(peer()),
            3 => Event::DeliverSlurm(slurm()),
            4 => Event::ServerProcess(slurm()),
            5 => Event::Fault(FaultAction::Kill(id)),
            _ => Event::EscrowTimeout {
                granter: id,
                requester: id,
                seq: i as u64,
            },
        }
    }

    /// The push index an [`event`] was stamped with.
    fn stamp(e: &Event) -> u32 {
        match e {
            Event::Tick(id) | Event::Fault(FaultAction::Kill(id)) => id.raw(),
            Event::DeliverPeer(env) | Event::PoolProcess(env) => env.src.raw(),
            Event::DeliverSlurm(env) | Event::ServerProcess(env) => env.src.raw(),
            Event::EscrowTimeout { granter, .. } => granter.raw(),
            Event::Fault(_) => unreachable!(),
        }
    }

    #[test]
    fn pops_the_order_of_a_sorted_model() {
        use penelope_testkit::prop::{self, vec_of};
        use std::cell::Cell;
        // Each op is (action, kind, offset): action 0..3 pops, anything
        // else pushes an event of `kind` at the last popped time plus
        // `offset` less 4 ms, so equal timestamps, pushes earlier than the
        // last pop and pushes behind a lane's tail are all common.
        let (fallbacks, laned) = (Cell::new(0), Cell::new(0));
        prop::check(
            "lanes and heap pop in (at, seq) order",
            prop::Config::default(),
            vec_of((0u8..10, 0u8..7, 0u64..16), 1..400),
            |ops| {
                let mut q = EventQueue::new();
                let mut model: Vec<(SimTime, u64, u32)> = Vec::new();
                let mut last = 0u64;
                let mut pushed = 0u32;
                for &(action, kind, offset) in &ops {
                    if action < 3 {
                        let want = (0..model.len())
                            .min_by_key(|&j| (model[j].0, model[j].1))
                            .map(|j| model.remove(j));
                        let got = q.pop().map(|s| (s.at, s.seq, stamp(&s.event)));
                        assert_eq!(got, want);
                        if let Some((at, ..)) = got {
                            last = at.as_nanos() / 1_000_000;
                        }
                    } else {
                        let at = t((last + offset).saturating_sub(4));
                        q.push(at, event(kind, pushed));
                        model.push((at, u64::from(pushed), pushed));
                        pushed += 1;
                        laned.set(laned.get() + q.lanes.iter().map(VecDeque::len).sum::<usize>());
                    }
                    assert_eq!(q.len(), model.len());
                    assert_eq!(q.next_time(), model.iter().map(|m| m.0).min());
                }
                while let Some(s) = q.pop() {
                    let j = (0..model.len())
                        .min_by_key(|&j| (model[j].0, model[j].1))
                        .expect("the model holds as many as the queue");
                    assert_eq!((s.at, s.seq, stamp(&s.event)), model.remove(j));
                }
                assert!(model.is_empty());
                fallbacks.set(fallbacks.get() + q.fallbacks());
            },
        );
        assert!(laned.get() > 0, "no case put a key on a lane");
        assert!(fallbacks.get() > 0, "no case fell back from a lane");
    }
}
