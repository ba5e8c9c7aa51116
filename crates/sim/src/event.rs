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
//!
//! Each pop searches for that least key once. The simulator's loop calls
//! `pop_until(until)`, which finds the head, returns `None` if the queue
//! is empty or the head is later than `until`, and otherwise pops the
//! head from the lane or heap that holds it: one search per event.
//!
//! A key on the tick lane carries the ticking node, not a slot: a `Tick`
//! is nothing but its `NodeId`, so a laned tick never touches the slab and
//! is rebuilt from the key when it pops. A tick that falls back to the heap
//! takes a slot like any other event.

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
/// the payload lives in (on the tick lane: the ticking node's raw id).
/// `seq` is unique per push, so two keys never compare equal and FIFO
/// tie-breaking at equal timestamps is total.
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

/// The tick lane: its keys hold a node, not a slot.
const TICKS: usize = 0;

/// Where [`EventQueue::head`] reports a key the heap holds (lanes are 0
/// and 1).
const HEAP: usize = 2;

/// The FIFO lane an event kind may ride: ticks, or timers.
fn lane_of(event: &Event) -> Option<usize> {
    match event {
        Event::Tick(_) => Some(TICKS),
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
    #[cfg(test)]
    pub(crate) fn new() -> Self {
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
        if let Some(l) = lane_of(&event) {
            // `seq` only grows, so a key not earlier than the tail is later.
            if self.lanes[l].back().is_none_or(|tail| tail.at <= at) {
                let slot = match event {
                    Event::Tick(node) => node.raw(),
                    event => self.store(event),
                };
                self.lanes[l].push_back(HeapKey { at, seq, slot });
                return;
            }
            #[cfg(test)]
            {
                self.fallbacks += 1;
            }
        }
        let slot = self.store(event);
        self.heap.push(HeapKey { at, seq, slot });
    }

    /// Put `event` in a free slot (growing the slab if none is free).
    fn store(&mut self, event: Event) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(event);
                s
            }
            None => {
                assert!(self.slots.len() < u32::MAX as usize, "event slab full");
                self.slots.push(Some(event));
                (self.slots.len() - 1) as u32
            }
        }
    }

    /// The least pending key's time and where it sits: a lane, or
    /// [`HEAP`]. Only the time leaves, not the key, so nothing is copied
    /// out and read back before [`take`](Self::take) pops it.
    fn head(&self) -> Option<(SimTime, usize)> {
        let mut best = self.heap.peek().map(|k| (k, HEAP));
        for (l, lane) in self.lanes.iter().enumerate() {
            if let Some(k) = lane.front() {
                if best.is_none_or(|(b, _)| k.before(b)) {
                    best = Some((k, l));
                }
            }
        }
        best.map(|(k, from)| (k.at, from))
    }

    /// Pop the earliest event (FIFO among equal timestamps).
    pub fn pop(&mut self) -> Option<Scheduled> {
        let (_, from) = self.head()?;
        Some(self.take(from))
    }

    /// Pop the earliest event if it is due by `until` (inclusive); `None`,
    /// leaving the queue untouched, if it is empty or its head is later.
    pub(crate) fn pop_until(&mut self, until: SimTime) -> Option<Scheduled> {
        let (at, from) = self.head()?;
        (at <= until).then(|| self.take(from))
    }

    /// Pop the head from `from`, where [`head`](Self::head) found it, and
    /// rebuild its event.
    fn take(&mut self, from: usize) -> Scheduled {
        let key = match from {
            HEAP => self.heap.pop(),
            l => self.lanes[l].pop_front(),
        }
        .expect("the head sits where `head` found it");
        let event = if from == TICKS {
            Event::Tick(NodeId::new(key.slot))
        } else {
            let event = self.slots[key.slot as usize]
                .take()
                .expect("a key points at an occupied slot");
            self.free.push(key.slot);
            event
        };
        Scheduled {
            at: key.at,
            seq: key.seq,
            event,
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// True iff no events are pending.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
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
        // property the DES hot loop relies on. Peer deliveries (kind 1) ride
        // the heap and escrow timeouts (kind 6) their lane; both take a slot.
        let mut q = EventQueue::new();
        for round in 0..1_000u64 {
            for i in 0..8u32 {
                let kind = if i % 2 == 0 { 1 } else { 6 };
                q.push(t(round), event(kind, i));
            }
            for _ in 0..8 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert_eq!(q.slots.len(), 8);
    }

    #[test]
    fn lane_ticks_take_no_slot() {
        let mut q = EventQueue::new();
        for round in 0..100u64 {
            for i in 0..8u32 {
                q.push(t(round), Event::Tick(NodeId::new(i)));
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert_eq!(q.fallbacks(), 0);
        assert!(q.slots.is_empty(), "a laned tick wrote the slab");
        // A tick earlier than the lane's tail falls back to the heap, takes
        // a slot, and still pops in (at, seq) order among the laned ones.
        let mut q = EventQueue::new();
        q.push(t(10), Event::Tick(NodeId::new(0)));
        q.push(t(20), Event::Tick(NodeId::new(1)));
        q.push(t(15), Event::Tick(NodeId::new(2)));
        q.push(t(20), Event::Tick(NodeId::new(3)));
        q.push(t(10), Event::Tick(NodeId::new(4)));
        assert_eq!(q.fallbacks(), 2);
        assert_eq!(q.slots.len(), 2);
        let popped: Vec<(SimTime, u64, u32)> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Tick(n) => (s.at, s.seq, n.raw()),
                _ => unreachable!(),
            })
            .collect();
        let want = [(10, 0, 0), (10, 4, 4), (15, 2, 2), (20, 1, 1), (20, 3, 3)];
        assert_eq!(popped, want.map(|(ms, seq, n)| (t(ms), seq, n)));
        assert_eq!(q.free.len(), 2, "a fallen-back tick returns its slot");
    }

    #[test]
    fn pop_until_leaves_a_later_head_in_place() {
        let mut q = EventQueue::new();
        assert!(q.pop_until(t(100)).is_none());
        // A laned tick, a heap-held delivery and a laned timer, each the
        // head in turn: `until` is inclusive whichever structure holds it.
        q.push(t(7), Event::Tick(NodeId::new(0)));
        q.push(t(5), event(1, 1));
        q.push(t(9), event(6, 2));
        for (popped, (at, seq)) in [(5, 1), (7, 0), (9, 2)].into_iter().enumerate() {
            assert!(q.pop_until(t(at - 1)).is_none());
            assert_eq!(q.len(), 3 - popped);
            assert!(!q.is_empty());
            let s = q.pop_until(t(at)).expect("a head due at `until`");
            assert_eq!((s.at, s.seq), (t(at), seq));
        }
        assert!(q.is_empty());
        assert!(q.pop_until(t(100)).is_none());
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
        // Each op is (action, kind, offset): action 0..3 pops; 3..5 calls
        // `pop_until` with `until` at the least pending time plus `offset`
        // less 8 ms, so below, on and above the head are all common;
        // anything else pushes an event of `kind` at the last popped time
        // plus `offset` less 4 ms, so equal timestamps, pushes earlier than
        // the last pop and pushes behind a lane's tail are all common.
        let (fallbacks, laned) = (Cell::new(0), Cell::new(0));
        // `pop_until` calls whose `until` fell below, on and above the head.
        let untils = Cell::new([0u32; 3]);
        prop::check(
            "lanes and heap pop in (at, seq) order",
            prop::Config::default(),
            vec_of((0u8..12, 0u8..7, 0u64..16), 1..400),
            |ops| {
                let mut q = EventQueue::new();
                let mut model: Vec<(SimTime, u64, u32)> = Vec::new();
                let mut last = 0u64;
                let mut pushed = 0u32;
                let least = |model: &[(SimTime, u64, u32)]| {
                    (0..model.len()).min_by_key(|&j| (model[j].0, model[j].1))
                };
                for &(action, kind, offset) in &ops {
                    if action < 5 {
                        let got = if action < 3 {
                            q.pop()
                        } else {
                            let head = least(&model);
                            let head_ms = head.map_or(last, |j| model[j].0.as_nanos() / 1_000_000);
                            let until = t((head_ms + offset).saturating_sub(8));
                            if let Some(j) = head {
                                let mut seen = untils.get();
                                seen[(until.cmp(&model[j].0) as i8 + 1) as usize] += 1;
                                untils.set(seen);
                            }
                            if head.is_none_or(|j| model[j].0 > until) {
                                let len = q.len();
                                assert!(q.pop_until(until).is_none());
                                assert_eq!(q.len(), len);
                                continue;
                            }
                            q.pop_until(until)
                        };
                        let got = got.map(|s| (s.at, s.seq, stamp(&s.event)));
                        assert_eq!(got, least(&model).map(|j| model.remove(j)));
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
                }
                while let Some(s) = q.pop() {
                    let j = least(&model).expect("the model holds as many as the queue");
                    assert_eq!((s.at, s.seq, stamp(&s.event)), model.remove(j));
                }
                assert!(model.is_empty());
                fallbacks.set(fallbacks.get() + q.fallbacks());
            },
        );
        assert!(laned.get() > 0, "no case put a key on a lane");
        assert!(fallbacks.get() > 0, "no case fell back from a lane");
        assert!(
            untils.get().iter().all(|&n| n > 0),
            "`until` below/on/above the head: {:?}",
            untils.get()
        );
    }
}
