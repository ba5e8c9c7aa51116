//! The one socket loop: a single-threaded reactor that owns its
//! [`NodeEngine`]s outright (no locks) and moves every protocol message as
//! a header-addressed datagram.
//!
//! ```text
//! frame: [dst: u32 LE][src: u32 LE][WireMsg bytes]
//! ```
//!
//! Every packet names its source and destination, and one loop forwards by
//! header: [`Reactor::pump`] turns a received frame into an
//! [`EngineInput::Msg`] for the engine `dst` names, and [`Reactor::drive`]
//! steps that engine with the reactor's [`Effects`] — sends go to the
//! address the `NodeId → SocketAddr` table holds for their destination,
//! and whether the kernel took a grant's frame is the delivery status the
//! engine escrows it under. A sender is identified by the id in the
//! header, never by looking its address up. Nothing ever blocks on a
//! reply: a grant is just another frame, applied whenever it arrives (the
//! engine's own blocked/timeout state decides what a late one means).
//!
//! Protocol time is passed in: the reactor's two callers hand it `now`.
//! The wall clock is read once per pass, and for the RTT ledger only
//! ([`RttLedger`], which only the multiplexer keeps): a pass starts when
//! [`Reactor::pump`] takes a datagram from `rx` or the caller starts a
//! tick wave ([`Reactor::start_pass`]), and every round trip it opens or
//! closes is stamped with that one read — so a reactor without a ledger
//! reads no clock at all.
//!
//! [`crate::run_multiplexed`] hosts N engines on a virtual clock, every
//! table entry its own `rx` socket, and drains to quiescence each round;
//! [`crate::run_daemon_with_socket`] is the N = 1 case — peers' real
//! addresses, one wall-clock origin, real (or simulated) RAPL — receiving
//! until the next period boundary.
//!
//! All sends go through the [`DatagramSocket`] shim, so the multiplexer
//! can slot a fault plane (`penelope_net::FaultySocket`: loss, partitions,
//! cut links, dead nodes, duplication, delay) under the reactor. An
//! injected drop or a refused link comes back as [`SendStatus::Dropped`]: the
//! reactor *knows* the datagram never left, emits `MsgDropped` (or
//! `AckDropped`), and — for grants — reports the send as not carried, so
//! the engine escrows the amount as undelivered and reclaims it at the
//! deadline instead of leaking. A real OS send error is different news
//! and is counted separately as `send_failed`.
//!
//! # Flushing
//!
//! Frames leave one of two ways ([`Tx`]): each its own datagram, straight
//! to the socket (a per-node daemon, whose peers read raw frames), or as
//! records of the reactor's own [`Outbox`] (the multiplexer, whose
//! [`Inbox`] unpacks them on the other end). The codec is plain state the
//! reactor owns, so a frame costs no lock and no dynamic call; only a
//! datagram reaches the socket. On the direct path every step below is a
//! no-op. [`Reactor::pump`] flushes the outbox only when the inbox has no
//! unpacked frame left to hand up: flushing before every receive would put
//! one frame in each datagram, and never flushing would wait for frames
//! that are still in this process. A frame counts as sent —
//! `frames_sent`, `MsgSent`, a grant escrowed as awaiting its ack, a
//! request's round trip stamped with the current pass — when the outbox
//! takes it; the kernel's verdict comes with the flush. Until then the
//! reactor keeps the frame's addressing and, for a non-zero grant, its
//! escrow key. A flush that fails names how many of the latest frames
//! went down with it ([`Reactor::flush`]): each moves from `frames_sent`
//! to `send_failed`, emits `SendFailed`, and a grant among them is fed
//! back to its granter as not delivered, so the amount is reclaimed at
//! the deadline like any other send the reactor knows failed.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use penelope_core::{Effects, EngineInput, EngineOutput, NodeEngine, PeerMsg};
use penelope_net::shim::{frame_endpoints, DatagramSocket, Inbox, Outbox, SendStatus, FRAME_HDR};
use penelope_power::{CappedDevice, LinuxRapl, PowerInterface, SimulatedRapl};
use penelope_testkit::rng::TestRng;
use penelope_trace::{EventKind, SharedObserver, Stamper};
use penelope_units::{NodeId, Power, SimDuration, SimTime};

use crate::wire::{WireMsg, MAX_WIRE_LEN};

/// The longest frame the reactor sends.
pub(crate) const MAX_FRAME: usize = FRAME_HDR + MAX_WIRE_LEN;

/// Append one frame, header plus wire message, to `buf`.
pub(crate) fn frame_into(buf: &mut Vec<u8>, dst: NodeId, src: NodeId, msg: &WireMsg) {
    buf.extend_from_slice(&dst.raw().to_le_bytes());
    buf.extend_from_slice(&src.raw().to_le_bytes());
    msg.encode_into(buf);
}

/// Decode a frame header + body; `None` for runts or garbage bodies.
pub(crate) fn deframe(buf: &[u8]) -> Option<(NodeId, NodeId, WireMsg)> {
    let (dst, src) = frame_endpoints(buf)?;
    let msg = WireMsg::decode(&buf[FRAME_HDR..]).ok()?;
    Some((dst, src, msg))
}

/// Where readings come from and actuated caps go.
pub(crate) enum Plant {
    /// One steady demand per engine; the reading is `min(demand, cap)`.
    Steady(Vec<Power>),
    /// One simulated RAPL domain per engine, each around its device
    /// model; read noise draws from the engine's stream.
    Simulated(Vec<SimulatedRapl<Box<dyn CappedDevice + Send>>>),
    /// Real Intel RAPL through `/sys/class/powercap`.
    Linux(Box<LinuxRapl>),
}

impl Plant {
    fn read(&mut self, i: usize, cap: Power, now: SimTime, rng: &mut TestRng) -> Power {
        match self {
            Plant::Steady(demands) => demands[i].min(cap),
            Plant::Simulated(rapls) => rapls[i].read_power_with(now, rng),
            Plant::Linux(rapl) => rapl.read_power(now),
        }
    }

    pub(crate) fn set_cap(&mut self, i: usize, cap: Power, now: SimTime) {
        match self {
            Plant::Steady(_) => {}
            Plant::Simulated(rapls) => rapls[i].set_cap(cap, now),
            Plant::Linux(rapl) => rapl.set_cap(cap, now),
        }
    }
}

/// Wall-clock grant round trips, to one pass's resolution: from the pass
/// in which a request frame is handed to `tx` to the pass in which the
/// datagram carrying its grant arrived and the engine reported
/// [`EngineOutput::Resolved`]. A pass starts when a datagram arrives or a
/// tick wave begins ([`Reactor::start_pass`]), and its one wall-clock read
/// stamps everything the pass opens or closes.
pub(crate) struct RttLedger {
    /// Send stamp per open request, keyed (requester, seq). A retransmit
    /// reuses its seq and re-stamps it; a stamp whose request was
    /// abandoned stays until a late grant closes it.
    pending: HashMap<(u32, u64), Instant, BuildHasherDefault<OwnKeyHasher>>,
    /// When the current pass started.
    pass: Instant,
    /// Completed round trips, nanoseconds, unsorted.
    pub(crate) samples_ns: Vec<u64>,
}

impl RttLedger {
    /// An empty ledger whose first pass started at `pass`.
    pub(crate) fn new(pass: Instant) -> Self {
        RttLedger {
            pending: HashMap::default(),
            pass,
            samples_ns: Vec::new(),
        }
    }

    /// Open (or restart) `node`'s round trip for `seq` at `at`.
    fn stamp(&mut self, node: u32, seq: u64, at: Instant) {
        self.pending.insert((node, seq), at);
    }

    /// Close `node`'s round trip for `seq` at `at`, if one is open.
    fn resolve(&mut self, node: u32, seq: u64, at: Instant) {
        if let Some(t0) = self.pending.remove(&(node, seq)) {
            let ns = at.saturating_duration_since(t0).as_nanos();
            self.samples_ns.push(ns.min(u64::MAX as u128) as u64);
        }
    }
}

/// A multiply-rotate hash (the Fx hash) for keys this process made
/// itself: a node id and a sequence number are not a peer's input, so
/// they need no defence against chosen collisions, and SipHash's rounds
/// are pure cost on them.
#[derive(Default)]
struct OwnKeyHasher(u64);

impl OwnKeyHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for OwnKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(u64::from(b)));
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    /// A product's high bits are its best mixed; the rotate moves them
    /// into the low bits the table picks buckets by, and its middle bits
    /// into the top seven it tags entries with.
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// What the reactor did, for the two summaries.
#[derive(Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Frames `tx` accepted for delivery, less those a failed flush took
    /// back.
    pub(crate) frames_sent: u64,
    /// Frames received and dispatched to an engine.
    pub(crate) frames_delivered: u64,
    /// Frames the fault shim dropped before the kernel saw them.
    pub(crate) injected_drops: u64,
    /// Frames behind an OS-level send error, at the send or at the flush.
    pub(crate) send_failed: u64,
    /// Frames received and refused: undecodable, or naming an engine not
    /// hosted here or a sender not in the address table.
    pub(crate) rejected: u64,
    /// Engine inputs driven.
    pub(crate) events: u64,
    /// Wall-clock reads for the RTT ledger: one per pass, none without a
    /// ledger.
    pub(crate) wall_reads: u64,
    /// Power booked as lost (stale-grant discards).
    pub(crate) lost: Power,
}

/// A frame the outbox took and may still hold: what [`Reactor::flush`] needs
/// to take it back.
struct Unflushed {
    src: NodeId,
    dst: NodeId,
    /// Escrow key and amount, for a non-zero grant.
    grant: Option<(u64, Power)>,
}

/// Where the reactor's frames leave.
pub(crate) enum Tx {
    /// Each frame its own datagram, encoded in `frame` and sent at once.
    Direct {
        socket: Arc<dyn DatagramSocket>,
        frame: Vec<u8>,
    },
    /// Frames packed as records, to be unpacked by an [`Inbox::records`].
    Coalesced(Outbox),
}

impl Tx {
    /// One frame per datagram on `socket`.
    pub(crate) fn direct(socket: Arc<dyn DatagramSocket>) -> Self {
        Tx::Direct {
            socket,
            frame: Vec::with_capacity(MAX_FRAME),
        }
    }
}

/// The reactor state: engines with consecutive ids, their random streams
/// and power plant, the sockets, and the address table.
pub(crate) struct Reactor {
    pub(crate) engines: Vec<NodeEngine>,
    rngs: Vec<TestRng>,
    pub(crate) plant: Plant,
    tx: Tx,
    rx: Arc<dyn DatagramSocket>,
    /// What `rx` delivered and the reactor has not dispatched yet: records
    /// when `tx` coalesces, raw frames when it does not.
    inbox: Inbox,
    /// Where frames for node `j` are sent, indexed by node id.
    addrs: Vec<SocketAddr>,
    /// Point a sender's table entry at the address its latest frame came
    /// from, so replies and requests follow a peer that rebound its port.
    /// Off where the table is fixed by construction.
    pub(crate) follow_senders: bool,
    /// Transport events (`MsgSent`, `MsgRecv`, drops) go here.
    pub(crate) trace: Stamper,
    /// Round-trip stamping, installed by the multiplexer's round loop;
    /// `None` on a long-lived daemon, which must not grow a sample per
    /// request forever (and so reads no wall clock for it).
    pub(crate) rtt: Option<RttLedger>,
    /// Reusable engine-output buffer for [`Reactor::drive`].
    scratch: Vec<EngineOutput>,
    /// Frames the outbox took since its last flush, oldest first.
    unflushed: Vec<Unflushed>,
    pub(crate) counters: Counters,
}

impl Reactor {
    /// A reactor over `engines` (ids consecutive from `engines[0]`), one
    /// random stream each. Transport events go nowhere, senders are not
    /// followed and round trips are not stamped until the caller says so.
    pub(crate) fn new(
        engines: Vec<NodeEngine>,
        rngs: Vec<TestRng>,
        plant: Plant,
        tx: Tx,
        rx: Arc<dyn DatagramSocket>,
        addrs: Vec<SocketAddr>,
    ) -> Self {
        let inbox = match tx {
            Tx::Direct { .. } => Inbox::raw(MAX_FRAME),
            Tx::Coalesced(_) => Inbox::records(),
        };
        Reactor {
            engines,
            rngs,
            plant,
            tx,
            rx,
            inbox,
            addrs,
            follow_senders: false,
            trace: Stamper::new(SharedObserver::noop(), SimDuration::ZERO),
            rtt: None,
            scratch: Vec::new(),
            unflushed: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Datagrams the outbox has handed to the kernel (none on the direct
    /// path, which does not count them).
    pub(crate) fn datagrams_sent(&self) -> u64 {
        match &self.tx {
            Tx::Direct { .. } => 0,
            Tx::Coalesced(outbox) => outbox.datagrams_sent(),
        }
    }

    /// Start a pass of the RTT ledger, if there is one: read the wall
    /// clock once, for every round trip the pass opens or closes.
    pub(crate) fn start_pass(&mut self) {
        if let Some(rtt) = &mut self.rtt {
            rtt.pass = Instant::now();
            self.counters.wall_reads += 1;
        }
    }

    /// Feed one input to engine `i`; [`ReactorFx`] executes what it
    /// decides — sends inline, cap actuations into the plant, round trips
    /// into the RTT ledger.
    pub(crate) fn drive(&mut self, i: usize, now: SimTime, input: EngineInput) {
        self.counters.events += 1;
        let mut fx = ReactorFx {
            i,
            me: self.engines[i].id(),
            now,
            plant: &mut self.plant,
            tx: &mut self.tx,
            addrs: &self.addrs,
            trace: &self.trace,
            rtt: &mut self.rtt,
            unflushed: &mut self.unflushed,
            counters: &mut self.counters,
        };
        let rng = &mut self.rngs[i];
        self.engines[i].step(now, input, rng, &mut self.scratch, &mut fx);
    }

    /// One decider iteration for engine `i`: bulk escrow expiry (per-entry
    /// timers are never armed), a power reading, the tick. Returns the
    /// reading.
    pub(crate) fn tick(&mut self, i: usize, now: SimTime) -> Power {
        if self.engines[i].escrow_len() > 0 {
            self.drive(i, now, EngineInput::SweepEscrow);
        }
        let reading = self
            .plant
            .read(i, self.engines[i].cap(), now, &mut self.rngs[i]);
        self.drive(i, now, EngineInput::Tick { reading });
        reading
    }

    /// Dispatch one frame received from `from` to the engine its header
    /// names, or count it as rejected.
    #[cfg(test)]
    pub(crate) fn dispatch(&mut self, buf: &[u8], from: SocketAddr, now: SimTime) {
        let accepted = accept(
            buf,
            self.engines[0].id(),
            self.engines.len(),
            self.addrs.len(),
        );
        self.deliver(accepted, from, now);
    }

    /// Drive the frame [`accept`] decoded into its engine, or count a
    /// refused one.
    fn deliver(&mut self, accepted: Option<Accepted>, from: SocketAddr, now: SimTime) {
        let Some((i, src, msg)) = accepted else {
            self.counters.rejected += 1;
            return;
        };
        if self.follow_senders {
            self.addrs[src.index()] = from;
        }
        self.counters.frames_delivered += 1;
        let carried = match &msg {
            WireMsg::Grant { amount, .. } => *amount,
            _ => Power::ZERO,
        };
        let me = self.engines[i].id();
        self.trace
            .emit(now, me, || EventKind::MsgRecv { src, carried });
        let msg = msg.into_peer(src);
        self.drive(i, now, EngineInput::Msg { src, msg });
    }

    /// Push every frame the outbox holds into the kernel. If it refuses,
    /// the frames the error names never left: count them as failed sends
    /// at `clock()`, and tell each granter among them that its grant was
    /// not delivered (the escrow entry turns from awaiting-ack to
    /// undelivered and is reclaimed at its deadline).
    pub(crate) fn flush(&mut self, clock: impl FnOnce() -> SimTime) {
        let Tx::Coalesced(outbox) = &mut self.tx else {
            return;
        };
        let Err(e) = outbox.flush() else {
            self.unflushed.clear();
            return;
        };
        let now = clock();
        let first = self.engines[0].id().index();
        let kept = self.unflushed.len().saturating_sub(e.lost);
        let lost = self.unflushed.split_off(kept);
        self.unflushed.clear();
        self.counters.frames_sent -= lost.len() as u64;
        self.counters.send_failed += lost.len() as u64;
        for Unflushed { src, dst, grant } in lost {
            self.trace.emit(now, src, || EventKind::SendFailed { dst });
            if let Some((seq, amount)) = grant {
                let outcome = EngineInput::GrantOutcome {
                    requester: dst,
                    seq,
                    amount,
                    delivered: false,
                };
                self.drive(src.index() - first, now, outcome);
            }
        }
    }

    /// Dispatch one frame at `clock()`, read once it is in hand: the next
    /// one the inbox holds, or — once it holds none, and the outbox is
    /// flushed — the first of a datagram from `rx`, waiting up to its read
    /// timeout, or not at all if it is non-blocking. A datagram starts a
    /// pass. `false` when nothing came.
    pub(crate) fn pump(&mut self, clock: impl Fn() -> SimTime) -> bool {
        if self.inbox.is_empty() {
            self.flush(&clock);
            if self.inbox.recv(&*self.rx).is_err() {
                return false;
            }
            self.start_pass();
        }
        let first = self.engines[0].id();
        let (engines, addrs) = (self.engines.len(), self.addrs.len());
        let Some((frame, from)) = self.inbox.next_frame() else {
            return false;
        };
        let accepted = accept(frame, first, engines, addrs);
        self.deliver(accepted, from, clock());
        true
    }
}

/// A frame for a hosted engine: its index, the sender and the message.
type Accepted = (usize, NodeId, WireMsg);

/// Decode `frame` for the engines from `first` on, `engines` of them, in a
/// table of `addrs` nodes: `None` for garbage, an engine not hosted here,
/// a sender outside the table or a frame to itself.
fn accept(frame: &[u8], first: NodeId, engines: usize, addrs: usize) -> Option<Accepted> {
    let (dst, src, msg) = deframe(frame)?;
    let i = dst.index().checked_sub(first.index())?;
    (i < engines && src != dst && src.index() < addrs).then_some((i, src, msg))
}

/// The reactor's side of one engine step for node `me`, engine `i`.
struct ReactorFx<'a> {
    i: usize,
    me: NodeId,
    now: SimTime,
    plant: &'a mut Plant,
    tx: &'a mut Tx,
    addrs: &'a [SocketAddr],
    trace: &'a Stamper,
    rtt: &'a mut Option<RttLedger>,
    unflushed: &'a mut Vec<Unflushed>,
    counters: &'a mut Counters,
}

impl Effects<TestRng> for ReactorFx<'_> {
    /// Send one frame to the table's address for `dst`. The ledger
    /// follows the shim's knowledge: only a frame `tx` took counts as
    /// carried, so a grant behind a known drop (or a failed send) stays
    /// escrowed as undelivered and is reclaimed at the deadline. A frame
    /// the outbox took is remembered until the flush that settles it.
    fn send(
        &mut self,
        _: &mut TestRng,
        dst: NodeId,
        msg: PeerMsg,
        carried: Power,
        _escrowed: bool,
    ) -> bool {
        if let (Some(rtt), PeerMsg::Request(req)) = (&mut *self.rtt, &msg) {
            // Stamp before the send so the sample covers the wait for the
            // flush and the full kernel round trip. A dropped request
            // still opens the engine's wait window — its stamp dies
            // unresolved, like the timeout it causes.
            rtt.stamp(self.me.raw(), req.seq, rtt.pass);
        }
        let wire = WireMsg::from_peer(msg);
        let me = self.me;
        let status = match (self.addrs.get(dst.index()), &mut *self.tx) {
            (None, _) => None,
            (Some(&addr), Tx::Direct { socket, frame }) => {
                frame.clear();
                frame_into(frame, dst, me, &wire);
                socket.send_to(frame, addr).ok()
            }
            (Some(&addr), Tx::Coalesced(outbox)) => {
                let status = outbox.send(addr, |buf| frame_into(buf, dst, me, &wire));
                status.ok()
            }
        };
        let kind = match (status, &wire) {
            (Some(SendStatus::Sent), _) => {
                self.counters.frames_sent += 1;
                if let Tx::Coalesced(_) = self.tx {
                    let grant = match &wire {
                        WireMsg::Grant { seq, amount, .. } if !amount.is_zero() => {
                            Some((*seq, *amount))
                        }
                        _ => None,
                    };
                    self.unflushed.push(Unflushed {
                        src: me,
                        dst,
                        grant,
                    });
                }
                EventKind::MsgSent { dst, carried }
            }
            // A dropped ack conserves power (the amount already landed in
            // the sender's cap; the granter's entry simply expires
            // without credit) but must be visible as such.
            (Some(SendStatus::Dropped), WireMsg::Ack { seq, .. }) => {
                self.counters.injected_drops += 1;
                EventKind::AckDropped { dst, seq: *seq }
            }
            (Some(SendStatus::Dropped), _) => {
                self.counters.injected_drops += 1;
                EventKind::MsgDropped { dst, carried }
            }
            (None, _) => {
                self.counters.send_failed += 1;
                EventKind::SendFailed { dst }
            }
        };
        self.trace.emit(self.now, self.me, || kind);
        wire.recycle();
        status == Some(SendStatus::Sent)
    }

    fn actuate(&mut self, cap: Power) {
        self.plant.set_cap(self.i, cap, self.now);
    }

    /// Escrow is swept in bulk each tick.
    fn escrow_timer(&mut self, _requester: NodeId, _seq: u64, _at: SimTime) {}

    fn power_lost(&mut self, amount: Power) {
        self.counters.lost += amount;
    }

    fn resolved(&mut self, seq: u64, _amount: Power) {
        if let Some(rtt) = self.rtt {
            rtt.resolve(self.me.raw(), seq, rtt.pass);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::build_reactor;
    use crate::multiplex::Mux;
    use crate::{DaemonConfig, MuxConfig};
    use penelope_units::SimDuration;
    use std::io;
    use std::net::UdpSocket;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    fn frame(dst: NodeId, src: NodeId, msg: &WireMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        frame_into(&mut buf, dst, src, msg);
        buf
    }

    #[test]
    fn frames_roundtrip_and_reject_runts() {
        let msg = WireMsg::Request {
            seq: 7,
            urgent: true,
            alpha: Power::from_watts_u64(30),
            from: None,
            bid: Power::ZERO,
        };
        let buf = frame(NodeId::new(9), NodeId::new(3), &msg);
        let (dst, src, back) = deframe(&buf).expect("frame decodes");
        assert_eq!(dst, NodeId::new(9));
        assert_eq!(src, NodeId::new(3));
        assert_eq!(back, msg);
        assert!(deframe(&buf[..7]).is_none(), "runt header must not decode");
        assert!(
            deframe(&buf[..FRAME_HDR + 2]).is_none(),
            "truncated body must not decode"
        );
    }

    fn w(x: u64) -> Power {
        Power::from_watts_u64(x)
    }

    /// The ledger's own hash table answers exactly like the SipHash map it
    /// replaced: the same samples in the same order, and the same stamps
    /// left open. Keys come from a few nodes and seqs (so stamps collide,
    /// retransmits re-stamp and grants arrive for seqs never stamped) and
    /// from the ends of both ranges.
    #[test]
    fn the_rtt_ledger_answers_like_a_hash_map() {
        use penelope_testkit::prop::{self, one_of, vec_of};
        let nodes = one_of(vec![0u32, 1, 2, 3, 4_099, u32::MAX]);
        let seqs = one_of(vec![0u64, 1, 2, 3, 4, 1 << 40, u64::MAX]);
        prop::check(
            "rtt ledger vs HashMap",
            prop::Config::with_cases(512),
            vec_of((prop::any_bool(), nodes, seqs, 0u64..1_000), 0..300),
            |ops| {
                let mut at = Instant::now();
                let mut ledger = RttLedger::new(at);
                let mut oracle: HashMap<(u32, u64), Instant> = HashMap::new();
                let mut samples = Vec::new();
                for (stamp, node, seq, gap_ns) in ops {
                    at += Duration::from_nanos(gap_ns);
                    if stamp {
                        ledger.stamp(node, seq, at);
                        oracle.insert((node, seq), at);
                    } else {
                        ledger.resolve(node, seq, at);
                        if let Some(t0) = oracle.remove(&(node, seq)) {
                            samples.push((at - t0).as_nanos() as u64);
                        }
                    }
                }
                assert_eq!(ledger.samples_ns, samples);
                let mut open: Vec<_> = ledger.pending.into_iter().collect();
                let mut expected: Vec<_> = oracle.into_iter().collect();
                open.sort();
                expected.sort();
                assert_eq!(open, expected);
            },
        );
    }

    /// The three ways a round trip's stamp is reused or outlived: a
    /// retransmit re-stamps its seq, a grant for a seq never stamped adds
    /// nothing, and a late grant for an abandoned seq still closes it.
    #[test]
    fn the_rtt_ledger_restamps_and_closes_abandoned_seqs() {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut ledger = RttLedger::new(t0);
        ledger.stamp(7, 1, at(0));
        ledger.stamp(7, 1, at(20)); // the retransmit
        ledger.resolve(7, 9, at(25)); // never stamped
        ledger.stamp(7, 2, at(40)); // seq 1 abandoned
        ledger.resolve(7, 2, at(45));
        ledger.resolve(7, 1, at(70)); // its late grant
        ledger.resolve(7, 1, at(90)); // a duplicate of it
        assert_eq!(ledger.samples_ns, [5_000, 50_000]);
        assert!(ledger.pending.is_empty());
    }

    /// The next frame on `socket`, or `None` if nothing is queued.
    fn next_frame(socket: &UdpSocket) -> Option<(NodeId, NodeId, WireMsg)> {
        let mut buf = [0u8; 128];
        let (len, _) = socket.recv_from(&mut buf).ok()?;
        Some(deframe(&buf[..len]).expect("the daemon sends well-formed frames"))
    }

    /// A grant that arrives after its request's response timeout, on a tick
    /// that sends nothing, is applied and acked by the `dispatch` call that
    /// receives it.
    ///
    /// The thread-per-node daemon this loop replaced forwarded grants from
    /// its net thread to its decider thread over a channel that the decider
    /// drained only inside the wait loop following a request *send*. A
    /// grant landing outside that window sat in the channel until the next
    /// request went out — or forever, if none did: never applied, never
    /// acked, the granter's escrow entry expiring without credit.
    #[test]
    fn a_late_grant_is_applied_and_acked_where_it_lands() {
        let peer = UdpSocket::bind("127.0.0.1:0").expect("bind peer");
        peer.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("peer timeout");
        let peer_addr = peer.local_addr().expect("peer addr");
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind daemon");
        let listen = socket.local_addr().expect("daemon addr");
        // Hungry (250 W demand under a 160 W cap) with one retransmit, so
        // a request stays outstanding across a tick that sends nothing.
        let mut cfg = DaemonConfig::demo(listen, vec![peer_addr], w(250));
        cfg.node.decider.max_retransmits = 1;
        let timeout = cfg.node.decider.response_timeout;
        let (mut reactor, counters, _) = build_reactor(cfg, Arc::new(socket)).expect("reactor");
        let (me, granter) = (NodeId::new(0), NodeId::new(1));
        let at = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        assert_eq!(timeout, SimDuration::from_millis(20));

        // t = 0: the request goes out. t = 20 ms: its timeout elapses and
        // it is retransmitted, now waiting 40 ms.
        for t in [0, 20] {
            reactor.tick(0, at(t));
            let (dst, src, msg) = next_frame(&peer).expect("request frame");
            assert_eq!((dst, src), (granter, me));
            assert!(matches!(msg, WireMsg::Request { seq: 0, .. }), "{msg:?}");
        }
        // t = 40 ms: past the first timeout, still blocked on the
        // retransmit — this tick sends nothing.
        reactor.tick(0, at(40));
        peer.set_nonblocking(true).expect("nonblocking");
        assert_eq!(next_frame(&peer), None, "the blocked tick sent a frame");
        assert!(reactor.engines[0].is_blocked());

        // t = 45 ms: the grant finally lands.
        let grant = WireMsg::Grant {
            seq: 0,
            amount: w(10),
            digest: None,
        };
        reactor.dispatch(&frame(me, granter, &grant), peer_addr, at(45));
        assert_eq!(
            reactor.engines[0].cap(),
            w(170),
            "the grant was not applied"
        );
        assert!(!reactor.engines[0].is_blocked());
        let (dst, src, msg) = next_frame(&peer).expect("no ack left in the same call");
        assert_eq!((dst, src), (granter, me));
        assert_eq!(
            msg,
            WireMsg::Ack {
                seq: 0,
                digest: None
            }
        );
        assert_eq!(counters.snapshot().count("grant_applied"), 1);
        assert_eq!(reactor.counters.rejected, 0);
    }

    /// A `tx` socket under the outbox whose kernel refuses the first
    /// `refusals` datagrams that carry a non-zero grant.
    struct RefusedFlushes {
        inner: Arc<dyn DatagramSocket>,
        refusals: AtomicU64,
        grants_lost: AtomicU64,
    }

    /// The frames of a coalesced datagram, `[len: u16 LE][frame]` each.
    fn records(mut datagram: &[u8]) -> Vec<&[u8]> {
        let mut frames = Vec::new();
        while let Some((len, rest)) = datagram.split_first_chunk::<2>() {
            let (frame, tail) = rest.split_at(usize::from(u16::from_le_bytes(*len)));
            frames.push(frame);
            datagram = tail;
        }
        frames
    }

    impl DatagramSocket for RefusedFlushes {
        fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus> {
            let grants = records(buf)
                .into_iter()
                .filter(|frame| match deframe(frame) {
                    Some((_, _, WireMsg::Grant { amount, .. })) => !amount.is_zero(),
                    _ => false,
                })
                .count() as u64;
            if grants > 0 && self.refusals.load(Ordering::Relaxed) > 0 {
                self.refusals.fetch_sub(1, Ordering::Relaxed);
                self.grants_lost.fetch_add(grants, Ordering::Relaxed);
                return Err(io::ErrorKind::ConnectionRefused.into());
            }
            self.inner.send_to(buf, dst)
        }

        fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            self.inner.recv_from(buf)
        }

        fn local_addr(&self) -> io::Result<SocketAddr> {
            self.inner.local_addr()
        }

        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            self.inner.set_nonblocking(nonblocking)
        }
    }

    /// The kernel's verdict on a frame now arrives with the flush of its
    /// datagram. A refused flush must cost what a refused send always
    /// did: the frames are counted `send_failed`, not in flight, and a
    /// grant among them goes back to its granter's pool at the escrow
    /// deadline. Were a lost grant left awaiting its ack, the entry would
    /// expire without credit and the ledger would come up short.
    #[test]
    fn a_refused_flush_is_a_failed_send_and_its_grants_are_reclaimed() {
        let cfg = MuxConfig::soak(48, 0x50AC_0003, 12);
        let mut double = None;
        let (mux, _) = Mux::bind(&cfg, |inner| {
            let tx = Arc::new(RefusedFlushes {
                inner,
                refusals: AtomicU64::new(3),
                grants_lost: AtomicU64::new(0),
            });
            double = Some(tx.clone());
            tx
        })
        .expect("mux binds");
        let s = mux.run(cfg.rounds, |_, _| {}, |_, _| {});
        let double = double.expect("bind wraps the tx socket");
        assert_eq!(double.refusals.load(Ordering::Relaxed), 0, "too few grants");
        let grants_lost = double.grants_lost.load(Ordering::Relaxed);
        assert!(grants_lost >= 3);
        assert!(
            s.send_failed >= grants_lost,
            "{} failed sends",
            s.send_failed
        );
        assert_eq!(s.frames_sent, s.frames_delivered);
        assert_eq!(s.wire_lost, 0, "a refused frame was waited for");
        // All three refusals fall in the first rounds, so every escrow
        // deadline (three periods) has passed: the power is back in pools.
        assert_eq!(s.total_escrowed, Power::ZERO);
        assert_eq!(s.accounted_total(), s.budget, "a lost grant leaked");
    }
}
