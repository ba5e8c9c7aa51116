//! The one socket loop: a single-threaded reactor that owns its
//! [`NodeEngine`]s outright (no locks) and moves every protocol message as
//! a header-addressed datagram.
//!
//! ```text
//! frame: [dst: u32 LE][src: u32 LE][WireMsg bytes]
//! ```
//!
//! Every packet names its source and destination, and one loop forwards by
//! header: [`Reactor::dispatch`] turns a received frame into an
//! [`EngineInput::Msg`] for the engine `dst` names, and [`Reactor::drive`]
//! steps that engine with the reactor's [`Effects`] — sends go to the
//! address the `NodeId → SocketAddr` table holds for their destination,
//! and whether the kernel took a grant's frame is the delivery status the
//! engine escrows it under. A sender is identified by the id in the
//! header, never by looking its address up. Nothing ever blocks on a
//! reply: a grant is just another frame, applied whenever it arrives (the
//! engine's own blocked/timeout state decides what a late one means).
//!
//! The reactor reads no clock; its two callers pass `now` in.
//! [`crate::run_multiplexed`] hosts N engines on a virtual clock, every
//! table entry its own `rx` socket, and drains to quiescence each round;
//! [`crate::run_daemon_with_shim`] is the N = 1 case — peers' real
//! addresses, one wall-clock origin, real (or simulated) RAPL — receiving
//! until the next period boundary.
//!
//! All sends go through the [`DatagramSocket`] shim, so a test can slot a
//! deterministic fault plane (`penelope_net::FaultySocket`) under a live
//! reactor. An injected drop comes back as [`SendStatus::Dropped`]: the
//! reactor *knows* the datagram never left, emits `MsgDropped` (or
//! `AckDropped`), and — for grants — reports the send as not carried, so
//! the engine escrows the amount as undelivered and reclaims it at the
//! deadline instead of leaking. A real OS send error is different news
//! and is counted separately as `send_failed`.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

use penelope_core::{Effects, EngineInput, EngineOutput, NodeEngine, PeerMsg};
use penelope_net::shim::{DatagramSocket, SendStatus};
use penelope_power::{CappedDevice, LinuxRapl, PowerInterface, SimulatedRapl};
use penelope_testkit::rng::TestRng;
use penelope_trace::{EventKind, SharedObserver, Stamper};
use penelope_units::{NodeId, Power, SimDuration, SimTime};

use crate::wire::{WireMsg, MAX_WIRE_LEN};

/// Frame header: destination node id then source node id, both `u32` LE.
pub(crate) const FRAME_HDR: usize = 8;

/// Encode one frame: header plus wire message.
pub(crate) fn frame(dst: NodeId, src: NodeId, msg: &WireMsg) -> Vec<u8> {
    let body = msg.encode();
    let mut buf = Vec::with_capacity(FRAME_HDR + body.len());
    buf.extend_from_slice(&dst.raw().to_le_bytes());
    buf.extend_from_slice(&src.raw().to_le_bytes());
    buf.extend_from_slice(&body);
    buf
}

/// Decode a frame header + body; `None` for runts or garbage bodies.
pub(crate) fn deframe(buf: &[u8]) -> Option<(NodeId, NodeId, WireMsg)> {
    let (dst, rest) = buf.split_first_chunk()?;
    let (src, body) = rest.split_first_chunk()?;
    let msg = WireMsg::decode(body).ok()?;
    let id = |bytes: &[u8; 4]| NodeId::new(u32::from_le_bytes(*bytes));
    Some((id(dst), id(src), msg))
}

/// Where readings come from and actuated caps go.
pub(crate) enum Plant {
    /// One steady demand per engine; the reading is `min(demand, cap)`.
    Steady(Vec<Power>),
    /// A simulated RAPL domain around a device model.
    Simulated(SimulatedRapl<Box<dyn CappedDevice + Send>>),
    /// Real Intel RAPL through `/sys/class/powercap`.
    Linux(Box<LinuxRapl>),
}

impl Plant {
    fn read(&mut self, i: usize, cap: Power, now: SimTime) -> Power {
        match self {
            Plant::Steady(demands) => demands[i].min(cap),
            Plant::Simulated(rapl) => rapl.read_power(now),
            Plant::Linux(rapl) => rapl.read_power(now),
        }
    }

    pub(crate) fn set_cap(&mut self, cap: Power, now: SimTime) {
        match self {
            Plant::Steady(_) => {}
            Plant::Simulated(rapl) => rapl.set_cap(cap, now),
            Plant::Linux(rapl) => rapl.set_cap(cap, now),
        }
    }
}

/// Wall-clock grant round trips, from the moment a request frame enters
/// the kernel to the engine's [`EngineOutput::Resolved`].
#[derive(Default)]
pub(crate) struct RttLedger {
    /// Send stamp per open request, keyed (requester, seq).
    pending: HashMap<(u32, u64), Instant>,
    /// Completed round trips, nanoseconds, unsorted.
    pub(crate) samples_ns: Vec<u64>,
}

/// What the reactor did, for the two summaries.
#[derive(Clone, Copy, Default)]
pub(crate) struct Counters {
    /// Frames the kernel accepted for delivery.
    pub(crate) frames_sent: u64,
    /// Frames received and dispatched to an engine.
    pub(crate) frames_delivered: u64,
    /// Frames the fault shim dropped before the kernel saw them.
    pub(crate) injected_drops: u64,
    /// OS-level send errors.
    pub(crate) send_failed: u64,
    /// Datagrams received and refused: undecodable, or naming an engine
    /// not hosted here or a sender not in the address table.
    pub(crate) rejected: u64,
    /// Engine inputs driven.
    pub(crate) events: u64,
    /// Power booked as lost (stale-grant discards).
    pub(crate) lost: Power,
}

/// The reactor state: engines with consecutive ids, their random streams
/// and power plant, the sockets, and the address table.
pub(crate) struct Reactor {
    pub(crate) engines: Vec<NodeEngine>,
    rngs: Vec<TestRng>,
    plant: Plant,
    tx: Arc<dyn DatagramSocket>,
    rx: Arc<dyn DatagramSocket>,
    /// Where frames for node `j` are sent, indexed by node id.
    addrs: Vec<SocketAddr>,
    /// Point a sender's table entry at the address its latest frame came
    /// from, so replies and requests follow a peer that rebound its port.
    /// Off where the table is fixed by construction.
    pub(crate) follow_senders: bool,
    /// Transport events (`MsgSent`, `MsgRecv`, drops) go here.
    pub(crate) trace: Stamper,
    /// Round-trip stamping; `None` on a long-lived daemon, which must not
    /// grow a sample per request forever.
    pub(crate) rtt: Option<RttLedger>,
    /// Reusable engine-output buffer for [`Reactor::drive`].
    scratch: Vec<EngineOutput>,
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
        tx: Arc<dyn DatagramSocket>,
        rx: Arc<dyn DatagramSocket>,
        addrs: Vec<SocketAddr>,
    ) -> Self {
        Reactor {
            engines,
            rngs,
            plant,
            tx,
            rx,
            addrs,
            follow_senders: false,
            trace: Stamper::new(SharedObserver::noop(), SimDuration::ZERO),
            rtt: None,
            scratch: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Feed one input to engine `i`; [`ReactorFx`] executes what it
    /// decides — sends inline, cap actuations into the plant, round trips
    /// into the RTT ledger.
    pub(crate) fn drive(&mut self, i: usize, now: SimTime, input: EngineInput) {
        self.counters.events += 1;
        let mut fx = ReactorFx {
            me: self.engines[i].id(),
            now,
            plant: &mut self.plant,
            tx: &*self.tx,
            addrs: &self.addrs,
            trace: &self.trace,
            rtt: &mut self.rtt,
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
        let reading = self.plant.read(i, self.engines[i].cap(), now);
        self.drive(i, now, EngineInput::Tick { reading });
        reading
    }

    /// Dispatch one datagram received from `from` to the engine its
    /// header names, or count it as rejected.
    pub(crate) fn dispatch(&mut self, buf: &[u8], from: SocketAddr, now: SimTime) {
        let first = self.engines[0].id().index();
        let accepted = deframe(buf).and_then(|(dst, src, msg)| {
            let i = dst.index().checked_sub(first)?;
            (i < self.engines.len() && src != dst && src.index() < self.addrs.len())
                .then_some((i, src, msg))
        });
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

    /// Receive one datagram — waiting up to the `rx` socket's read
    /// timeout, or not at all if it is non-blocking — and dispatch it at
    /// `clock()`, read once it has arrived. `false` when nothing came.
    pub(crate) fn pump(&mut self, clock: impl FnOnce() -> SimTime) -> bool {
        let mut buf = [0u8; FRAME_HDR + MAX_WIRE_LEN];
        match self.rx.recv_from(&mut buf) {
            Ok((len, from)) => {
                self.dispatch(&buf[..len], from, clock());
                true
            }
            Err(_) => false,
        }
    }
}

/// The reactor's side of one engine step for node `me`.
struct ReactorFx<'a> {
    me: NodeId,
    now: SimTime,
    plant: &'a mut Plant,
    tx: &'a dyn DatagramSocket,
    addrs: &'a [SocketAddr],
    trace: &'a Stamper,
    rtt: &'a mut Option<RttLedger>,
    counters: &'a mut Counters,
}

impl Effects<TestRng> for ReactorFx<'_> {
    /// Send one frame to the table's address for `dst`. The ledger
    /// follows the shim's knowledge: only a datagram the kernel took
    /// counts as carried, so a grant behind a known drop (or a failed
    /// send) stays escrowed as undelivered and is reclaimed at the
    /// deadline.
    fn send(
        &mut self,
        _: &mut TestRng,
        dst: NodeId,
        msg: PeerMsg,
        carried: Power,
        _escrowed: bool,
    ) -> bool {
        if let (Some(rtt), PeerMsg::Request(req)) = (&mut *self.rtt, &msg) {
            // Stamp before the syscall so the sample covers the full
            // kernel round trip. A dropped request still opens the
            // engine's wait window — its stamp dies unresolved, like the
            // timeout it causes.
            rtt.pending.insert((self.me.raw(), req.seq), Instant::now());
        }
        let wire = WireMsg::from_peer(msg);
        let status = match self.addrs.get(dst.index()) {
            Some(addr) => self.tx.send_to(&frame(dst, self.me, &wire), *addr).ok(),
            None => None,
        };
        let kind = match (status, &wire) {
            (Some(SendStatus::Sent), _) => {
                self.counters.frames_sent += 1;
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
        status == Some(SendStatus::Sent)
    }

    fn actuate(&mut self, cap: Power) {
        self.plant.set_cap(cap, self.now);
    }

    /// Escrow is swept in bulk each tick.
    fn escrow_timer(&mut self, _requester: NodeId, _seq: u64, _at: SimTime) {}

    fn power_lost(&mut self, amount: Power) {
        self.counters.lost += amount;
    }

    fn resolved(&mut self, seq: u64, _amount: Power) {
        if let Some(rtt) = self.rtt {
            if let Some(t0) = rtt.pending.remove(&(self.me.raw(), seq)) {
                let ns = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                rtt.samples_ns.push(ns);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::build_reactor;
    use crate::DaemonConfig;
    use penelope_units::SimDuration;
    use std::net::UdpSocket;
    use std::time::Duration;

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
}
