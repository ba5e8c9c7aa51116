//! Deterministic datagram socket shim.
//!
//! The UDP daemon is the one substrate that touches real sockets, and a
//! loopback socket never drops, delays, or reorders anything — so until
//! this module existed, every "lossy" daemon run was silently lossless.
//! [`DatagramSocket`] abstracts the socket operations the daemon uses
//! (send, receive, local address, non-blocking mode); [`UdpSocket`]
//! implements it as a passthrough, and [`FaultySocket`] composes over it:
//! it holds a [`FaultPlane`] — the one the simulator routes through — and
//! adds what only a wire can: seeded per-direction duplication and
//! latency, so conformance runs exercise partitions, loss and the
//! escrow/ack machinery on real datagrams.
//!
//! # Coalesced datagrams
//!
//! ```text
//! datagram: ([len: u16 LE][frame: len bytes])+     ≤ 8 192 bytes
//! ```
//!
//! A process that sends many small frames to one socket of its own can
//! pay the kernel once per batch instead of twice per frame. The two
//! halves of that codec are plain state their one owner drives through
//! `&mut`, with no lock: an [`Outbox`] appends each frame as a record,
//! encoded in place, and holds the records back until the next one would
//! not fit in `MAX_DATAGRAM` bytes, the destination changes, or its owner
//! calls [`Outbox::flush`]; an [`Inbox`] takes one datagram from the
//! kernel and hands its records up one at a time, in order and in place,
//! and [`Inbox::is_empty`] says whether one is still waiting. The cap
//! holds an in-flight window of frames rather than one Ethernet payload:
//! both ends are one process's own sockets on loopback. A record has at
//! least one frame byte. Whatever follows the last whole record — a
//! length that overruns the datagram, a zero length, a lone trailing
//! byte, or an empty datagram — is handed up once as an empty frame,
//! which no frame decoder accepts, so a hostile datagram costs its
//! receiver one counted rejection and never a panic or a loop. A frame
//! is at most `MAX_RECORD` bytes, so a frame and its duplicate always
//! share one datagram. An outbox may hold a [`FaultySocket`]
//! ([`Outbox::faulty`]): every frame then draws its own fate before it is
//! batched, only the survivors share datagrams, and they leave through the
//! socket the fault plane wraps, as its delayed copies do.
//!
//! The kernel's verdict on a coalesced frame arrives at flush time, not
//! at [`Outbox::send`]. An implicit flush that fails loses nothing: the
//! batch is kept and the frame that needed the room is refused with the
//! error. An explicit [`Outbox::flush`] that fails discards the batch and
//! says how many frames went with it ([`FlushError::lost`]) — always the
//! most recently accepted ones, which is what lets a caller keeping its
//! own list of accepted frames name them.
//!
//! # Who owns the fault randomness
//!
//! All fault decisions are drawn from dedicated [`TestRng`] streams owned
//! by the shim — never from the protocol's RNG — so injecting loss cannot
//! perturb a single protocol draw (the same discipline the simulator
//! uses for its drop stream). Each *direction* (this socket →
//! one registered peer) gets its own stream, keyed by the order the peer
//! was registered via [`FaultySocket::register_peer`]. Registration order
//! is the caller's stable logical peer order, not the socket address:
//! ephemeral ports differ run to run, but slot `k` always maps to the
//! same stream, so the schedule of fates (drop / delay / duplicate, per
//! packet index) replays bit-identically for a given seed.
//!
//! Faults apply on the **send** side only: a drop decision is made
//! before the datagram reaches the OS, and reported to the caller as
//! [`SendStatus::Dropped`]. That knowledge is the point — a daemon that
//! knows its grant never left can feed `delivered = false` into the
//! engine's `GrantOutcome`, escrow the amount as undelivered, and
//! reclaim it at the deadline, exactly as the simulator's send-side loss
//! model does. Sends to unregistered destinations pass through unfaulted.
//!
//! A payload's fate is the [`FaultPlane`]'s — the loss
//! draw from the direction's stream, then the link the daemon frame's
//! `[dst][src]` header names ([`frame_endpoints`]); a payload too short
//! for a header is on no node's link and meets the loss draw alone.

use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use penelope_testkit::rng::{node_seed, Rng, TestRng};
use penelope_units::NodeId;

use crate::fault::FaultPlane;
use crate::latency::LatencyModel;

/// Bytes of the `[dst: u32 LE][src: u32 LE]` header every daemon frame
/// starts with.
pub const FRAME_HDR: usize = 8;

/// The `(dst, src)` a daemon frame's header names, or `None` for a payload
/// too short to hold one.
pub fn frame_endpoints(frame: &[u8]) -> Option<(NodeId, NodeId)> {
    let (dst, rest) = frame.split_first_chunk()?;
    let (src, _) = rest.split_first_chunk()?;
    let id = |bytes: &[u8; 4]| NodeId::new(u32::from_le_bytes(*bytes));
    Some((id(dst), id(src)))
}

/// What the shim did with a datagram handed to `send_to`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendStatus {
    /// The datagram was handed to the network (possibly delayed or
    /// duplicated, but it will arrive barring OS-level loss).
    Sent,
    /// The fault plane dropped the datagram before it left this host.
    /// The caller *knows* the peer will never see it.
    Dropped,
}

/// An [`Outbox::flush`] the network refused.
#[derive(Debug)]
pub struct FlushError {
    /// How many accepted frames never left: always the `lost` most
    /// recently accepted ones. Zero when the outbox cannot tell which.
    pub lost: usize,
    /// The OS error behind it.
    pub source: io::Error,
}

/// The socket surface the daemon runtime needs, abstracted so a
/// deterministic fault plane can sit between the protocol and the OS.
pub trait DatagramSocket: Send + Sync {
    /// Send one datagram to `dst`. `Ok(SendStatus::Dropped)` means the
    /// fault plane consumed it — an injected drop, not an OS error. An
    /// `Err` means this datagram was not taken.
    fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus>;

    /// Receive one datagram (honours the socket's read timeout, or
    /// returns `WouldBlock` at once in non-blocking mode).
    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)>;

    /// The bound local address.
    fn local_addr(&self) -> io::Result<SocketAddr>;

    /// Enter or leave non-blocking mode, as [`UdpSocket::set_nonblocking`].
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
}

impl DatagramSocket for UdpSocket {
    fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus> {
        UdpSocket::send_to(self, buf, dst).map(|_| SendStatus::Sent)
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        UdpSocket::recv_from(self, buf)
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        UdpSocket::local_addr(self)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UdpSocket::set_nonblocking(self, nonblocking)
    }
}

/// Fault model for one [`FaultySocket`]: applied independently per
/// registered direction, all decisions drawn from streams derived from
/// `seed`.
#[derive(Clone, Debug)]
pub struct FaultConfig {
    /// Root seed; direction `k` draws from `node_seed(seed, k)`.
    pub seed: u64,
    /// Loss and connectivity at the start: the drop rate, dead nodes,
    /// partitions and cut links. The socket keeps it and a caller changes
    /// it with [`FaultySocket::with_faults`].
    pub plane: FaultPlane,
    /// Duplication probability in permille; the copy samples its own
    /// delay, so a duplicate can overtake the original (reordering).
    pub dup_permille: u16,
    /// Wall-clock delay distribution (the [`LatencyModel`]'s nanoseconds
    /// read as real time). `None` sends immediately; a jittered model
    /// reorders packets whose sampled delays invert their send order.
    pub latency: Option<LatencyModel>,
}

impl FaultConfig {
    /// Pure loss, `drop_permille / 1000`, and no delay.
    pub fn lossy(seed: u64, drop_permille: u16) -> Self {
        let mut plane = FaultPlane::healthy();
        plane.set_drop_rate(f64::from(drop_permille) / 1000.0);
        FaultConfig {
            seed,
            plane,
            dup_permille: 0,
            latency: None,
        }
    }
}

/// The fate of one datagram, fully determined by (seed, direction slot,
/// packet index) and the plane it was sent under.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PacketFate {
    /// Dropped before reaching the network: lost, or refused by the link.
    pub drop: bool,
    /// Delay before the original copy is handed to the OS.
    pub delay_ns: u64,
    /// `Some(delay)` if a duplicate copy is also sent, with its own delay.
    pub dup_delay_ns: Option<u64>,
}

/// The deterministic fault schedule for one direction. Pure — no sockets,
/// no clocks — so tests can pin the exact schedule a seed produces.
#[derive(Clone, Debug)]
pub(crate) struct DirectionPlan {
    rng: TestRng,
    dup_p: f64,
    latency: Option<LatencyModel>,
}

impl DirectionPlan {
    /// The plan for direction slot `slot` under `cfg`.
    pub fn new(cfg: &FaultConfig, slot: u64) -> Self {
        DirectionPlan {
            rng: TestRng::seed_from_u64(node_seed(cfg.seed, slot)),
            dup_p: f64::from(cfg.dup_permille) / 1000.0,
            latency: cfg.latency.clone(),
        }
    }

    /// Decide the next packet's fate under `plane`, for a payload on the
    /// `(dst, src)` link (`None`: on no node's link). The draw order per
    /// packet is fixed (the plane's loss, then delay, then duplicate, then
    /// the duplicate's delay), so the schedule is a pure function of the
    /// stream and the plane.
    pub(crate) fn next_fate(
        &mut self,
        plane: &FaultPlane,
        link: Option<(NodeId, NodeId)>,
    ) -> PacketFate {
        let carried = match link {
            Some((dst, src)) => plane.carries(src, dst, &mut self.rng),
            None => !plane.loses(&mut self.rng),
        };
        if !carried {
            return PacketFate {
                drop: true,
                delay_ns: 0,
                dup_delay_ns: None,
            };
        }
        let sample_delay = |rng: &mut TestRng, latency: &Option<LatencyModel>| {
            latency.as_ref().map_or(0, |m| m.sample(rng).as_nanos())
        };
        let delay_ns = sample_delay(&mut self.rng, &self.latency);
        let dup_delay_ns = if self.dup_p > 0.0 && self.rng.gen_bool(self.dup_p) {
            Some(sample_delay(&mut self.rng, &self.latency))
        } else {
            None
        };
        PacketFate {
            drop: false,
            delay_ns,
            dup_delay_ns,
        }
    }
}

/// Lifetime fault counters of a [`FaultySocket`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ShimStats {
    /// Datagrams handed to the OS (originals + duplicates).
    pub sent: u64,
    /// Datagrams consumed by an injected drop.
    pub injected_drops: u64,
    /// Datagrams that were held for a sampled delay before sending.
    pub delayed: u64,
    /// Extra copies injected by duplication.
    pub duplicated: u64,
}

/// A datagram whose send is deferred to its due instant.
struct Deferred {
    due: Instant,
    // Monotone enqueue stamp: equal-due packets flush in enqueue order.
    stamp: u64,
    dst: SocketAddr,
    payload: Vec<u8>,
}

impl PartialEq for Deferred {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.stamp == other.stamp
    }
}
impl Eq for Deferred {}
impl PartialOrd for Deferred {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Deferred {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-due first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.stamp.cmp(&self.stamp))
    }
}

struct DelayQueue {
    heap: Mutex<(BinaryHeap<Deferred>, bool)>, // (queue, shutting_down)
    wake: Condvar,
}

struct Directions {
    slots: HashMap<SocketAddr, usize>,
    /// The address the latest send looked up, and its slot: a slot never
    /// changes once registered, and the multiplexer sends every frame to
    /// one address, so most sends skip hashing it.
    last: Option<(SocketAddr, usize)>,
    plans: Vec<DirectionPlan>,
    stamp: u64,
    plane: FaultPlane,
}

impl Directions {
    /// The direction slot registered for `dst`, if any.
    fn slot(&mut self, dst: SocketAddr) -> Option<usize> {
        if let Some((addr, slot)) = self.last {
            if addr == dst {
                return Some(slot);
            }
        }
        let slot = self.slots.get(&dst).copied()?;
        self.last = Some((dst, slot));
        Some(slot)
    }
}

/// A [`DatagramSocket`] that wraps a real socket with a deterministic
/// fault plane: a [`FaultPlane`] (loss, dead nodes, partitions, cut
/// links) and seeded per-direction delay and duplication.
/// Receives pass through untouched (loss is injected on the send side,
/// where the outcome is knowable). See the module docs for the
/// determinism contract.
pub struct FaultySocket {
    inner: Arc<dyn DatagramSocket>,
    cfg: FaultConfig,
    directions: Mutex<Directions>,
    queue: Arc<DelayQueue>,
    flusher: Mutex<Option<JoinHandle<()>>>,
    sent: AtomicU64,
    injected_drops: AtomicU64,
    delayed: AtomicU64,
    duplicated: AtomicU64,
}

impl FaultySocket {
    /// Wrap `socket` with the fault plane described by `cfg`.
    pub fn new(socket: UdpSocket, cfg: FaultConfig) -> Self {
        Self::over(Arc::new(socket), cfg)
    }

    /// The fault plane described by `cfg` over any socket: fates are
    /// drawn per payload here, and the copies that survive go to `inner` —
    /// all of them when [`send_to`](DatagramSocket::send_to) is handed the
    /// payload, the delayed ones when an [`Outbox`] holding this socket
    /// batches the rest itself.
    pub fn over(inner: Arc<dyn DatagramSocket>, mut cfg: FaultConfig) -> Self {
        let plane = std::mem::take(&mut cfg.plane);
        FaultySocket {
            inner,
            cfg,
            directions: Mutex::new(Directions {
                slots: HashMap::new(),
                last: None,
                plans: Vec::new(),
                stamp: 0,
                plane,
            }),
            queue: Arc::new(DelayQueue {
                heap: Mutex::new((BinaryHeap::new(), false)),
                wake: Condvar::new(),
            }),
            flusher: Mutex::new(None),
            sent: AtomicU64::new(0),
            injected_drops: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            duplicated: AtomicU64::new(0),
        }
    }

    /// Register the next logical peer; returns its direction slot.
    /// Call in the caller's stable peer order (logical node order, not
    /// ephemeral-port order) so slot `k` maps to the same fault stream in
    /// every run with the same seed. Sends to unregistered addresses are
    /// passed through unfaulted.
    pub fn register_peer(&self, addr: SocketAddr) -> usize {
        let mut dirs = lock_shim(&self.directions, "directions");
        if let Some(&slot) = dirs.slots.get(&addr) {
            return slot;
        }
        let slot = dirs.plans.len();
        let plan = DirectionPlan::new(&self.cfg, slot as u64);
        dirs.plans.push(plan);
        dirs.slots.insert(addr, slot);
        slot
    }

    /// Change the plane every later payload is sent under.
    pub fn with_faults<T>(&self, f: impl FnOnce(&mut FaultPlane) -> T) -> T {
        f(&mut lock_shim(&self.directions, "directions").plane)
    }

    /// Lifetime fault counters.
    pub fn stats(&self) -> ShimStats {
        ShimStats {
            sent: self.sent.load(Ordering::Relaxed),
            injected_drops: self.injected_drops.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            duplicated: self.duplicated.load(Ordering::Relaxed),
        }
    }

    /// Draw the fate of one frame on `link` bound for `dst` and queue its
    /// delayed copies; `copy` is what a delayed copy puts on the wire.
    /// `None` if the plane dropped it; a frame to an unregistered `dst`
    /// passes as one copy, now.
    fn admit(
        &self,
        copy: &[u8],
        link: Option<(NodeId, NodeId)>,
        dst: SocketAddr,
    ) -> Option<Admitted> {
        let fate = {
            let mut guard = lock_shim(&self.directions, "directions");
            let dirs = &mut *guard;
            match dirs.slot(dst) {
                None => None, // unregistered: passthrough
                Some(slot) => {
                    dirs.stamp += 1;
                    let fate = dirs.plans[slot].next_fate(&dirs.plane, link);
                    Some((fate, dirs.stamp))
                }
            }
        };
        let Some((fate, stamp)) = fate else {
            return Some(Admitted::PASSTHROUGH);
        };
        if fate.drop {
            self.injected_drops.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut admitted = Admitted {
            now: 0,
            dup_now: fate.dup_delay_ns == Some(0),
            delayed: false,
        };
        if fate.delay_ns == 0 {
            admitted.now += 1;
        } else {
            self.send_later(copy, dst, fate.delay_ns, stamp);
            admitted.delayed = true;
        }
        match fate.dup_delay_ns {
            Some(0) => admitted.now += 1,
            Some(delay_ns) => {
                self.send_later(copy, dst, delay_ns, stamp);
                self.duplicated.fetch_add(1, Ordering::Relaxed);
                admitted.delayed = true;
            }
            None => {}
        }
        Some(admitted)
    }

    /// Count the copies an admitted frame put on the wire now.
    fn count_now(&self, admitted: Admitted) {
        self.sent.fetch_add(admitted.now as u64, Ordering::Relaxed);
        if admitted.dup_now {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Whether copies reach the wire in another number or order than
    /// their frames were admitted: duplication or delay is configured.
    fn reorders(&self) -> bool {
        self.cfg.dup_permille > 0 || self.cfg.latency.is_some()
    }

    /// Queue a copy for sending at `now + delay`, starting the flusher
    /// thread on first use.
    fn send_later(&self, buf: &[u8], dst: SocketAddr, delay_ns: u64, stamp: u64) {
        {
            let mut flusher = lock_shim(&self.flusher, "flusher");
            if flusher.is_none() {
                let inner = Arc::clone(&self.inner);
                let queue = Arc::clone(&self.queue);
                *flusher = Some(std::thread::spawn(move || flush_loop(&*inner, &queue)));
            }
        }
        let mut guard = lock_shim(&self.queue.heap, "delay queue");
        guard.0.push(Deferred {
            due: Instant::now() + Duration::from_nanos(delay_ns),
            stamp,
            dst,
            payload: buf.to_vec(),
        });
        self.sent.fetch_add(1, Ordering::Relaxed);
        self.delayed.fetch_add(1, Ordering::Relaxed);
        self.queue.wake.notify_one();
    }
}

/// A frame the fault plane let through.
#[derive(Clone, Copy)]
struct Admitted {
    /// Copies to send now: the original, a duplicate, both or neither.
    now: usize,
    /// One of those is a duplicate.
    dup_now: bool,
    /// A copy was queued for later, so the frame leaves whatever becomes
    /// of the copies sent now.
    delayed: bool,
}

impl Admitted {
    /// An unregistered destination: one copy, now.
    const PASSTHROUGH: Admitted = Admitted {
        now: 1,
        dup_now: false,
        delayed: false,
    };
}

/// Lock a shim-internal mutex, naming it if a panicking sibling poisoned
/// it — same diagnosability discipline as the daemon's tables.
fn lock_shim<'a, T>(m: &'a Mutex<T>, what: &str) -> std::sync::MutexGuard<'a, T> {
    match m.lock() {
        Ok(g) => g,
        Err(_) => panic!("socket shim {what} mutex poisoned (flusher or sender panicked)"),
    }
}

fn flush_loop(inner: &dyn DatagramSocket, queue: &DelayQueue) {
    let mut guard = lock_shim(&queue.heap, "delay queue");
    loop {
        if guard.1 {
            // Shutdown: flush everything immediately, regardless of due
            // time. A deferred packet was reported `Sent`, so dropping it
            // here would silently lose power the caller believes is in
            // flight.
            while let Some(pkt) = guard.0.pop() {
                let _ = inner.send_to(&pkt.payload, pkt.dst);
            }
            return;
        }
        let now = Instant::now();
        match guard.0.peek() {
            Some(pkt) if pkt.due <= now => {
                let pkt = guard.0.pop().expect("peeked");
                // Send outside the lock so senders never block on the OS.
                drop(guard);
                let _ = inner.send_to(&pkt.payload, pkt.dst);
                guard = lock_shim(&queue.heap, "delay queue");
            }
            Some(pkt) => {
                let wait = pkt.due.saturating_duration_since(now);
                let (g, _) = queue
                    .wake
                    .wait_timeout(guard, wait)
                    .unwrap_or_else(|_| panic!("FaultySocket delay queue mutex poisoned"));
                guard = g;
            }
            None => {
                guard = queue
                    .wake
                    .wait(guard)
                    .unwrap_or_else(|_| panic!("FaultySocket delay queue mutex poisoned"));
            }
        }
    }
}

impl Drop for FaultySocket {
    fn drop(&mut self) {
        let handle = lock_shim(&self.flusher, "flusher").take();
        if let Some(handle) = handle {
            lock_shim(&self.queue.heap, "delay queue").1 = true;
            self.queue.wake.notify_one();
            let _ = handle.join();
        }
    }
}

impl DatagramSocket for FaultySocket {
    /// The payload's fate, then its copies due now, each its own datagram.
    /// The kernel's refusal is an error only if no copy of the payload is
    /// on its way: one that left, or one queued for later, still arrives.
    fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus> {
        let Some(admitted) = self.admit(buf, frame_endpoints(buf), dst) else {
            return Ok(SendStatus::Dropped);
        };
        let mut left = 0;
        for _ in 0..admitted.now {
            match self.inner.send_to(buf, dst) {
                Ok(_) => left += 1,
                Err(e) if left == 0 && !admitted.delayed => return Err(e),
                Err(_) => break,
            }
        }
        self.count_now(Admitted {
            now: left,
            // The copy due now that is a duplicate is the last one sent.
            dup_now: admitted.dup_now && left == admitted.now,
            ..admitted
        });
        Ok(SendStatus::Sent)
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

/// Largest datagram an [`Outbox`] puts on the wire: room for an in-flight
/// window of frames. Both ends of a coalesced link are one process's own
/// sockets on loopback, so no Ethernet payload bounds it.
pub(crate) const MAX_DATAGRAM: usize = 8192;

/// Record header: the frame length, `u16` LE.
const RECORD_HDR: usize = 2;

/// Longest frame an [`Outbox`] takes: a frame and its duplicate, record
/// headers included, fill one datagram at most.
pub(crate) const MAX_RECORD: usize = MAX_DATAGRAM / 2 - RECORD_HDR;
const _: () = assert!(2 * (RECORD_HDR + MAX_RECORD) <= MAX_DATAGRAM);
const _: () = assert!(MAX_RECORD <= u16::MAX as usize);

/// The sending half of the coalescing codec: frames for one destination
/// held as records until they leave as one datagram, through one socket.
/// Its one owner drives it by `&mut`; see the module docs for the record
/// format, the flush rule and what a failed flush means.
pub struct Outbox {
    /// Where the held records go: the socket itself, or the one the fault
    /// plane wraps, so on-time and delayed copies leave by the same one.
    sink: Arc<dyn DatagramSocket>,
    /// The fault plane every frame meets before it joins the batch.
    faults: Option<Arc<FaultySocket>>,
    /// Held records. Sized once for a full datagram and the most one
    /// frame and its duplicate can add past it.
    buf: Vec<u8>,
    /// Where the held records go; meaningless while there are none.
    dst: SocketAddr,
    /// Frames held; a duplicated frame is one frame in two records.
    frames: usize,
    datagrams_sent: u64,
}

impl Outbox {
    /// An outbox whose frames go straight to `sink`.
    pub fn new(sink: Arc<dyn DatagramSocket>) -> Self {
        Outbox::with(sink, None)
    }

    /// An outbox whose frames each meet `faults` first, and whose
    /// survivors leave through the socket it wraps.
    pub fn faulty(faults: Arc<FaultySocket>) -> Self {
        Outbox::with(Arc::clone(&faults.inner), Some(faults))
    }

    fn with(sink: Arc<dyn DatagramSocket>, faults: Option<Arc<FaultySocket>>) -> Self {
        Outbox {
            sink,
            faults,
            buf: Vec::with_capacity(2 * MAX_DATAGRAM),
            dst: SocketAddr::from(([0, 0, 0, 0], 0)),
            frames: 0,
            datagrams_sent: 0,
        }
    }

    /// Append one frame for `dst`, which `encode` writes in place after
    /// whatever the buffer holds. The frame meets the fault plane first:
    /// `Dropped` is an injected drop. The held batch leaves first if `dst`
    /// is another destination or the frame does not fit beside it; if the
    /// kernel refuses that batch it is kept and this frame is refused with
    /// the error, unless a delayed copy of it is already on its way.
    pub fn send(
        &mut self,
        dst: SocketAddr,
        encode: impl FnOnce(&mut Vec<u8>),
    ) -> io::Result<SendStatus> {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; RECORD_HDR]);
        encode(&mut self.buf);
        let len = self.buf.len() - start - RECORD_HDR;
        if len == 0 || len > MAX_RECORD {
            self.buf.truncate(start);
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "frame does not fit one record",
            ));
        }
        self.buf[start..start + RECORD_HDR].copy_from_slice(&(len as u16).to_le_bytes());
        let admitted = match &self.faults {
            None => Admitted::PASSTHROUGH,
            Some(faults) => {
                let record = &self.buf[start..];
                let link = frame_endpoints(&record[RECORD_HDR..]);
                let Some(admitted) = faults.admit(record, link, dst) else {
                    self.buf.truncate(start);
                    return Ok(SendStatus::Dropped);
                };
                admitted
            }
        };
        match admitted.now {
            0 => {
                self.buf.truncate(start);
                return Ok(SendStatus::Sent);
            }
            1 => {}
            _ => self.buf.extend_from_within(start..),
        }
        if self.frames > 0 && (dst != self.dst || self.buf.len() > MAX_DATAGRAM) {
            if let Err(e) = self.send_held(start) {
                self.buf.truncate(start);
                return if admitted.delayed {
                    Ok(SendStatus::Sent)
                } else {
                    Err(e)
                };
            }
        }
        self.dst = dst;
        self.frames += 1;
        if let Some(faults) = &self.faults {
            faults.count_now(admitted);
        }
        Ok(SendStatus::Sent)
    }

    /// Hand every held frame to the kernel. If it refuses, the batch is
    /// discarded and the error names how many frames went with it — none
    /// when the fault plane duplicates or delays, which leaves a frame's
    /// fate unknown: such frames count as sent, the side that can strand
    /// power but never mint it.
    pub fn flush(&mut self) -> Result<(), FlushError> {
        if self.frames == 0 {
            return Ok(());
        }
        self.send_held(self.buf.len()).map_err(|source| {
            let frames = std::mem::take(&mut self.frames);
            self.buf.clear();
            let reorders = self.faults.as_ref().is_some_and(|f| f.reorders());
            FlushError {
                lost: if reorders { 0 } else { frames },
                source,
            }
        })
    }

    /// Datagrams the kernel has taken so far.
    pub fn datagrams_sent(&self) -> u64 {
        self.datagrams_sent
    }

    /// Send the held records, `buf[..end]`, as one datagram and keep what
    /// follows them; on an error nothing changes.
    fn send_held(&mut self, end: usize) -> io::Result<()> {
        self.sink.send_to(&self.buf[..end], self.dst)?;
        self.datagrams_sent += 1;
        self.buf.drain(..end);
        self.frames = 0;
        Ok(())
    }
}

/// The receiving half: one datagram from the kernel, handed up a frame at
/// a time, in place. An inbox reads either coalesced records or one raw
/// frame per datagram.
pub struct Inbox {
    buf: Box<[u8]>,
    len: usize,
    /// Where the next record starts.
    at: usize,
    /// Every frame of the datagram in hand has been handed up.
    done: bool,
    records: bool,
    from: SocketAddr,
}

impl Inbox {
    /// An inbox for coalesced datagrams of up to `MAX_DATAGRAM` bytes.
    pub fn records() -> Self {
        Inbox::with(MAX_DATAGRAM, true)
    }

    /// An inbox that hands each datagram up whole, as one frame, cut to
    /// `max_frame` bytes as the kernel cuts a datagram longer than the
    /// buffer it reads into.
    pub fn raw(max_frame: usize) -> Self {
        Inbox::with(max_frame, false)
    }

    fn with(cap: usize, records: bool) -> Self {
        Inbox {
            buf: vec![0; cap].into_boxed_slice(),
            len: 0,
            at: 0,
            done: true,
            records,
            from: SocketAddr::from(([0, 0, 0, 0], 0)),
        }
    }

    /// Whether every frame received so far has been handed up, so the
    /// next one must come from the kernel.
    pub fn is_empty(&self) -> bool {
        self.done
    }

    /// Take the next datagram from `socket` (honouring its timeout or
    /// non-blocking mode), dropping whatever was left of the last one.
    pub fn recv(&mut self, socket: &dyn DatagramSocket) -> io::Result<()> {
        let (len, from) = socket.recv_from(&mut self.buf)?;
        (self.len, self.at, self.done, self.from) = (len, 0, false, from);
        Ok(())
    }

    /// The next frame and its sender, or `None` once the datagram is
    /// done. Whatever follows the last whole record comes up once, as an
    /// empty frame.
    pub fn next_frame(&mut self) -> Option<(&[u8], SocketAddr)> {
        if self.done {
            return None;
        }
        let rest = &self.buf[self.at..self.len];
        if !self.records {
            self.done = true;
            return Some((rest, self.from));
        }
        let record = rest.split_first_chunk().and_then(|(len, body)| {
            let len = usize::from(u16::from_le_bytes(*len));
            body.get(..len).filter(|frame| !frame.is_empty())
        });
        let frame = match record {
            Some(frame) => {
                self.at += RECORD_HDR + frame.len();
                self.done = self.at == self.len;
                frame
            }
            None => {
                self.done = true;
                &[]
            }
        };
        Some((frame, self.from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use penelope_units::SimDuration;

    fn fates(cfg: &FaultConfig, slot: u64, n: usize) -> Vec<PacketFate> {
        let mut plan = DirectionPlan::new(cfg, slot);
        (0..n).map(|_| plan.next_fate(&cfg.plane, None)).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            dup_permille: 100,
            latency: Some(LatencyModel::Uniform {
                lo: SimDuration::from_micros(100),
                hi: SimDuration::from_micros(900),
            }),
            ..FaultConfig::lossy(0xBEEF, 250)
        };
        for slot in 0..4 {
            assert_eq!(fates(&cfg, slot, 256), fates(&cfg, slot, 256));
        }
        // Distinct directions get distinct streams.
        assert_ne!(fates(&cfg, 0, 256), fates(&cfg, 1, 256));
    }

    /// Pinned vector: the exact drop schedule seed 42 produces on slot 0
    /// at 200 ‰. Any change to the stream derivation or the per-packet
    /// draw order breaks replayability of every recorded run — this test
    /// is the tripwire.
    #[test]
    fn pinned_drop_schedule_seed_42() {
        let cfg = FaultConfig::lossy(42, 200);
        let pattern: String = fates(&cfg, 0, 64)
            .iter()
            .map(|f| if f.drop { 'x' } else { '.' })
            .collect();
        assert_eq!(
            pattern,
            "xx.xx.x.........xx.............xx..x.......x........x..x..x....x",
        );
        let drops = pattern.chars().filter(|c| *c == 'x').count();
        assert_eq!(drops, 15, "≈200‰ of 64");
    }

    #[test]
    fn zero_rate_never_drops_and_full_rate_always_drops() {
        let none = FaultConfig::lossy(7, 0);
        assert!(fates(&none, 0, 128).iter().all(|f| !f.drop));
        let all = FaultConfig::lossy(7, 1000);
        assert!(fates(&all, 0, 128).iter().all(|f| f.drop));
    }

    /// End-to-end over real loopback datagrams: two shims with the same
    /// seed produce bit-identical delivery patterns and identical stats,
    /// and the survivors actually arrive.
    #[test]
    fn loopback_runs_replay_bit_identically() {
        let run = |seed: u64| -> (Vec<bool>, ShimStats, usize) {
            let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
            rx.set_read_timeout(Some(Duration::from_millis(200)))
                .expect("timeout");
            let rx_addr = rx.local_addr().expect("rx addr");
            let tx = FaultySocket::new(
                UdpSocket::bind("127.0.0.1:0").expect("bind tx"),
                FaultConfig::lossy(seed, 300),
            );
            tx.register_peer(rx_addr);
            let mut pattern = Vec::new();
            for i in 0u8..64 {
                let status = tx.send_to(&[i], rx_addr).expect("send");
                pattern.push(status == SendStatus::Sent);
            }
            let mut got = 0;
            let mut buf = [0u8; 8];
            while rx.recv_from(&mut buf).is_ok() {
                got += 1;
            }
            (pattern, tx.stats(), got)
        };
        let (pat_a, stats_a, got_a) = run(99);
        let (pat_b, stats_b, got_b) = run(99);
        assert_eq!(pat_a, pat_b, "same seed ⇒ same delivery pattern");
        assert_eq!(stats_a, stats_b);
        assert!(stats_a.injected_drops >= 1, "300‰ of 64 sends must drop");
        assert_eq!(
            stats_a.sent + stats_a.injected_drops,
            64,
            "every datagram is either sent or an injected drop"
        );
        // Loopback does not lose datagrams at this volume: everything the
        // shim reports Sent arrives.
        assert_eq!(got_a as u64, stats_a.sent);
        assert_eq!(got_b as u64, stats_b.sent);
    }

    /// Deferred packets are flushed (not discarded) when the shim drops:
    /// a packet reported `Sent` must eventually hit the wire.
    #[test]
    fn delayed_packets_flush_on_drop() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        rx.set_read_timeout(Some(Duration::from_millis(500)))
            .expect("timeout");
        let rx_addr = rx.local_addr().expect("rx addr");
        let tx = FaultySocket::new(
            UdpSocket::bind("127.0.0.1:0").expect("bind tx"),
            FaultConfig {
                latency: Some(LatencyModel::Constant(SimDuration::from_millis(10_000))),
                ..FaultConfig::lossy(5, 0)
            },
        );
        tx.register_peer(rx_addr);
        for i in 0u8..4 {
            assert_eq!(tx.send_to(&[i], rx_addr).expect("send"), SendStatus::Sent);
        }
        assert_eq!(tx.stats().delayed, 4);
        drop(tx); // flush-on-drop, long before the 10 s due times
        let mut got = 0;
        let mut buf = [0u8; 8];
        while got < 4 && rx.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, 4);
    }

    #[test]
    fn unregistered_destinations_pass_through() {
        let rx = UdpSocket::bind("127.0.0.1:0").expect("bind rx");
        rx.set_read_timeout(Some(Duration::from_millis(200)))
            .expect("timeout");
        let rx_addr = rx.local_addr().expect("rx addr");
        let tx = FaultySocket::new(
            UdpSocket::bind("127.0.0.1:0").expect("bind tx"),
            FaultConfig::lossy(3, 1000), // would drop everything...
        );
        // ...but rx was never registered, so sends pass through.
        for i in 0u8..8 {
            assert_eq!(tx.send_to(&[i], rx_addr).expect("send"), SendStatus::Sent);
        }
        assert_eq!(tx.stats().injected_drops, 0);
        let mut got = 0;
        let mut buf = [0u8; 8];
        while got < 8 && rx.recv_from(&mut buf).is_ok() {
            got += 1;
        }
        assert_eq!(got, 8);
    }

    /// The plane's links bind framed payloads by the ids in their header:
    /// a cut link refuses its frames from the moment it is cut until it
    /// heals, every other link carries, and a payload too short to name a
    /// link meets the loss draw alone.
    #[test]
    fn a_cut_link_refuses_the_frames_its_header_names() {
        let (rx, rx_addr) = bound(200);
        let tx = FaultySocket::new(
            UdpSocket::bind("127.0.0.1:0").expect("bind tx"),
            FaultConfig::lossy(7, 0),
        );
        tx.register_peer(rx_addr);
        let frame = |dst: u32, src: u32| {
            let mut buf = dst.to_le_bytes().to_vec();
            buf.extend_from_slice(&src.to_le_bytes());
            buf.push(0xAB);
            buf
        };
        let send = |payload: &[u8]| tx.send_to(payload, rx_addr).expect("send");
        assert_eq!(
            frame_endpoints(&frame(2, 1)),
            Some((NodeId::new(2), NodeId::new(1)))
        );
        assert_eq!(frame_endpoints(&[1, 2, 3]), None);

        tx.with_faults(|plane| plane.cut_link(NodeId::new(1), NodeId::new(2)));
        assert_eq!(send(&frame(2, 1)), SendStatus::Dropped, "the cut direction");
        assert_eq!(send(&frame(1, 2)), SendStatus::Sent, "the other direction");
        assert_eq!(send(&frame(3, 1)), SendStatus::Sent, "another link");
        assert_eq!(send(&[9]), SendStatus::Sent, "on no node's link");
        tx.with_faults(|plane| plane.heal_link(NodeId::new(1), NodeId::new(2)));
        assert_eq!(send(&frame(2, 1)), SendStatus::Sent, "healed");
        tx.with_faults(|plane| plane.kill(NodeId::new(3)));
        assert_eq!(send(&frame(3, 1)), SendStatus::Dropped, "to a dead node");
        assert_eq!(send(&frame(1, 3)), SendStatus::Dropped, "from a dead node");

        assert_eq!(tx.stats().injected_drops, 3);
        assert_eq!(payloads(&rx).len(), 4);
    }

    /// A bound socket with a read timeout, and its address.
    fn bound(timeout_ms: u64) -> (UdpSocket, SocketAddr) {
        let socket = UdpSocket::bind("127.0.0.1:0").expect("bind");
        socket
            .set_read_timeout(Some(Duration::from_millis(timeout_ms)))
            .expect("timeout");
        let addr = socket.local_addr().expect("addr");
        (socket, addr)
    }

    /// Every payload waiting on `socket`, in order, until it times out.
    fn payloads(socket: &dyn DatagramSocket) -> Vec<Vec<u8>> {
        let mut buf = [0u8; MAX_DATAGRAM];
        std::iter::from_fn(|| {
            let (len, _) = socket.recv_from(&mut buf).ok()?;
            Some(buf[..len].to_vec())
        })
        .collect()
    }

    /// An outbox straight onto a fresh loopback socket.
    fn outbox() -> Outbox {
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        Outbox::new(Arc::new(tx))
    }

    /// An outbox behind a fault plane over a fresh loopback socket.
    fn faulty_outbox(cfg: FaultConfig) -> (Outbox, Arc<FaultySocket>) {
        let tx = UdpSocket::bind("127.0.0.1:0").expect("bind tx");
        let faults = Arc::new(FaultySocket::new(tx, cfg));
        (Outbox::faulty(faults.clone()), faults)
    }

    /// Append `frame` as it is.
    fn put(outbox: &mut Outbox, dst: SocketAddr, frame: &[u8]) -> io::Result<SendStatus> {
        outbox.send(dst, |buf| buf.extend_from_slice(frame))
    }

    /// Every frame `inbox` hands up from `socket`, in order, until the
    /// socket times out.
    fn frames(inbox: &mut Inbox, socket: &UdpSocket) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        while !inbox.is_empty() || inbox.recv(socket).is_ok() {
            while let Some((frame, _)) = inbox.next_frame() {
                got.push(frame.to_vec());
            }
        }
        got
    }

    /// Any sequence of frames crosses an outbox and an inbox byte for byte
    /// and in order, however it falls across datagram boundaries, and no
    /// datagram on the wire exceeds the bound.
    #[test]
    fn coalesced_payloads_round_trip_in_order_within_the_bound() {
        use penelope_testkit::prop::{self, one_of, vec_of};
        let (tap, tap_addr) = bound(20);
        let (rx, rx_addr) = bound(20);
        let inbox = std::cell::RefCell::new(Inbox::records());
        let tx = std::cell::RefCell::new(outbox());
        let lens = one_of(vec![1usize, 2, 27, 31, 84, 733, 2045, 4093, MAX_RECORD]);
        prop::check(
            "coalesced frames round-trip",
            prop::Config::default(),
            vec_of((lens, prop::any_u8()), 1..48),
            |seq| {
                let (mut tx, mut inbox) = (tx.borrow_mut(), inbox.borrow_mut());
                let sent: Vec<Vec<u8>> = seq
                    .iter()
                    .map(|&(len, fill)| (0..len).map(|i| fill.wrapping_add(i as u8)).collect())
                    .collect();
                let before = tx.datagrams_sent();
                for frame in &sent {
                    assert_eq!(
                        put(&mut tx, tap_addr, frame).expect("send"),
                        SendStatus::Sent
                    );
                }
                tx.flush().expect("flush");
                // The tap sees what is on the wire and passes it on.
                let mut wire = [0u8; 2 * MAX_DATAGRAM];
                let mut datagrams = 0;
                while let Ok((len, _)) = tap.recv_from(&mut wire) {
                    assert!(len <= MAX_DATAGRAM, "{len} bytes in one datagram");
                    UdpSocket::send_to(&tap, &wire[..len], rx_addr).expect("forward");
                    datagrams += 1;
                }
                assert_eq!(datagrams, tx.datagrams_sent() - before);
                assert_eq!(frames(&mut inbox, &rx), sent);
                assert!(inbox.is_empty());
            },
        );
    }

    /// The cap is exact: records of the largest daemon frame (84 bytes)
    /// plus one filler that ends the batch on the cap's last byte leave as
    /// one datagram; one byte more and the filler waits for the next.
    #[test]
    fn a_batch_fills_the_cap_to_the_byte_and_no_further() {
        const LARGEST: usize = 84;
        let whole = MAX_DATAGRAM / (RECORD_HDR + LARGEST);
        let room = MAX_DATAGRAM - whole * (RECORD_HDR + LARGEST) - RECORD_HDR;
        assert_eq!((whole, room), (95, 20));
        for (filler, datagrams) in [(room, 1), (room + 1, 2)] {
            let (rx, rx_addr) = bound(20);
            let mut tx = outbox();
            let mut sent = vec![vec![0xA5; LARGEST]; whole];
            sent.push(vec![0x5A; filler]);
            for frame in &sent {
                put(&mut tx, rx_addr, frame).expect("send");
            }
            assert_eq!(tx.datagrams_sent(), datagrams - 1, "filler {filler}");
            tx.flush().expect("flush");
            assert_eq!(tx.datagrams_sent(), datagrams);
            let wire: Vec<usize> = payloads(&rx).iter().map(Vec::len).collect();
            let full = whole * (RECORD_HDR + LARGEST);
            match datagrams {
                1 => assert_eq!(wire, [MAX_DATAGRAM]),
                _ => assert_eq!(wire, [full, RECORD_HDR + filler]),
            }
        }
    }

    #[test]
    fn a_destination_change_flushes_first() {
        let (a, a_addr) = bound(20);
        let (b, b_addr) = bound(20);
        let mut tx = outbox();
        put(&mut tx, a_addr, b"to a").expect("send");
        put(&mut tx, a_addr, b"a too").expect("send");
        let mut buf = [0u8; 64];
        assert!(a.recv_from(&mut buf).is_err(), "sent before any flush");
        put(&mut tx, b_addr, b"to b").expect("send");
        // The batch for `a` left when `b`'s frame came; `b`'s waits.
        let (len, _) = a.recv_from(&mut buf).expect("a's batch");
        assert_eq!(&buf[..len], b"\x04\0to a\x05\0a too");
        assert!(b.recv_from(&mut buf).is_err(), "b's batch left unflushed");
        tx.flush().expect("flush");
        let (len, _) = b.recv_from(&mut buf).expect("b's batch");
        assert_eq!(&buf[..len], b"\x04\0to b");
        assert_eq!(tx.datagrams_sent(), 2);
    }

    #[test]
    fn payloads_that_fit_no_record_are_invalid_input() {
        let (rx, rx_addr) = bound(20);
        let mut inbox = Inbox::records();
        let mut tx = outbox();
        put(&mut tx, rx_addr, b"kept").expect("send");
        for bad in [&[][..], &[7u8; MAX_RECORD + 1]] {
            let err = put(&mut tx, rx_addr, bad).expect_err("no record holds it");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        put(&mut tx, rx_addr, &[7u8; MAX_RECORD]).expect("send");
        tx.flush().expect("flush");
        assert_eq!(
            frames(&mut inbox, &rx),
            vec![b"kept".to_vec(), vec![7u8; MAX_RECORD]]
        );
    }

    /// Whatever follows the last whole record of a datagram comes up once,
    /// as an empty frame, and the datagram is done: no panic, no loop,
    /// and the next datagram is read as if nothing had happened.
    #[test]
    fn hostile_datagrams_surface_once_as_an_empty_payload() {
        let (rx, rx_addr) = bound(20);
        let mut inbox = Inbox::records();
        let stranger = UdpSocket::bind("127.0.0.1:0").expect("bind");
        let cases: [(&[u8], &[&[u8]]); 6] = [
            // A length that overruns the datagram.
            (b"\x05\0ab", &[b""]),
            // A lone trailing byte after a whole record.
            (b"\x02\0ok\x09", &[b"ok", b""]),
            // A zero-length record hides the whole one behind it.
            (b"\x02\0ok\0\0\x02\0no", &[b"ok", b""]),
            // An empty datagram, and one of plain garbage.
            (b"", &[b""]),
            (b"garbage!", &[b""]),
            // A well-formed one still gets through afterwards.
            (b"\x01\0a\x01\0b", &[b"a", b"b"]),
        ];
        for (datagram, expect) in cases {
            stranger.send_to(datagram, rx_addr).expect("send");
            let got = frames(&mut inbox, &rx);
            assert_eq!(got, expect.iter().map(|p| p.to_vec()).collect::<Vec<_>>());
            assert!(inbox.is_empty());
        }
        // A raw inbox reads no records: each datagram is one frame.
        let mut raw = Inbox::raw(4);
        for datagram in [&b"\x01\0a"[..], b"", b"longer"] {
            stranger.send_to(datagram, rx_addr).expect("send");
        }
        let cut = [b"\x01\0a".to_vec(), Vec::new(), b"long".to_vec()];
        assert_eq!(frames(&mut raw, &rx), cut);
    }

    /// An implicit flush the kernel refuses loses nothing — the batch
    /// stays and the frame that needed the room is refused — and an
    /// explicit one discards the batch and says how many frames it held.
    #[test]
    fn a_refused_flush_names_what_it_lost() {
        let (rx, rx_addr) = bound(20);
        let mut inbox = Inbox::records();
        let mut tx = outbox();
        // The kernel refuses port 0 as a destination.
        let nowhere = SocketAddr::from(([127, 0, 0, 1], 0));
        for frame in [b"a", b"b", b"c"] {
            assert_eq!(
                put(&mut tx, nowhere, frame).expect("held"),
                SendStatus::Sent
            );
        }
        put(&mut tx, rx_addr, b"d").expect_err("the batch in the way cannot leave");
        let err = tx.flush().expect_err("the kernel refuses the batch");
        assert_eq!(err.lost, 3);
        tx.flush().expect("nothing left to refuse");
        put(&mut tx, rx_addr, b"e").expect("send");
        tx.flush().expect("flush");
        assert_eq!(frames(&mut inbox, &rx), vec![b"e".to_vec()]);
        assert_eq!(tx.datagrams_sent(), 1);

        // Under a fault plane that duplicates or delays, a frame's copies
        // leave in another number and order than it was accepted, so the
        // refusal names none of them.
        let (mut tx, _) = faulty_outbox(FaultConfig {
            dup_permille: 1000,
            ..FaultConfig::lossy(5, 0)
        });
        put(&mut tx, nowhere, b"f").expect("held");
        let err = tx.flush().expect_err("the kernel refuses the batch");
        assert_eq!(err.lost, 0);
    }

    /// A loopback socket whose kernel refuses the sends `refuse` picks by
    /// call count, on the thread that built it; a flusher's sends pass.
    struct Refusing {
        socket: UdpSocket,
        owner: std::thread::ThreadId,
        calls: AtomicU64,
        refuse: fn(u64) -> bool,
    }

    impl Refusing {
        fn new(refuse: fn(u64) -> bool) -> Arc<Self> {
            Arc::new(Refusing {
                socket: UdpSocket::bind("127.0.0.1:0").expect("bind tx"),
                owner: std::thread::current().id(),
                calls: AtomicU64::new(0),
                refuse,
            })
        }
    }

    impl DatagramSocket for Refusing {
        fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus> {
            let mine = std::thread::current().id() == self.owner;
            if mine && (self.refuse)(self.calls.fetch_add(1, Ordering::Relaxed)) {
                return Err(io::ErrorKind::ConnectionRefused.into());
            }
            DatagramSocket::send_to(&self.socket, buf, dst)
        }

        fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
            DatagramSocket::recv_from(&self.socket, buf)
        }

        fn local_addr(&self) -> io::Result<SocketAddr> {
            DatagramSocket::local_addr(&self.socket)
        }

        fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
            DatagramSocket::set_nonblocking(&self.socket, nonblocking)
        }
    }

    /// A payload whose copies due now the kernel refuses is an error only
    /// if no copy of it is on its way: a copy queued for later still
    /// arrives, so it is `Sent`, and only the copies that left are counted.
    #[test]
    fn a_refused_send_is_an_error_only_if_no_copy_is_on_its_way() {
        let (rx, rx_addr) = bound(200);
        // Every copy is duplicated; each copy is due now or 1 ns later.
        let cfg = FaultConfig {
            dup_permille: 1000,
            latency: Some(LatencyModel::Uniform {
                lo: SimDuration::ZERO,
                hi: SimDuration::from_nanos(1),
            }),
            ..FaultConfig::lossy(11, 0)
        };
        let tx = FaultySocket::over(Refusing::new(|_| true), cfg.clone());
        tx.register_peer(rx_addr);
        let mut plan = DirectionPlan::new(&cfg, 0);
        let (mut refused, mut late, mut late_dups) = (0, Vec::new(), 0);
        for i in 0u8..32 {
            let fate = plan.next_fate(&cfg.plane, None);
            let queued = [Some(fate.delay_ns), fate.dup_delay_ns]
                .into_iter()
                .filter(|d| d.is_some_and(|d| d > 0))
                .count();
            late_dups += usize::from(fate.dup_delay_ns.is_some_and(|d| d > 0));
            match tx.send_to(&[i], rx_addr) {
                Err(_) => {
                    assert_eq!(queued, 0, "payload {i} has a copy on its way");
                    refused += 1;
                }
                Ok(status) => {
                    assert_eq!(status, SendStatus::Sent);
                    assert!(queued > 0, "payload {i} reached no one");
                    late.extend(std::iter::repeat_n(vec![i], queued));
                }
            }
        }
        assert!(refused > 0 && late_dups > 0 && late.len() > late_dups);
        let stats = tx.stats();
        assert_eq!(stats.sent, late.len() as u64, "only queued copies left");
        assert_eq!(stats.delayed, late.len() as u64);
        assert_eq!(stats.duplicated, late_dups as u64);
        drop(tx);
        let mut got = payloads(&rx);
        got.sort();
        late.sort();
        assert_eq!(got, late);

        // The original leaves and its duplicate is refused: the payload
        // went, and one copy is counted.
        let cfg = FaultConfig {
            dup_permille: 1000,
            ..FaultConfig::lossy(11, 0)
        };
        let tx = FaultySocket::over(Refusing::new(|call| call % 2 == 1), cfg);
        tx.register_peer(rx_addr);
        for i in 0u8..8 {
            assert_eq!(
                tx.send_to(&[i], rx_addr).expect("one left"),
                SendStatus::Sent
            );
        }
        assert_eq!(
            (tx.stats().sent, tx.stats().duplicated),
            (8, 0),
            "no duplicate left"
        );
        assert_eq!(payloads(&rx).len(), 8);
    }

    /// In an outbox, the fault plane changes what is on the wire and
    /// nothing else: the same seed drops the same frames as a plain faulty
    /// socket, the stats count frames, and the survivors arrive in order.
    #[test]
    fn faults_over_coalescing_replay_the_plain_schedule() {
        let cfg = || FaultConfig::lossy(99, 300);
        let (plain_rx, plain_addr) = bound(200);
        let plain = FaultySocket::new(UdpSocket::bind("127.0.0.1:0").expect("bind tx"), cfg());
        plain.register_peer(plain_addr);
        let plain_pattern: Vec<bool> = (0u8..64)
            .map(|i| plain.send_to(&[i], plain_addr).expect("send") == SendStatus::Sent)
            .collect();

        let (rx, rx_addr) = bound(200);
        let mut inbox = Inbox::records();
        let (mut tx, faults) = faulty_outbox(cfg());
        faults.register_peer(rx_addr);
        let pattern: Vec<bool> = (0u8..64)
            .map(|i| put(&mut tx, rx_addr, &[i]).expect("send") == SendStatus::Sent)
            .collect();
        tx.flush().expect("flush");

        assert_eq!(pattern, plain_pattern, "same seed, same fates");
        assert_eq!(faults.stats(), plain.stats());
        let survivors: Vec<Vec<u8>> = (0u8..64)
            .zip(&pattern)
            .filter(|(_, sent)| **sent)
            .map(|(i, _)| vec![i])
            .collect();
        assert_eq!(payloads(&plain_rx), survivors);
        assert_eq!(frames(&mut inbox, &rx), survivors);
        assert_eq!(tx.datagrams_sent(), 1, "64 one-byte frames fit one");
    }

    /// Duplicated and delayed copies of a frame arrive as well-formed
    /// records: a duplicate sent now shares its original's datagram, a
    /// delayed copy leaves later in a datagram of its own.
    #[test]
    fn copies_in_an_outbox_arrive_as_records() {
        let (rx, rx_addr) = bound(200);
        let mut inbox = Inbox::records();
        let (mut tx, faults) = faulty_outbox(FaultConfig {
            dup_permille: 1000,
            ..FaultConfig::lossy(5, 0)
        });
        faults.register_peer(rx_addr);
        for frame in [b"x", b"y"] {
            assert_eq!(
                put(&mut tx, rx_addr, frame).expect("send"),
                SendStatus::Sent
            );
        }
        tx.flush().expect("flush");
        let twice = [b"x", b"x", b"y", b"y"].map(|f| f.to_vec());
        assert_eq!(frames(&mut inbox, &rx), twice);
        assert_eq!(faults.stats().duplicated, 2);

        let (mut tx, faults) = faulty_outbox(FaultConfig {
            latency: Some(LatencyModel::Constant(SimDuration::from_millis(1))),
            ..FaultConfig::lossy(5, 0)
        });
        faults.register_peer(rx_addr);
        assert_eq!(
            put(&mut tx, rx_addr, b"late").expect("send"),
            SendStatus::Sent
        );
        tx.flush().expect("nothing held");
        assert_eq!(tx.datagrams_sent(), 0, "the copy is the fault plane's");
        assert_eq!(frames(&mut inbox, &rx), vec![b"late".to_vec()]);
        assert_eq!(faults.stats().delayed, 1);
    }
}
