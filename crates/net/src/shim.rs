//! Deterministic datagram socket shim.
//!
//! The UDP daemon is the one substrate that touches real sockets, and a
//! loopback socket never drops, delays, or reorders anything — so until
//! this module existed, every "lossy" daemon run was silently lossless.
//! [`DatagramSocket`] abstracts the socket operations the daemon uses
//! (send, flush, receive, local address, non-blocking mode);
//! [`UdpSocket`] implements it as a passthrough, and two decorators
//! compose over it. [`FaultySocket`] holds a [`FaultPlane`] — the one the
//! simulator routes through — and adds what only a wire
//! can: seeded per-direction duplication and latency, so conformance runs
//! exercise partitions, loss and the escrow/ack machinery on real
//! datagrams. [`CoalescingSocket`] packs
//! consecutive payloads for one destination into one datagram and
//! unpacks them on receive, so a process that sends many small payloads
//! to the same socket pays the kernel once per batch instead of twice
//! per payload.
//!
//! # Coalesced datagrams
//!
//! ```text
//! datagram: ([len: u16 LE][payload: len bytes])+     ≤ 1 472 bytes
//! ```
//!
//! A [`CoalescingSocket`] holds accepted payloads back until the next one
//! would not fit in `MAX_DATAGRAM` bytes, the destination changes, or
//! the caller asks for [`DatagramSocket::flush`]; the receiving side hands
//! the records up one `recv_from` at a time, in order, and
//! [`DatagramSocket::recv_buffered`] says whether one is still waiting. A
//! record has at least one payload byte. Whatever follows the last whole
//! record — a length that overruns the datagram, a zero length, a lone
//! trailing byte, or an empty datagram — is handed up once as an empty
//! payload, which no frame decoder accepts, so a hostile datagram costs
//! its receiver one counted rejection and never a panic or a loop.
//! Composed *under* a [`FaultySocket`] ([`FaultySocket::over`]), every
//! payload still draws its own fate; only the survivors share datagrams.
//!
//! The kernel's verdict on a coalesced payload arrives at flush time, not
//! at `send_to`. An implicit flush that fails loses nothing: the batch is
//! kept and the payload that needed the room is refused with the error.
//! An explicit [`flush`](DatagramSocket::flush) that fails discards the
//! batch and says how many payloads went with it ([`FlushError::lost`]) —
//! always the most recently accepted ones, which is what lets a caller
//! keeping its own list of accepted payloads name them.
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

/// A [`DatagramSocket::flush`] the network refused.
#[derive(Debug)]
pub struct FlushError {
    /// How many accepted payloads never left: always the `lost` most
    /// recently accepted ones. Zero when the socket cannot tell which.
    pub lost: usize,
    /// The OS error behind it.
    pub source: io::Error,
}

/// The socket surface the daemon runtime needs, abstracted so a
/// deterministic fault plane can sit between the protocol and the OS.
pub trait DatagramSocket: Send + Sync {
    /// Send one payload to `dst`. `Ok(SendStatus::Dropped)` means the
    /// fault plane consumed it — an injected drop, not an OS error. An
    /// `Err` means this payload was not taken, and says nothing about
    /// earlier ones.
    fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus>;

    /// Hand every payload `send_to` accepted and still holds to the
    /// network. A socket that sends each payload as it comes holds
    /// nothing, which is the default.
    fn flush(&self) -> Result<(), FlushError> {
        Ok(())
    }

    /// Receive one payload (honours the socket's read timeout, or
    /// returns `WouldBlock` at once in non-blocking mode).
    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)>;

    /// Whether the next `recv_from` is served from a datagram already
    /// received, without asking the network.
    fn recv_buffered(&self) -> bool {
        false
    }

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
    /// drawn per payload here, and what survives goes to `inner`.
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

    fn send_now(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus> {
        let status = self.inner.send_to(buf, dst)?;
        self.sent.fetch_add(1, Ordering::Relaxed);
        Ok(status)
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
        self.delayed.fetch_add(1, Ordering::Relaxed);
        self.queue.wake.notify_one();
    }
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
            let _ = inner.flush();
            return;
        }
        let now = Instant::now();
        match guard.0.peek() {
            Some(pkt) if pkt.due <= now => {
                let pkt = guard.0.pop().expect("peeked");
                // Send outside the lock so senders never block on the OS.
                // A deferred payload is due now, not at the caller's next
                // flush.
                drop(guard);
                let _ = inner.send_to(&pkt.payload, pkt.dst);
                let _ = inner.flush();
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
    fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus> {
        let fate = {
            let mut guard = lock_shim(&self.directions, "directions");
            let dirs = &mut *guard;
            match dirs.slot(dst) {
                None => None, // unregistered: passthrough
                Some(slot) => {
                    dirs.stamp += 1;
                    let fate = dirs.plans[slot].next_fate(&dirs.plane, frame_endpoints(buf));
                    Some((fate, dirs.stamp))
                }
            }
        };
        let (fate, stamp) = match fate {
            None => return self.send_now(buf, dst),
            Some(x) => x,
        };
        if fate.drop {
            self.injected_drops.fetch_add(1, Ordering::Relaxed);
            return Ok(SendStatus::Dropped);
        }
        if fate.delay_ns == 0 {
            self.send_now(buf, dst)?;
        } else {
            self.send_later(buf, dst, fate.delay_ns, stamp);
            self.sent.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(dup_delay) = fate.dup_delay_ns {
            self.duplicated.fetch_add(1, Ordering::Relaxed);
            if dup_delay == 0 {
                self.send_now(buf, dst)?;
            } else {
                self.send_later(buf, dst, dup_delay, stamp);
                self.sent.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(SendStatus::Sent)
    }

    /// With duplication or delay configured, payloads reach `inner` in
    /// another number and order than the caller handed them over, so a
    /// failed flush cannot name its victims: `lost` is zeroed and they
    /// count as sent, the side on which power is stranded, never minted.
    fn flush(&self) -> Result<(), FlushError> {
        let exact = self.cfg.dup_permille == 0 && self.cfg.latency.is_none();
        self.inner.flush().map_err(|e| FlushError {
            lost: if exact { e.lost } else { 0 },
            ..e
        })
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        self.inner.recv_from(buf)
    }

    fn recv_buffered(&self) -> bool {
        self.inner.recv_buffered()
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        self.inner.local_addr()
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        self.inner.set_nonblocking(nonblocking)
    }
}

/// Largest datagram a [`CoalescingSocket`] puts on the wire: the UDP
/// payload of one unfragmented Ethernet frame (1 500 − 20 IP − 8 UDP).
pub(crate) const MAX_DATAGRAM: usize = 1472;

/// Record header: the payload length, `u16` LE.
const RECORD_HDR: usize = 2;

/// Payloads accepted and not yet handed to the kernel.
struct TxBatch {
    buf: Vec<u8>,
    /// Where the held records go; meaningless while there are none.
    dst: SocketAddr,
    records: usize,
    datagrams_sent: u64,
}

/// The datagram being unpacked: records remain in `buf[at..len]`.
struct RxBatch {
    buf: [u8; MAX_DATAGRAM],
    len: usize,
    at: usize,
    from: SocketAddr,
}

/// A [`DatagramSocket`] that packs consecutive payloads bound for one
/// destination into one datagram of length-prefixed records, and unpacks
/// such datagrams on receive. Both ends of a link must wear it. See the
/// module docs for the record format, the flush rule and what a failed
/// flush means.
pub struct CoalescingSocket {
    inner: UdpSocket,
    tx: Mutex<TxBatch>,
    rx: Mutex<RxBatch>,
}

impl CoalescingSocket {
    /// Coalesce over `socket`.
    pub fn new(socket: UdpSocket) -> Self {
        let nowhere = SocketAddr::from(([0, 0, 0, 0], 0));
        CoalescingSocket {
            inner: socket,
            tx: Mutex::new(TxBatch {
                buf: Vec::with_capacity(MAX_DATAGRAM),
                dst: nowhere,
                records: 0,
                datagrams_sent: 0,
            }),
            rx: Mutex::new(RxBatch {
                buf: [0; MAX_DATAGRAM],
                len: 0,
                at: 0,
                from: nowhere,
            }),
        }
    }

    /// Datagrams the kernel has taken so far.
    pub fn datagrams_sent(&self) -> u64 {
        lock_shim(&self.tx, "tx batch").datagrams_sent
    }

    /// Hand the batch to the kernel; on an error it stays as it was.
    fn send_batch(&self, tx: &mut TxBatch) -> io::Result<()> {
        if tx.records > 0 {
            UdpSocket::send_to(&self.inner, &tx.buf, tx.dst)?;
            tx.datagrams_sent += 1;
            tx.buf.clear();
            tx.records = 0;
        }
        Ok(())
    }
}

impl DatagramSocket for CoalescingSocket {
    fn send_to(&self, buf: &[u8], dst: SocketAddr) -> io::Result<SendStatus> {
        if buf.is_empty() || buf.len() > MAX_DATAGRAM - RECORD_HDR {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "payload does not fit one coalesced record",
            ));
        }
        let mut tx = lock_shim(&self.tx, "tx batch");
        if tx.dst != dst || tx.buf.len() + RECORD_HDR + buf.len() > MAX_DATAGRAM {
            self.send_batch(&mut tx)?;
        }
        tx.dst = dst;
        tx.buf.extend_from_slice(&(buf.len() as u16).to_le_bytes());
        tx.buf.extend_from_slice(buf);
        tx.records += 1;
        Ok(SendStatus::Sent)
    }

    fn flush(&self) -> Result<(), FlushError> {
        let mut tx = lock_shim(&self.tx, "tx batch");
        self.send_batch(&mut tx).map_err(|source| {
            let lost = std::mem::take(&mut tx.records);
            tx.buf.clear();
            FlushError { lost, source }
        })
    }

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        let mut rx = lock_shim(&self.rx, "rx batch");
        let rx = &mut *rx;
        if rx.at == rx.len {
            (rx.len, rx.from) = UdpSocket::recv_from(&self.inner, &mut rx.buf)?;
            rx.at = 0;
        }
        let rest = &rx.buf[rx.at..rx.len];
        let record = rest.split_first_chunk().and_then(|(len, body)| {
            let len = usize::from(u16::from_le_bytes(*len));
            body.get(..len).filter(|payload| !payload.is_empty())
        });
        let Some(payload) = record else {
            // Not a record: the rest of the datagram goes up as one
            // empty payload.
            rx.at = rx.len;
            return Ok((0, rx.from));
        };
        rx.at += RECORD_HDR + payload.len();
        // Like the kernel, cut a payload longer than the caller's buffer.
        let n = payload.len().min(buf.len());
        buf[..n].copy_from_slice(&payload[..n]);
        Ok((n, rx.from))
    }

    fn recv_buffered(&self) -> bool {
        let rx = lock_shim(&self.rx, "rx batch");
        rx.at < rx.len
    }

    fn local_addr(&self) -> io::Result<SocketAddr> {
        UdpSocket::local_addr(&self.inner)
    }

    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
        UdpSocket::set_nonblocking(&self.inner, nonblocking)
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

    /// Any sequence of payloads crosses a coalescing pair byte for byte
    /// and in order, however it falls across datagram boundaries, and no
    /// datagram on the wire exceeds the bound.
    #[test]
    fn coalesced_payloads_round_trip_in_order_within_the_bound() {
        use penelope_testkit::prop::{self, one_of, vec_of};
        let (tap, tap_addr) = bound(20);
        let (rx, rx_addr) = bound(20);
        let rx = CoalescingSocket::new(rx);
        let tx = CoalescingSocket::new(UdpSocket::bind("127.0.0.1:0").expect("bind tx"));
        let lens = one_of(vec![1usize, 2, 27, 31, 300, 733, 734, 735, 1469, 1470]);
        prop::check(
            "coalesced payloads round-trip",
            prop::Config::default(),
            vec_of((lens, prop::any_u8()), 1..48),
            |seq| {
                let sent: Vec<Vec<u8>> = seq
                    .iter()
                    .map(|&(len, fill)| (0..len).map(|i| fill.wrapping_add(i as u8)).collect())
                    .collect();
                let before = tx.datagrams_sent();
                for payload in &sent {
                    assert_eq!(
                        tx.send_to(payload, tap_addr).expect("send"),
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
                assert_eq!(payloads(&rx), sent);
                assert!(!rx.recv_buffered());
            },
        );
    }

    #[test]
    fn a_destination_change_flushes_first() {
        let (a, a_addr) = bound(20);
        let (b, b_addr) = bound(20);
        let tx = CoalescingSocket::new(UdpSocket::bind("127.0.0.1:0").expect("bind tx"));
        tx.send_to(b"to a", a_addr).expect("send");
        tx.send_to(b"a too", a_addr).expect("send");
        let mut buf = [0u8; 64];
        assert!(a.recv_from(&mut buf).is_err(), "sent before any flush");
        tx.send_to(b"to b", b_addr).expect("send");
        // The batch for `a` left when `b`'s payload came; `b`'s waits.
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
        let rx = CoalescingSocket::new(rx);
        let tx = CoalescingSocket::new(UdpSocket::bind("127.0.0.1:0").expect("bind tx"));
        for bad in [&[][..], &[7u8; MAX_DATAGRAM - 1]] {
            let err = tx.send_to(bad, rx_addr).expect_err("no record holds it");
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        }
        tx.send_to(&[7u8; MAX_DATAGRAM - 2], rx_addr).expect("send");
        tx.flush().expect("flush");
        assert_eq!(payloads(&rx), vec![vec![7u8; MAX_DATAGRAM - 2]]);
    }

    /// Whatever follows the last whole record of a datagram comes up once,
    /// as an empty payload, and the datagram is done: no panic, no loop,
    /// and the next datagram is read as if nothing had happened.
    #[test]
    fn hostile_datagrams_surface_once_as_an_empty_payload() {
        let (rx, rx_addr) = bound(20);
        let rx = CoalescingSocket::new(rx);
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
            let got = payloads(&rx);
            assert_eq!(got, expect.iter().map(|p| p.to_vec()).collect::<Vec<_>>());
            assert!(!rx.recv_buffered());
        }
    }

    /// An implicit flush the kernel refuses loses nothing — the batch
    /// stays and the payload that needed the room is refused — and an
    /// explicit one discards the batch and says how many payloads it held.
    #[test]
    fn a_refused_flush_names_what_it_lost() {
        let (rx, rx_addr) = bound(20);
        let rx = CoalescingSocket::new(rx);
        let tx = CoalescingSocket::new(UdpSocket::bind("127.0.0.1:0").expect("bind tx"));
        // The kernel refuses port 0 as a destination.
        let nowhere = SocketAddr::from(([127, 0, 0, 1], 0));
        for payload in [b"a", b"b", b"c"] {
            assert_eq!(
                tx.send_to(payload, nowhere).expect("held"),
                SendStatus::Sent
            );
        }
        tx.send_to(b"d", rx_addr)
            .expect_err("the batch in the way cannot leave");
        let err = tx.flush().expect_err("the kernel refuses the batch");
        assert_eq!(err.lost, 3);
        tx.flush().expect("nothing left to refuse");
        tx.send_to(b"e", rx_addr).expect("send");
        tx.flush().expect("flush");
        assert_eq!(payloads(&rx), vec![b"e".to_vec()]);
        assert_eq!(tx.datagrams_sent(), 1);
    }

    /// Under the fault plane, coalescing changes what is on the wire and
    /// nothing else: the same seed drops the same payloads, the stats
    /// count payloads, and the survivors arrive in order.
    #[test]
    fn faults_over_coalescing_replay_the_plain_schedule() {
        let fates = |tx: FaultySocket, dst: SocketAddr| -> (Vec<bool>, ShimStats) {
            tx.register_peer(dst);
            let pattern = (0u8..64)
                .map(|i| tx.send_to(&[i], dst).expect("send") == SendStatus::Sent)
                .collect();
            tx.flush().expect("flush");
            (pattern, tx.stats())
        };
        let (plain_rx, plain_addr) = bound(200);
        let plain = FaultySocket::new(
            UdpSocket::bind("127.0.0.1:0").expect("bind tx"),
            FaultConfig::lossy(99, 300),
        );
        let (rx, rx_addr) = bound(200);
        let rx = CoalescingSocket::new(rx);
        let inner = Arc::new(CoalescingSocket::new(
            UdpSocket::bind("127.0.0.1:0").expect("bind tx"),
        ));
        let coalesced = FaultySocket::over(inner.clone(), FaultConfig::lossy(99, 300));

        let (plain_pattern, plain_stats) = fates(plain, plain_addr);
        let (pattern, stats) = fates(coalesced, rx_addr);
        assert_eq!(pattern, plain_pattern, "same seed, same fates");
        assert_eq!(stats, plain_stats);
        let survivors: Vec<Vec<u8>> = (0u8..64)
            .zip(&pattern)
            .filter(|(_, sent)| **sent)
            .map(|(i, _)| vec![i])
            .collect();
        assert_eq!(payloads(&plain_rx), survivors);
        assert_eq!(payloads(&rx), survivors);
        assert_eq!(inner.datagrams_sent(), 1, "64 one-byte payloads fit one");
    }
}
