//! Deterministic datagram socket shim.
//!
//! The UDP daemon is the one substrate that touches real sockets, and a
//! loopback socket never drops, delays, or reorders anything — so until
//! this module existed, every "lossy" daemon run was silently lossless.
//! [`DatagramSocket`] abstracts the four socket operations the daemon
//! uses (send, receive, local address, non-blocking mode); [`UdpSocket`] implements it as a passthrough, and
//! [`FaultySocket`] wraps a socket with seeded per-direction loss,
//! latency, and duplication so conformance sweeps exercise the
//! escrow/ack machinery on real datagrams.
//!
//! # Who owns the fault randomness
//!
//! All fault decisions are drawn from dedicated [`TestRng`] streams owned
//! by the shim — never from the protocol's RNG — so injecting loss cannot
//! perturb a single protocol draw (the same discipline the lockstep
//! substrate uses for its drop streams). Each *direction* (this socket →
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

use std::collections::{BinaryHeap, HashMap};
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use penelope_testkit::rng::{node_stream, Rng, TestRng};

use crate::latency::LatencyModel;

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

/// The socket surface the daemon runtime needs, abstracted so a
/// deterministic fault plane can sit between the protocol and the OS.
pub trait DatagramSocket: Send + Sync {
    /// Send one datagram to `dst`. `Ok(SendStatus::Dropped)` means the
    /// fault plane consumed it — an injected drop, not an OS error.
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
    /// Root seed; direction `k` draws from `node_stream(seed, k)`.
    pub seed: u64,
    /// Drop probability in permille (200 = 20 %).
    pub drop_permille: u16,
    /// Duplication probability in permille; the copy samples its own
    /// delay, so a duplicate can overtake the original (reordering).
    pub dup_permille: u16,
    /// Wall-clock delay distribution (the [`LatencyModel`]'s nanoseconds
    /// read as real time). `None` sends immediately; a jittered model
    /// reorders packets whose sampled delays invert their send order.
    pub latency: Option<LatencyModel>,
}

impl FaultConfig {
    /// Pure loss, no delay — the conformance sweeps' configuration.
    pub fn lossy(seed: u64, drop_permille: u16) -> Self {
        FaultConfig {
            seed,
            drop_permille,
            dup_permille: 0,
            latency: None,
        }
    }
}

/// The fate of one datagram, fully determined by (seed, direction slot,
/// packet index).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PacketFate {
    /// Dropped before reaching the network.
    pub drop: bool,
    /// Delay before the original copy is handed to the OS.
    pub delay_ns: u64,
    /// `Some(delay)` if a duplicate copy is also sent, with its own delay.
    pub dup_delay_ns: Option<u64>,
}

/// The deterministic fault schedule for one direction. Pure — no sockets,
/// no clocks — so tests can pin the exact schedule a seed produces.
#[derive(Clone, Debug)]
pub struct DirectionPlan {
    rng: TestRng,
    drop_p: f64,
    dup_p: f64,
    latency: Option<LatencyModel>,
}

impl DirectionPlan {
    /// The plan for direction slot `slot` under `cfg`.
    pub fn new(cfg: &FaultConfig, slot: u64) -> Self {
        DirectionPlan {
            rng: TestRng::seed_from_u64(node_stream(cfg.seed, slot)),
            drop_p: f64::from(cfg.drop_permille) / 1000.0,
            dup_p: f64::from(cfg.dup_permille) / 1000.0,
            latency: cfg.latency.clone(),
        }
    }

    /// Decide the next packet's fate. The draw order per packet is fixed
    /// (drop, then delay, then duplicate, then the duplicate's delay), so
    /// the schedule is a pure function of the stream.
    pub fn next_fate(&mut self) -> PacketFate {
        if self.drop_p > 0.0 && self.rng.gen_bool(self.drop_p) {
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
    plans: Vec<DirectionPlan>,
    stamp: u64,
}

/// A [`DatagramSocket`] that wraps a real socket with a deterministic
/// fault plane: seeded per-direction drop, delay, and duplication.
/// Receives pass through untouched (loss is injected on the send side,
/// where the outcome is knowable). See the module docs for the
/// determinism contract.
pub struct FaultySocket {
    inner: Arc<UdpSocket>,
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
        FaultySocket {
            inner: Arc::new(socket),
            cfg,
            directions: Mutex::new(Directions {
                slots: HashMap::new(),
                plans: Vec::new(),
                stamp: 0,
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
        UdpSocket::send_to(&self.inner, buf, dst)?;
        self.sent.fetch_add(1, Ordering::Relaxed);
        Ok(SendStatus::Sent)
    }

    /// Queue a copy for sending at `now + delay`, starting the flusher
    /// thread on first use.
    fn send_later(&self, buf: &[u8], dst: SocketAddr, delay_ns: u64, stamp: u64) {
        {
            let mut flusher = lock_shim(&self.flusher, "flusher");
            if flusher.is_none() {
                let inner = Arc::clone(&self.inner);
                let queue = Arc::clone(&self.queue);
                *flusher = Some(std::thread::spawn(move || flush_loop(&inner, &queue)));
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
        Err(_) => panic!("FaultySocket {what} mutex poisoned (flusher or sender panicked)"),
    }
}

fn flush_loop(inner: &UdpSocket, queue: &DelayQueue) {
    let mut guard = lock_shim(&queue.heap, "delay queue");
    loop {
        if guard.1 {
            // Shutdown: flush everything immediately, regardless of due
            // time. A deferred packet was reported `Sent`, so dropping it
            // here would silently lose power the caller believes is in
            // flight.
            while let Some(pkt) = guard.0.pop() {
                let _ = UdpSocket::send_to(inner, &pkt.payload, pkt.dst);
            }
            return;
        }
        let now = Instant::now();
        match guard.0.peek() {
            Some(pkt) if pkt.due <= now => {
                let pkt = guard.0.pop().expect("peeked");
                // Send outside the lock so senders never block on the OS.
                drop(guard);
                let _ = UdpSocket::send_to(inner, &pkt.payload, pkt.dst);
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
            let mut dirs = lock_shim(&self.directions, "directions");
            match dirs.slots.get(&dst).copied() {
                None => None, // unregistered: passthrough
                Some(slot) => {
                    dirs.stamp += 1;
                    Some((dirs.plans[slot].next_fate(), dirs.stamp))
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

    fn recv_from(&self, buf: &mut [u8]) -> io::Result<(usize, SocketAddr)> {
        UdpSocket::recv_from(&self.inner, buf)
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
        (0..n).map(|_| plan.next_fate()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = FaultConfig {
            seed: 0xBEEF,
            drop_permille: 250,
            dup_permille: 100,
            latency: Some(LatencyModel::Uniform {
                lo: SimDuration::from_micros(100),
                hi: SimDuration::from_micros(900),
            }),
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
            ".................x..x......xx....x..x....x.x...x.........x..xx..",
        );
        let drops = pattern.chars().filter(|c| *c == 'x').count();
        assert_eq!(drops, 12, "≈200‰ of 64");
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
                seed: 5,
                drop_permille: 0,
                dup_permille: 0,
                latency: Some(LatencyModel::Constant(SimDuration::from_millis(10_000))),
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
}
