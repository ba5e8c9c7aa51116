//! End-to-end test of the real daemon: several processes' worth of daemon
//! threads exchanging actual UDP datagrams on localhost, shifting real
//! (simulated-hardware) power between nodes.

use std::net::UdpSocket;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use penelope_daemon::{run_daemon_with_socket, DaemonConfig, DaemonSummary, WireMsg};
use penelope_trace::{EventKind, RingBufferObserver, SharedObserver};
use penelope_units::{NodeId, Power};

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

/// What a daemon puts on the wire: `[dst: u32 LE][src: u32 LE][WireMsg]`.
fn frame(dst: u32, src: u32, msg: &WireMsg) -> Vec<u8> {
    let mut buf = dst.to_le_bytes().to_vec();
    buf.extend_from_slice(&src.to_le_bytes());
    buf.extend_from_slice(&msg.encode());
    buf
}

/// The message in a received frame (header skipped), if it is one.
fn deframe(buf: &[u8]) -> Option<WireMsg> {
    WireMsg::decode(buf.get(8..)?).ok()
}

/// Bind `n` ephemeral localhost sockets so every daemon can know the
/// others' real ports before any of them starts.
fn bind_cluster(n: usize) -> Vec<UdpSocket> {
    (0..n)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind ephemeral"))
        .collect()
}

fn launch(sockets: Vec<UdpSocket>, demands: &[u64]) -> Vec<penelope_daemon::DaemonHandle> {
    let addrs: Vec<_> = sockets
        .iter()
        .map(|s| s.local_addr().expect("local addr"))
        .collect();
    sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| {
            let peers = addrs
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(_, a)| *a)
                .collect();
            let mut cfg = DaemonConfig::demo(addrs[i], peers, w(demands[i]));
            cfg.node_id = i as u32;
            cfg.status_every = 5;
            run_daemon_with_socket(cfg, socket).expect("daemon start")
        })
        .collect()
}

fn stop_all(handles: Vec<penelope_daemon::DaemonHandle>) -> Vec<DaemonSummary> {
    handles.into_iter().map(|h| h.stop()).collect()
}

/// Poll `done` every few milliseconds until it holds or `limit` passes;
/// whether it held.
fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() >= deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(5));
    }
    true
}

#[test]
fn power_shifts_over_real_udp() {
    // Node 0 is a donor (100 W appetite, 160 W cap); nodes 1-2 want 250 W.
    let sockets = bind_cluster(3);
    let handles = launch(sockets, &[100, 250, 250]);
    thread::sleep(Duration::from_millis(1200)); // ~60 periods at 20 ms
    let summaries = stop_all(handles);

    // The donor ends below its initial share, having shipped watts out.
    assert!(
        summaries[0].final_cap < w(160),
        "donor cap never dropped: {}",
        summaries[0].final_cap
    );
    assert!(
        summaries[0].granted_to_peers > Power::ZERO,
        "the donor's pool never granted anything"
    );
    // At least one hungry node rose above its initial share.
    assert!(
        summaries[1..].iter().any(|s| s.final_cap > w(160)),
        "no recipient gained power: {:?} {:?}",
        summaries[1].final_cap,
        summaries[2].final_cap
    );
    // The budget was never exceeded: caps + pools sum within 3 × 160 W
    // (grants in flight at shutdown can only make the sum smaller).
    let total: Power = summaries.iter().map(|s| s.final_cap + s.final_pool).sum();
    assert!(
        total <= w(3 * 160),
        "budget exceeded: {total} > {}",
        w(3 * 160)
    );
    // Fault-free loopback cluster: every datagram handed to the OS must
    // have been accepted. A non-zero send_failed here means the daemon is
    // silently discarding traffic again.
    for (i, s) in summaries.iter().enumerate() {
        assert_eq!(
            s.counters.count("send_failed"),
            0,
            "node {i} had failed sends in a fault-free run"
        );
        assert_eq!(
            s.counters.count("msg_dropped"),
            0,
            "node {i} reported injected drops with no fault plane installed"
        );
    }
}

#[test]
fn urgency_recovers_over_udp() {
    // A node that donated (demand 100) competes with one hungry peer. Once
    // the peer has drained the donor's pool, the donor — below its initial
    // cap, short of power — asks urgently and is served. Whether it ever
    // runs short is up to how the two daemons' ticks interleave on the
    // wall clock: if its pool is down to 1 W local takes (the pool's lower
    // limit) when its cap sits at its demand, five takes lift the cap to
    // exactly demand + ε, the one reading Algorithm 1 leaves unclassified,
    // and with a steady meter the donor parks there for good with nothing
    // to ask for. A loaded host made that one run in five. So the test
    // waits for either end — a grant back on the donor, or the donor parked
    // at the margin — and holds the donor to its demand in both; the
    // urgency itself is pinned on the virtual clock
    // (`a_donor_goes_urgent_and_recovers_on_the_daemon_leg`).
    let sockets = bind_cluster(2);
    let handles = launch(sockets, &[100, 250]);
    let margin = w(100) + penelope_core::DeciderConfig::default().epsilon;
    let settled = wait_until(Duration::from_secs(20), || {
        let served = !handles[0].counters().applied.is_zero();
        let parked = handles[0].status_rx.try_iter().any(|s| s.cap == margin);
        served || parked
    });
    let summaries = stop_all(handles);
    let donor = &summaries[0];
    assert!(settled, "the donor never settled: {:?}", donor.decider);
    if donor.counters.applied.is_zero() {
        assert_eq!(
            (donor.final_cap, donor.decider.requests_sent),
            (margin, 0),
            "the donor neither got power back nor parked at the margin"
        );
    } else {
        assert!(
            donor.decider.urgent_sent > 0,
            "power came back to the donor without an urgent request: {:?}",
            donor.decider
        );
    }
    // Either way the donor's cap stays at or above (roughly) its demand.
    assert!(
        donor.final_cap >= w(95),
        "donor stranded below its demand: {}",
        donor.final_cap
    );
}

#[test]
fn a_daemon_restarted_on_its_address_rejoins_above_its_watermark() {
    // A daemon stopped and started again on the same address, as an
    // operator restarts a node: its peers keep their static peer lists,
    // and it resumes from its first incarnation's sequence watermark, so
    // it never reuses a seq a peer may still hold a grant or an escrow
    // entry under.
    let sockets = bind_cluster(2);
    let addrs: Vec<_> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    let donor_events = Arc::new(RingBufferObserver::unbounded());
    let mut handles: Vec<_> = sockets
        .into_iter()
        .enumerate()
        .map(|(i, socket)| {
            let mut cfg = DaemonConfig::demo(addrs[i], vec![addrs[1 - i]], w([100, 250][i]));
            cfg.node_id = i as u32;
            if i == 0 {
                cfg.observer = SharedObserver::from(donor_events.clone());
            }
            run_daemon_with_socket(cfg, socket).expect("daemon start")
        })
        .collect();
    let hungry = handles.pop().expect("two daemons");
    assert!(
        wait_until(Duration::from_secs(10), || hungry
            .counters()
            .requests_sent()
            > 0),
        "the hungry node never asked"
    );
    let first = hungry.stop();
    let watermark = first.next_seq;
    assert!(watermark > 0);

    let reborn_events = Arc::new(RingBufferObserver::unbounded());
    let mut cfg = DaemonConfig::demo(addrs[1], vec![addrs[0]], w(250));
    cfg.node_id = 1;
    cfg.initial_seq = watermark;
    cfg.observer = SharedObserver::from(reborn_events.clone());
    let socket = UdpSocket::bind(addrs[1]).expect("rebind the same address");
    let reborn = run_daemon_with_socket(cfg, socket).expect("restart");
    let served_reborn = || {
        donor_events.events().iter().any(|e| {
            matches!(e.kind, EventKind::RequestServed { requester, seq, .. }
                if requester == NodeId::new(1) && seq >= watermark)
        })
    };
    assert!(
        wait_until(Duration::from_secs(10), || served_reborn()
            && reborn.counters().count("msg_recv") > 0),
        "the donor and the reborn daemon never heard each other"
    );
    let summaries = [handles.pop().expect("the donor").stop(), reborn.stop()];
    let reborn_seqs: Vec<u64> = reborn_events
        .events()
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::RequestSent { seq, .. } => Some(seq),
            _ => None,
        })
        .collect();
    assert!(
        reborn_seqs.iter().all(|seq| *seq >= watermark),
        "the reborn daemon reused a seq below {watermark}: {reborn_seqs:?}"
    );
    assert_eq!(
        summaries[0].rejected, 0,
        "the donor refused the reborn's frames"
    );
}

#[test]
fn status_stream_reports_progress() {
    let sockets = bind_cluster(2);
    let handles = launch(sockets, &[100, 250]);
    thread::sleep(Duration::from_millis(600));
    // Drain some statuses from the hungry node before stopping.
    let mut seen = Vec::new();
    while let Ok(s) = handles[1].status_rx.try_recv() {
        seen.push(s);
    }
    let _ = stop_all(handles);
    assert!(seen.len() >= 2, "only {} status samples", seen.len());
    assert!(seen.windows(2).all(|p| p[0].iteration < p[1].iteration));
    let line = seen[0].render();
    assert!(line.contains("cap=") && line.contains("pool="));
}

#[test]
fn escrow_survives_requester_rebinding_a_new_port() {
    // The granter keys escrow by *node id* (carried in every frame header),
    // not by socket address: a requester that crashes and comes back on a
    // different port must still be deduplicated against its outstanding
    // grant, and its ack — from the new port — must still release the
    // entry. A SocketAddr-keyed escrow orphans the entry and double-debits
    // the pool on the re-request.
    use penelope_units::NodeId;

    let daemon_socket = UdpSocket::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_socket.local_addr().unwrap();
    let s1 = UdpSocket::bind("127.0.0.1:0").expect("bind requester");
    s1.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let mut cfg = DaemonConfig::demo(daemon_addr, vec![s1.local_addr().unwrap()], w(100));
    // Widen the escrow window (2^(r+1) · response_timeout + period) so
    // the rebind + re-request + ack comfortably fits inside it.
    cfg.node.decider.max_retransmits = 5;
    let handle = run_daemon_with_socket(cfg, daemon_socket).expect("start");

    // Poll with urgent requests until the daemon's pool has surplus to
    // grant (its decider deposits cap − demand over the first periods).
    // Zero-grant serves leave no escrow, so each attempt uses a new seq.
    let mut granted = Power::ZERO;
    let mut granted_seq = 0u64;
    let mut buf = [0u8; 128];
    'outer: for attempt in 0..300u64 {
        let req = WireMsg::Request {
            seq: attempt,
            urgent: true,
            alpha: w(30),
            from: Some(NodeId::new(1)),
            bid: Power::ZERO,
        };
        s1.send_to(&frame(0, 1, &req), daemon_addr).expect("send");
        // The daemon's own decider also sends us requests; skip them.
        while let Ok((len, _)) = s1.recv_from(&mut buf) {
            if let Some(WireMsg::Grant { seq, amount, .. }) = deframe(&buf[..len]) {
                if seq == attempt {
                    if amount.is_zero() {
                        continue 'outer; // pool still empty: try again
                    }
                    granted = amount;
                    granted_seq = seq;
                    break 'outer;
                }
            }
        }
    }
    assert!(
        !granted.is_zero(),
        "pool never accumulated surplus to grant"
    );
    assert_eq!(handle.escrow_len(), 1, "non-zero grant must be escrowed");

    // The requester "crashes" and rebinds a brand-new port, then
    // retransmits the same request.
    let s2 = UdpSocket::bind("127.0.0.1:0").expect("rebind requester");
    s2.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    assert_ne!(s1.local_addr().unwrap(), s2.local_addr().unwrap());
    drop(s1);
    let dup = WireMsg::Request {
        seq: granted_seq,
        urgent: true,
        alpha: w(30),
        from: Some(NodeId::new(1)),
        bid: Power::ZERO,
    };
    s2.send_to(&frame(0, 1, &dup), daemon_addr)
        .expect("send dup");
    // The reply is the escrow dedup answer for the already-served seq,
    // not a second debit.
    let mut reminded = false;
    while let Ok((len, _)) = s2.recv_from(&mut buf) {
        if let Some(WireMsg::Grant { seq, .. }) = deframe(&buf[..len]) {
            if seq == granted_seq {
                reminded = true;
                break;
            }
        }
    }
    assert!(reminded, "duplicate request from the new port got no reply");
    assert_eq!(
        handle.escrow_len(),
        1,
        "dedup must not create a second entry"
    );

    // The ack — also from the new port — must release the original entry.
    let ack = WireMsg::Ack {
        seq: granted_seq,
        digest: None,
    };
    s2.send_to(&frame(0, 1, &ack), daemon_addr)
        .expect("send ack");
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    while handle.escrow_len() != 0 && std::time::Instant::now() < deadline {
        thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        handle.escrow_len(),
        0,
        "ack from the rebound port failed to release the escrow entry"
    );

    let summary = handle.stop();
    // The pool paid out exactly once across both incarnations of the
    // requester's socket.
    assert_eq!(
        summary.granted_to_peers, granted,
        "pool debited more than the single escrowed grant"
    );
}

#[test]
fn lone_daemon_survives_without_peers_responding() {
    // A daemon whose only peer address is a black hole (bound but never
    // served) must keep iterating: requests time out, nothing hangs.
    let sockets = bind_cluster(2);
    let black_hole = sockets[1].local_addr().unwrap();
    let addr0 = sockets[0].local_addr().unwrap();
    let mut cfg = DaemonConfig::demo(addr0, vec![black_hole], w(250));
    cfg.status_every = 5;
    let handle = run_daemon_with_socket(cfg, sockets.into_iter().next().unwrap()).expect("start");
    thread::sleep(Duration::from_millis(600));
    let summary = handle.stop();
    assert!(summary.iterations > 10, "daemon stalled: {summary:?}");
    assert!(summary.decider.timeouts > 0, "no timeouts recorded");
    assert_eq!(summary.final_cap, w(160), "cap changed with no grants");
}

#[test]
fn a_black_hole_peer_is_suspected_then_probed() {
    // Three cluster slots; slot 1 is a black hole (bound, never served):
    // the hungry daemon suspects it after timeouts and, once the suspicion
    // outlives the probe interval, probes it.
    let sockets = bind_cluster(3);
    let addrs: Vec<_> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    let launch = |i: usize, demand: u64| {
        let peers = (0..3).filter(|j| *j != i).map(|j| addrs[j]).collect();
        let mut cfg = DaemonConfig::demo(addrs[i], peers, w(demand));
        cfg.node_id = i as u32;
        cfg.node.decider.probe_interval = penelope_units::SimDuration::from_millis(150);
        let socket = sockets[i].try_clone().expect("clone socket");
        run_daemon_with_socket(cfg, socket).expect("daemon start")
    };
    let hungry = launch(0, 250);
    let donor = launch(2, 100);
    wait_until(Duration::from_secs(10), || {
        hungry.counters().count("peer_probed") > 0
    });
    let counters = hungry.counters();
    let _ = stop_all(vec![hungry, donor]);
    assert!(
        counters.count("peer_suspected") > 0,
        "daemon never suspected the black-hole peer: {counters:?}"
    );
    assert!(
        counters.count("peer_probed") > 0,
        "daemon suspicion never expired into a peer_probed event: {counters:?}"
    );
}

#[test]
fn hostile_datagrams_are_counted_and_change_nothing() {
    // A hungry daemon (250 W appetite under a 160 W cap) whose only peer
    // is this test: its pool stays empty and its cap at 160 W, so any
    // movement in cap, pool or escrow is the hostile traffic's doing. The
    // protocol is not Byzantine-tolerant (a well-formed non-zero grant
    // for a live seq *is* a grant), so the valid frames mutated below are
    // ones whose every one-bit neighbour is malformed or harmless: a
    // hungry node grants nothing, and under the huge seq floor a flipped
    // zero grant keeps either its zero amount or its stale seq.
    use penelope_core::{SuspicionDigest, SuspicionEntry, MAX_DIGEST_ENTRIES};
    use penelope_testkit::rng::{Rng, TestRng};
    use penelope_units::NodeId;

    let attacker = UdpSocket::bind("127.0.0.1:0").expect("bind attacker");
    let daemon_socket = UdpSocket::bind("127.0.0.1:0").expect("bind daemon");
    let daemon_addr = daemon_socket.local_addr().unwrap();
    let mut cfg = DaemonConfig::demo(daemon_addr, vec![attacker.local_addr().unwrap()], w(250));
    cfg.initial_seq = 1 << 62;
    cfg.status_every = 1;
    let handle = run_daemon_with_socket(cfg, daemon_socket).expect("start");
    let before = handle
        .status_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("first status");
    assert_eq!((before.cap, before.pool), (w(160), Power::ZERO));

    let digest = Box::new(SuspicionDigest {
        incarnation: 3,
        entries: vec![SuspicionEntry {
            peer: NodeId::new(1),
            incarnation: 1,
        }],
    });
    let valid = [
        WireMsg::Request {
            seq: 5,
            urgent: false,
            alpha: w(30),
            from: Some(NodeId::new(1)),
            bid: w(2),
        },
        WireMsg::Grant {
            seq: 5,
            amount: Power::ZERO,
            digest: Some(digest.clone()),
        },
        WireMsg::Ack {
            seq: 5,
            digest: Some(digest),
        },
    ];
    let mut hostile: Vec<Vec<u8>> = Vec::new();
    let mut malformed = 0u64;
    for msg in &valid {
        let good = frame(0, 1, msg);
        // Every strict prefix, and the whole frame addressed to someone
        // else or claiming to come from outside the cluster.
        for cut in 0..good.len() {
            hostile.push(good[..cut].to_vec());
        }
        hostile.push(frame(1, 0, msg));
        hostile.push(frame(7, 1, msg));
        hostile.push(frame(0, 9, msg));
        malformed += good.len() as u64 + 3;
        // Every single-bit flip (some of these are well-formed frames).
        for bit in 0..good.len() * 8 {
            let mut flipped = good.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            hostile.push(flipped);
        }
    }
    // A digest whose count byte claims more entries than the format has.
    let mut oversized = frame(
        0,
        1,
        &WireMsg::Ack {
            seq: 5,
            digest: Some(Box::new(SuspicionDigest {
                incarnation: 1,
                entries: Vec::new(),
            })),
        },
    );
    *oversized.last_mut().unwrap() = MAX_DIGEST_ENTRIES as u8 + 1;
    hostile.push(oversized);
    // Random bytes of every length up to well past the largest frame.
    let mut rng = TestRng::seed_from_u64(0xBAD_DA7A);
    for len in 0..200usize {
        hostile.push((0..len).map(|_| rng.gen_range(0..=u8::MAX)).collect());
    }
    malformed += 201;

    for (k, datagram) in hostile.iter().enumerate() {
        attacker.send_to(datagram, daemon_addr).expect("send");
        if k % 64 == 63 {
            // Stay under the daemon socket's receive buffer.
            thread::sleep(Duration::from_millis(2));
        }
    }
    thread::sleep(Duration::from_millis(100));

    assert_eq!(handle.escrow_len(), 0, "hostile traffic created escrow");
    let summary = handle.stop();
    assert_eq!(
        summary.final_cap, before.cap,
        "hostile traffic moved the cap"
    );
    assert_eq!(
        summary.final_pool, before.pool,
        "hostile traffic moved the pool"
    );
    assert_eq!(summary.granted_to_peers, Power::ZERO);
    assert!(
        summary.rejected >= malformed,
        "only {} of at least {malformed} malformed datagrams were counted",
        summary.rejected
    );
    assert!(
        summary.rejected < hostile.len() as u64,
        "well-formed mutants must be dispatched, not rejected"
    );
    assert!(summary.iterations > 5, "the daemon stalled: {summary:?}");
}
