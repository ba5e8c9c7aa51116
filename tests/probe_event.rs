//! "Lands once, works everywhere": the `peer_probed` protocol event is
//! implemented *only* in `penelope-core` (the engine emits it when peer
//! selection lets a request through to a peer whose suspicion outlived
//! the probe interval), yet it is observable on all three substrates
//! with zero substrate changes — the payoff of the NodeEngine seam.
//!
//! Topology for every leg: one node dies, the survivors suspect it after
//! consecutive timeouts, selection avoids it while the suspicion is
//! fresh, and once the probe interval elapses the next request to the
//! corpse is narrated as a probe.

use std::time::Duration;

use penelope::conformance::{at_period, LockstepRuntime, Scenario, SimSubstrate, Substrate};
use penelope_sim::FaultScript;
use penelope_trace::{EventKind, TraceEvent};
use penelope_units::{NodeId, Power, SimDuration};
use penelope_workload::Phase;

fn w(x: u64) -> Power {
    Power::from_watts_u64(x)
}

/// Four nodes: node 0 idles (and then dies, at 6 s), nodes 1-3 stay
/// hungry so they keep requesting — first from everyone, then
/// (post-suspicion) only from the living, then probing the corpse. The
/// probe interval is shrunk so suspicion expires into a probe well within
/// the run (config, not code — the event logic is core-only).
fn scenario(seed: u64) -> Scenario {
    let demands = (0..4).map(|i| vec![Phase::new(w(if i == 0 { 100 } else { 220 }), 120.0)]);
    let mut s = Scenario::new("probe-demo", seed, 40, demands);
    s.cfg.node.decider.probe_interval = SimDuration::from_secs(3);
    s.faults = FaultScript::kill_node_at(at_period(6), NodeId::new(0));
    s
}

/// Assert the probe narrative: the dead peer was suspected, later
/// probed, and no node probed it before suspecting it.
fn assert_probe_narrative(events: &[TraceEvent], dead: NodeId, substrate: &str) {
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PeerSuspected { peer } if peer == dead)),
        "{substrate}: no survivor ever suspected the dead node"
    );
    let probes: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PeerProbed { peer } if peer == dead))
        .collect();
    assert!(
        !probes.is_empty(),
        "{substrate}: suspicion never expired into a peer_probed event"
    );
    for probe in probes {
        // Suspicion is born locally (PeerSuspected) or adopted from a
        // digest (SuspicionGossiped) — either precedes a legal probe.
        let suspected_before = events.iter().any(|e| {
            e.node == probe.node
                && e.at <= probe.at
                && matches!(e.kind,
                    EventKind::PeerSuspected { peer }
                    | EventKind::SuspicionGossiped { peer, .. } if peer == dead)
        });
        assert!(
            suspected_before,
            "{substrate}: node {} probed the dead peer without ever suspecting it",
            probe.node.raw()
        );
    }
}

#[test]
fn probe_event_surfaces_on_the_simulator() {
    let (_, events) = SimSubstrate
        .run_recorded(&scenario(0x5EED_960B))
        .expect("sim runs");
    assert_probe_narrative(&events, NodeId::new(0), "sim");
}

#[test]
fn probe_event_surfaces_on_the_threaded_runtime() {
    let (_, events) = LockstepRuntime
        .run_recorded(&scenario(0x5EED_960B))
        .expect("lockstep runs");
    assert_probe_narrative(&events, NodeId::new(0), "runtime");
}

#[test]
fn probe_event_surfaces_on_the_udp_daemon() {
    use std::net::UdpSocket;

    use penelope_daemon::{run_daemon_with_socket, DaemonConfig};

    // Three cluster slots; slot 1 is a black hole (bound, never served):
    // the daemons suspect it after timeouts and probe it after the
    // interval. Node 0 stays hungry so it never stops requesting.
    let sockets: Vec<UdpSocket> = (0..3)
        .map(|_| UdpSocket::bind("127.0.0.1:0").expect("bind"))
        .collect();
    let addrs: Vec<_> = sockets.iter().map(|s| s.local_addr().unwrap()).collect();
    let launch = |i: usize, demand: u64| {
        let peers = (0..3).filter(|j| *j != i).map(|j| addrs[j]).collect();
        let mut cfg = DaemonConfig::demo(addrs[i], peers, w(demand));
        cfg.node_id = i as u32;
        cfg.node.decider.probe_interval = SimDuration::from_millis(150);
        let socket = sockets[i].try_clone().expect("clone socket");
        run_daemon_with_socket(cfg, socket).expect("daemon start")
    };
    let hungry = launch(0, 250);
    let donor = launch(2, 100);

    // The hungry daemon must suspect the black hole and, once the
    // suspicion outlives the probe interval, probe it.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while hungry.counters().count("peer_probed") == 0 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let counters = hungry.counters();
    let _ = hungry.stop();
    let _ = donor.stop();
    assert!(
        counters.count("peer_suspected") > 0,
        "daemon never suspected the black-hole peer: {counters:?}"
    );
    assert!(
        counters.count("peer_probed") > 0,
        "daemon suspicion never expired into a peer_probed event: {counters:?}"
    );
}
