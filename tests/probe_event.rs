//! "Lands once, works everywhere": the `peer_probed` protocol event is
//! implemented *only* in `penelope-core` (the engine emits it when peer
//! selection lets a request through to a peer whose suspicion outlived
//! the probe interval), yet it is observable on both conformance
//! substrates and on the wall-clock daemon (`penelope-daemon`'s
//! `udp_cluster`) with zero substrate changes — the payoff of the
//! NodeEngine seam.
//!
//! Topology for every leg: one node dies, the survivors suspect it after
//! consecutive timeouts, selection avoids it while the suspicion is
//! fresh, and once the probe interval elapses the next request to the
//! corpse is narrated as a probe.

use penelope::conformance::{at_period, MultiplexedDaemon, Scenario, SimSubstrate, Substrate};
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
    let events = SimSubstrate
        .run(&scenario(0x5EED_960B))
        .expect("sim runs")
        .events;
    assert_probe_narrative(&events, NodeId::new(0), "sim");
}

#[test]
fn probe_event_surfaces_on_the_udp_daemon() {
    // The daemon's reactor, multiplexed on loopback UDP datagrams (the
    // name is kept from the per-node daemon leg); the per-node daemon on
    // the wall clock probes a black hole in `penelope-daemon`'s
    // `udp_cluster` tests.
    let events = MultiplexedDaemon
        .run(&scenario(0x5EED_960B))
        .expect("daemon leg runs")
        .events;
    assert_probe_narrative(&events, NodeId::new(0), "daemon");
}
