//! The adversarial partition matrix: asymmetric link cuts and
//! gossip-propagated suspicion, held to the full invariant set.
//!
//! Five scenario families run over both substrates (the discrete-event
//! simulator and the multiplexed daemon reactor):
//!
//! * **Clean partition** — the cluster splits 2|2, then heals. No node
//!   dies, so `lost` must stay zero at every cut (stranded grants are
//!   escrow-reclaimed) and the books must balance at every period.
//! * **Asymmetric partition** — one node goes deaf: every link *towards*
//!   it is cut while its own sends deliver. Its requests keep being
//!   served and every grant back to it dies on the cut link — the worst
//!   case for the escrow layer, and the directional-cut primitive the
//!   group partition is built from.
//! * **Heal** — both of the above restore connectivity mid-run; traffic
//!   and suspicion state must reconverge.
//! * **Flapping node** — one node alternates between isolated and
//!   reachable every period: suspicion state must follow without the
//!   ledger leaking.
//! * **Partition + churn** — a node crashes *inside* a partitioned half
//!   and reboots the same period the split heals: the kill-last same-tick
//!   ordering contract and zero-sum re-admission combined.
//!
//! On top of the matrix, the gossip layer itself is proven non-vacuously:
//! an ablation pair of runs (identical but for `gossip_digest = 0`) shows
//! piggybacked suspicion digests spread a dead node's suspicion
//! cluster-wide within a bounded number of gossip rounds, where the
//! ablated cluster pays the full `suspect_after × response_timeout`
//! detection cost per node. A deterministic property test then throws
//! arbitrary kill/restart/partition/heal interleavings at every substrate
//! and holds every schedule to the full invariant set, per-node
//! seq-epoch monotonicity and the script's liveness included, shrinking
//! any failure to a minimal script.

use penelope::conformance::{
    assert_conformant, asymmetric_partition_scenario, at_period, flapping_scenario,
    partition_churn_scenario, partition_scenario, MultiplexedDaemon, Scenario, SimSubstrate,
    Substrate, PERIOD, SUBSTRATES,
};
use penelope_sim::{FaultAction, FaultScript};
use penelope_testkit::prop::{self, vec_of, Gen};
use penelope_trace::{EventKind, TraceEvent};
use penelope_units::{NodeId, Power, SimDuration, SimTime};
use penelope_workload::Phase;

/// A hand-rolled scenario whose nodes all run a flat 220 W demand — every
/// node is hungry for the whole run, so request/grant traffic (and with
/// it, digest gossip) flows every period.
fn all_hungry_scenario(seed: u64, name: &str, nodes: usize, periods: u64) -> Scenario {
    let hungry = vec![Phase::new(Power::from_watts_u64(220), 600.0)];
    Scenario::new(name, seed, periods, vec![hungry; nodes])
}

/// `scenario` under `faults`, with the retransmits the canned partition
/// families run on.
fn cut_by(mut scenario: Scenario, faults: FaultScript) -> Scenario {
    scenario.cfg.node.decider.max_retransmits = 2;
    scenario.faults = faults;
    scenario
}

/// The 2|2 split of a four-node cluster from period 3 to period 12.
fn split_then_heal() -> FaultScript {
    let halves = [[0, 1], [2, 3]].map(|half| half.map(NodeId::new).to_vec());
    FaultScript::none()
        .at(at_period(3), FaultAction::Partition(halves.to_vec()))
        .at(at_period(12), FaultAction::Heal)
}

/// Node 1 goes deaf from period 3 to period 12: every link towards it is
/// cut, its own sends deliver.
fn deaf_then_heal() -> FaultScript {
    let victim = NodeId::new(1);
    let deaf = [0, 2, 3].map(NodeId::new).into_iter();
    deaf.fold(FaultScript::none(), |script, peer| {
        script
            .partition_link_at(at_period(3), peer, victim)
            .heal_link_at(at_period(12), peer, victim)
    })
}

/// Drop rates (in permille) the partition families run under.
const DROP_RATES_PERMILLE: [u16; 2] = [0, 200];

// ---------------------------------------------------------------------
// The matrix: every partition family × both substrates (× drop rates)
// ---------------------------------------------------------------------

#[test]
fn partition_matrix_conserves_on_sim_and_daemon() {
    // Both legs vouch for every cut, so zero-sum holds at every period,
    // not only at the end.
    let mut scenarios = Vec::new();
    for dp in DROP_RATES_PERMILLE {
        let seed = u64::from(dp);
        scenarios.push(partition_scenario(0x5EED_9A01 + seed, dp, 16));
        scenarios.push(asymmetric_partition_scenario(0x5EED_9A02 + seed, dp, 16));
    }
    scenarios.push(flapping_scenario(0x5EED_9A03, 16));
    scenarios.push(partition_churn_scenario(0x5EED_9A04, 16));
    for scenario in &scenarios {
        for leg in SUBSTRATES {
            let run = assert_conformant(leg, scenario);
            assert!(
                run.snapshots.iter().all(|cut| cut.consistent_cut),
                "{} on {}: inconsistent cut",
                scenario.name,
                leg.name()
            );
        }
    }
}

#[test]
fn partition_churn_restart_readmits_zero_sum() {
    // The node dies inside a partitioned half and reboots the period the
    // split heals. On top of the shared invariants, the lost ledger must
    // take exactly one decrease — the restart — of exactly
    // min(initial cap, lost).
    let scenario = partition_churn_scenario(0x5EED_9B01, 16);
    for leg in SUBSTRATES {
        let run = assert_conformant(leg, &scenario);
        let lost: Vec<Power> = run.snapshots.iter().map(|cut| cut.lost).collect();
        let decreases: Vec<(Power, Power)> = lost
            .windows(2)
            .filter(|w| w[1] < w[0])
            .map(|w| (w[0] - w[1], w[0]))
            .collect();
        let [(readmitted, lost_before)] = decreases[..] else {
            panic!(
                "{}: expected exactly one lost-ledger decrease (the restart): {decreases:?}",
                leg.name()
            );
        };
        assert_eq!(readmitted, scenario.budget_per_node().min(lost_before));
    }
}

/// Frames `events` shows refused on a link `crosses` while `cut` held, and
/// frames it shows delivered over such a link from `heal` on.
fn refused_then_delivered(
    events: &[TraceEvent],
    crosses: impl Fn(NodeId, NodeId) -> bool,
    (cut, heal): (SimTime, SimTime),
) -> (usize, usize) {
    let refused = events.iter().filter(|e| {
        (cut..heal).contains(&e.at)
            && matches!(e.kind, EventKind::MsgDropped { dst, .. } | EventKind::AckDropped { dst, .. }
                if crosses(e.node, dst))
    });
    let delivered = events.iter().filter(|e| {
        e.at >= heal && matches!(e.kind, EventKind::MsgRecv { src, .. } if crosses(src, e.node))
    });
    (refused.count(), delivered.count())
}

#[test]
fn cut_links_refuse_frames_then_carry_them_after_the_heal_everywhere() {
    // What `NonVacuous` is for loss, for connectivity: a substrate
    // that accepted a partition and kept delivering across it would pass
    // every conservation check above. With no background loss, every
    // drop is the cut's doing: at least one frame across the cut must be
    // refused while it holds, and traffic across it must flow again once
    // it heals.
    let split = cut_by(
        all_hungry_scenario(0x5EED_9C05, "split-refuses", 4, 16),
        split_then_heal(),
    );
    let deaf = cut_by(
        all_hungry_scenario(0x5EED_9C06, "deaf-refuses", 4, 16),
        deaf_then_heal(),
    );
    type Crosses = fn(NodeId, NodeId) -> bool;
    let halves: Crosses = |from, to| from.index() / 2 != to.index() / 2;
    let towards_victim: Crosses = |from, to| from != to && to == NodeId::new(1);
    let cases = [(&split, halves), (&deaf, towards_victim)];
    for (scenario, crosses) in cases {
        assert_eq!(scenario.drop_rate_in(3), 0.0);
        for leg in SUBSTRATES {
            let run = assert_conformant(leg, scenario);
            let window = (at_period(3), at_period(12));
            let (refused, delivered) = refused_then_delivered(&run.events, crosses, window);
            let name = leg.name();
            assert!(
                refused > 0,
                "{name}: {} delivered across its cut",
                scenario.name
            );
            assert!(delivered > 0, "{name}: {} never healed", scenario.name);
        }
    }
}

// ---------------------------------------------------------------------
// Suspicion lifecycle under partitions, proven by event streams
// ---------------------------------------------------------------------

fn observed_sim_run(scenario: &Scenario) -> Vec<TraceEvent> {
    SimSubstrate
        .run(scenario)
        .unwrap_or_else(|e| panic!("sim failed to run {}: {e}", scenario.name))
        .events
}

#[test]
fn clean_partition_drives_suspicion_and_gossip_then_heals() {
    // A 9-period split gives cross-partition request chains time to burn
    // through their retransmit schedule and suspect; gossip then spreads
    // the suspicion within each half before the heal.
    let scenario = cut_by(
        all_hungry_scenario(0x5EED_9C01, "partition-gossip", 4, 22),
        split_then_heal(),
    );
    let events = observed_sim_run(&scenario);
    let heal = at_period(12);

    let suspected = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::PeerSuspected { .. }))
        .count();
    assert!(
        suspected > 0,
        "no node ever suspected a cross-partition peer"
    );
    let gossiped: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::SuspicionGossiped { .. }))
        .collect();
    assert!(
        !gossiped.is_empty(),
        "no suspicion ever spread via digest gossip"
    );
    // Gossip must only flow between nodes that can still talk: during the
    // split every digest rode a grant that crossed a live link, so the
    // carrier (`via`) sits on the adopter's side of the cut.
    for e in &gossiped {
        if e.at < heal {
            if let EventKind::SuspicionGossiped { via, .. } = e.kind {
                assert_eq!(
                    e.node.index() / 2,
                    via.index() / 2,
                    "digest crossed the 2|2 cut during the split: {e:?}"
                );
            }
        }
    }
    // After the heal, replies from formerly unreachable peers must clear
    // suspicions — the cluster reconverges instead of shunning half of
    // itself forever.
    assert!(
        events
            .iter()
            .any(|e| e.at >= heal && matches!(e.kind, EventKind::PeerCleared { .. })),
        "no suspicion ever cleared after the heal"
    );
    // And cross-partition serving resumes (liveness, not just accounting).
    assert!(
        events.iter().any(|e| {
            e.at >= heal
                && matches!(e.kind, EventKind::RequestServed { requester, .. }
                    if requester.index() / 2 != e.node.index() / 2)
        }),
        "no cross-partition request was ever served after the heal"
    );
}

#[test]
fn gossip_rides_the_daemon_transport_too() {
    // The same digest machinery must work over the daemon's wire — the
    // digest rides encoded datagrams, substrate code, not sim code.
    let scenario = cut_by(
        all_hungry_scenario(0x5EED_9C02, "partition-gossip-daemon", 4, 22),
        split_then_heal(),
    );
    let events = MultiplexedDaemon
        .run(&scenario)
        .unwrap_or_else(|e| panic!("daemon failed: {e}"))
        .events;
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::PeerSuspected { .. })),
        "no suspicion formed on the daemon leg"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e.kind, EventKind::SuspicionGossiped { .. })),
        "no suspicion was gossiped on the daemon leg"
    );
}

#[test]
fn asymmetric_cut_starves_both_sides_but_victim_traffic_still_serves() {
    // Node 1 goes deaf: every link *towards* it is cut, its own sends
    // deliver. The suspicion graph is symmetric — the victim suspects
    // peers (grants back to it die) and peers suspect the victim (their
    // requests to it die on the same cut). The *traffic* is what's
    // asymmetric: the victim's requests keep reaching peers and being
    // served, while nothing of any kind reaches the victim.
    let victim = NodeId::new(1);
    let scenario = cut_by(
        all_hungry_scenario(0x5EED_9C03, "asymmetric-suspicion", 4, 24),
        deaf_then_heal(),
    );
    let events = observed_sim_run(&scenario);
    let cut = at_period(3);
    let heal = at_period(12);

    assert!(
        events.iter().any(|e| {
            e.node == victim && e.at < heal && matches!(e.kind, EventKind::PeerSuspected { .. })
        }),
        "the deaf node never suspected anyone"
    );
    assert!(
        events.iter().any(|e| {
            e.node != victim
                && e.at < heal
                && matches!(e.kind, EventKind::PeerSuspected { peer } if peer == victim)
        }),
        "no peer ever suspected the unreachable node"
    );
    // The directional half of the cut: the victim's requests still cross
    // the wire and get served by peers throughout the isolation window...
    assert!(
        events.iter().any(|e| {
            e.node != victim
                && e.at >= cut
                && e.at < heal
                && matches!(e.kind, EventKind::RequestServed { requester, .. }
                    if requester == victim)
        }),
        "no peer served the deaf node's requests during the cut — its sends should deliver"
    );
    // ...while not a single message of any kind reaches the victim. (One
    // period of grace after the cut lets in-flight replies land.)
    assert!(
        !events.iter().any(|e| {
            e.node == victim
                && e.at >= cut + PERIOD
                && e.at < heal
                && matches!(e.kind, EventKind::MsgRecv { .. })
        }),
        "a message reached the deaf node through the cut"
    );
    // Once the links towards it are restored, replies reach the victim
    // again and its suspicions clear.
    assert!(
        events.iter().any(|e| {
            e.node == victim && e.at >= heal && matches!(e.kind, EventKind::PeerCleared { .. })
        }),
        "the deaf node's suspicions never cleared after the heal"
    );
}

#[test]
fn flapping_node_books_stay_balanced_under_alternating_cuts() {
    // One-period flaps are shorter than the retransmit schedule, so the
    // reliability layer rides them out: messages die on the cut (the
    // fault is real), but the ledger never books a loss and the books
    // balance at every period — already asserted by `assert_conformant`.
    let scenario = flapping_scenario(0x5EED_9C04, 16);
    let run = assert_conformant(&SimSubstrate, &scenario);
    assert!(
        run.events
            .iter()
            .any(|e| matches!(e.kind, EventKind::MsgDropped { .. })),
        "the flapping cuts never dropped a message — the fault is vacuous"
    );
}

// ---------------------------------------------------------------------
// The gossip ablation pair: digest on vs. digest off
// ---------------------------------------------------------------------

/// Kill node 0 at `KILL` under all-hungry traffic and return the event
/// stream, with digest gossip enabled or ablated (`gossip_digest = 0`).
/// Everything else — seeds, workloads, fault schedule — is identical, and
/// the digest path consumes no RNG, so the two arms differ only in what
/// the gossip layer does with the same message flow.
///
/// Eight nodes, not four: with only three survivors each picks the dead
/// peer often enough to self-detect within a round or two of the others,
/// leaving gossip nothing to spread. At eight, the 1-in-7 pick rate makes
/// first-hand detection slow and uneven — the regime gossip exists for.
fn run_kill_with_gossip(gossip: bool) -> Vec<TraceEvent> {
    let mut scenario = all_hungry_scenario(0x5EED_9D05, "gossip-ablation", GOSSIP_NODES, 45);
    scenario.faults = FaultScript::kill_node_at(KILL, NodeId::new(0));
    if !gossip {
        scenario.cfg.node.decider.gossip_digest = 0;
    }
    observed_sim_run(&scenario)
}

const GOSSIP_NODES: usize = 8;
const KILL: SimTime = SimTime::from_secs(8);

/// Per-survivor instant of first suspicion (own timeout or gossip) of the
/// dead node.
fn first_suspicions(events: &[TraceEvent]) -> Vec<Option<SimTime>> {
    let dead = NodeId::new(0);
    (1..GOSSIP_NODES as u32)
        .map(|n| {
            events
                .iter()
                .filter(|e| e.node == NodeId::new(n))
                .filter(|e| {
                    matches!(e.kind,
                        EventKind::PeerSuspected { peer } | EventKind::SuspicionGossiped { peer, .. }
                            if peer == dead)
                })
                .map(|e| e.at)
                .min()
        })
        .collect()
}

#[test]
fn gossip_converges_suspicion_faster_than_local_timeouts() {
    let knobs = all_hungry_scenario(0, "knobs", 4, 1).cfg.node.decider;
    let suspect_after = u64::from(knobs.suspect_after);

    // --- Gossip arm -------------------------------------------------
    let events = run_kill_with_gossip(true);
    let firsts = first_suspicions(&events);
    assert!(
        firsts.iter().all(Option::is_some),
        "not every survivor learned of the dead node with gossip on: {firsts:?}"
    );
    let gossiped = events
        .iter()
        .filter(
            |e| matches!(e.kind, EventKind::SuspicionGossiped { peer, .. } if peer == NodeId::new(0)),
        )
        .count();
    assert!(
        gossiped > 0,
        "gossip arm never spread the suspicion secondhand — the ablation comparison is vacuous"
    );
    // At least one survivor must have learned *first* through gossip:
    // secondhand knowledge beat its own timeout schedule.
    let learned_secondhand = (1..GOSSIP_NODES as u32).any(|n| {
        let node = NodeId::new(n);
        let first = events.iter().filter(|e| e.node == node).find(|e| {
            matches!(e.kind,
                    EventKind::PeerSuspected { peer } | EventKind::SuspicionGossiped { peer, .. }
                        if peer == NodeId::new(0))
        });
        matches!(
            first.map(|e| &e.kind),
            Some(EventKind::SuspicionGossiped { .. })
        )
    });
    assert!(
        learned_secondhand,
        "every survivor earned its suspicion through its own timeouts — gossip did nothing"
    );
    // Cluster-wide convergence: once the first node suspects, gossip must
    // carry the suspicion to the last node within three gossip rounds
    // (one round = one decider period, the piggyback cadence).
    let min = firsts.iter().flatten().min().copied().expect("nonempty");
    let max = firsts.iter().flatten().max().copied().expect("nonempty");
    assert!(
        max - min <= PERIOD * 3,
        "gossip took more than 3 rounds to converge: first at {min:?}, last at {max:?}"
    );

    // --- Ablation arm ----------------------------------------------
    let ablated = run_kill_with_gossip(false);
    assert!(
        !ablated
            .iter()
            .any(|e| matches!(e.kind, EventKind::SuspicionGossiped { .. })),
        "ablated run still gossiped"
    );
    let ablated_firsts = first_suspicions(&ablated);
    // Without gossip every node pays its own detection cost: at minimum
    // `suspect_after` timeouts of `response_timeout` each, all after the
    // kill.
    let floor = KILL + SimDuration::from_secs(suspect_after);
    for (i, first) in ablated_firsts.iter().enumerate() {
        if let Some(t) = first {
            assert!(
                *t >= floor,
                "survivor {} suspected at {t:?}, before the local-timeout floor {floor:?} — \
                 something other than its own timeouts told it",
                i + 1
            );
        }
    }
    // And cluster-wide convergence is strictly slower than the gossip arm.
    let ablated_max = ablated_firsts.iter().flatten().max().copied();
    // (No survivor suspecting at all is the strongest form of "slower".)
    if let Some(t) = ablated_max {
        assert!(
            t > max,
            "ablated run converged no later ({t:?}) than the gossip run ({max:?})"
        );
    }
}

// ---------------------------------------------------------------------
// Same-tick ordering: kills apply after connectivity changes
// ---------------------------------------------------------------------

#[test]
fn same_tick_partition_and_kill_order_is_insertion_invariant() {
    // `install_faults` contracts that same-instant entries apply with
    // kills last, whatever order the script listed them in. Run the same
    // scenario with the two permutations of a same-tick partition + kill
    // and require identical event streams and identical books.
    let groups = || {
        vec![
            vec![NodeId::new(0), NodeId::new(1)],
            vec![NodeId::new(2), NodeId::new(3)],
        ]
    };
    let t = at_period(4);
    let kill_first = FaultScript::none()
        .at(t, FaultAction::Kill(NodeId::new(1)))
        .at(t, FaultAction::Partition(groups()));
    let partition_first = FaultScript::none()
        .at(t, FaultAction::Partition(groups()))
        .at(t, FaultAction::Kill(NodeId::new(1)));

    let run = |script: FaultScript| {
        let mut scenario = all_hungry_scenario(0x5EED_9E01, "same-tick", 4, 12);
        scenario.faults = script;
        let run = SimSubstrate.run(&scenario).expect("sim runs");
        let end = run.snapshots.last().expect("twelve cuts");
        (end.accounted_live(), end.lost, run.events)
    };

    let (live_a, lost_a, events_a) = run(kill_first);
    let (live_b, lost_b, events_b) = run(partition_first);
    assert_eq!(live_a, live_b);
    assert_eq!(lost_a, lost_b);
    assert_eq!(
        events_a.len(),
        events_b.len(),
        "same-tick permutations diverged in event count"
    );
    for (a, b) in events_a.iter().zip(events_b.iter()) {
        assert_eq!(a, b, "same-tick permutations diverged");
    }
}

// ---------------------------------------------------------------------
// Property: arbitrary fault schedules preserve the ledger and seq-epochs
// ---------------------------------------------------------------------

/// One scripted fault op drawn by the property test.
#[derive(Clone, Debug)]
enum FaultOp {
    Kill(u32),
    Restart(u32),
    Split(u32),
    Heal,
    CutLink(u32, u32),
    HealLink(u32, u32),
}

fn op_action(op: &FaultOp, nodes: usize) -> Option<FaultAction> {
    match *op {
        FaultOp::Kill(n) => Some(FaultAction::Kill(NodeId::new(n))),
        FaultOp::Restart(n) => Some(FaultAction::Restart(NodeId::new(n))),
        FaultOp::Split(at) => {
            let split = (at as usize % nodes).max(1);
            Some(FaultAction::Partition(vec![
                (0..split).map(|i| NodeId::new(i as u32)).collect(),
                (split..nodes).map(|i| NodeId::new(i as u32)).collect(),
            ]))
        }
        FaultOp::Heal => Some(FaultAction::Heal),
        FaultOp::CutLink(a, b) | FaultOp::HealLink(a, b) if a == b => None,
        FaultOp::CutLink(a, b) => Some(FaultAction::PartitionLink {
            from: NodeId::new(a),
            to: NodeId::new(b),
        }),
        FaultOp::HealLink(a, b) => Some(FaultAction::HealLink {
            from: NodeId::new(a),
            to: NodeId::new(b),
        }),
    }
}

#[test]
fn random_fault_schedules_preserve_zero_sum_and_seq_epochs() {
    // Scripts of up to 10 (period, op) pairs over a 4-node cluster:
    // kills, restarts, 2-group splits, heals and directional cuts in any
    // interleaving — including nonsense legs (restarting a live node,
    // cutting a link twice), which must be harmless no-ops. Every script
    // runs, as it is, on both substrates. The simulator asserts
    // conservation internally after every event; on top of that every run
    // is held to `assert_conformant` — zero-sum at every cut and at the
    // end, no minting, caps in the safe range, pools balanced, nothing
    // booked lost unless the script kills a node, each node alive or dead
    // in each cut as the script has it, each request debited once and
    // each grant applied once, and no node's request sequence ever
    // regressing, crashes and rebirths included (the seq-epoch contract
    // that makes stale grants detectable).
    let ops = vec_of((0u64..12, 0u32..6, 0u32..4, 0u32..4), 0..10).prop_map(|raw| {
        raw.into_iter()
            .map(|(period, kind, a, b)| {
                let op = match kind {
                    0 => FaultOp::Kill(a),
                    1 => FaultOp::Restart(a),
                    2 => FaultOp::Split(a.max(1)),
                    3 => FaultOp::Heal,
                    4 => FaultOp::CutLink(a, b),
                    _ => FaultOp::HealLink(a, b),
                };
                (period, op)
            })
            .collect::<Vec<_>>()
    });

    // PENELOPE_PROP_CASES overrides the count, as for every property.
    let cfg = prop::Config::with_cases(48);
    prop::check("random_fault_schedules", cfg, ops, |script| {
        let mut scenario = all_hungry_scenario(0x5EED_9F01, "prop-faults", 4, 14);
        for (period, op) in &script {
            if let Some(action) = op_action(op, scenario.nodes()) {
                scenario.faults = scenario.faults.at(at_period(*period), action);
            }
        }
        for leg in SUBSTRATES {
            assert_conformant(leg, &scenario);
        }
    });
}

#[test]
fn mid_run_drop_rate_starts_dropping_at_its_period_on_both_substrates() {
    // The loss rate is the script's own `SetDropRate`, in force from the
    // period it is stamped with: nothing is dropped before period 5, some
    // of the traffic is from then on, and the books stay exact throughout.
    let mut scenario = all_hungry_scenario(0x5EED_9F02, "mid-run-loss", 4, 14);
    scenario.faults = FaultScript::none().at(at_period(5), FaultAction::SetDropRate(0.3));
    for leg in SUBSTRATES {
        let run = assert_conformant(leg, &scenario);
        let dropped = |from: u64, to: u64| {
            run.events
                .iter()
                .filter(|e| (from..to).contains(&e.period))
                .filter(|e| {
                    matches!(
                        e.kind,
                        EventKind::MsgDropped { .. } | EventKind::AckDropped { .. }
                    )
                })
                .count()
        };
        let name = leg.name();
        assert_eq!(dropped(0, 5), 0, "{name}: drops before the rate was set");
        assert!(
            dropped(5, scenario.periods) > 0,
            "{name}: a 30 % drop rate from period 5 dropped nothing"
        );
    }
}
