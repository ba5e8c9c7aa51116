//! Draw-identity and safety checks for peer selection against the real
//! testkit PRNG (the unit tests in `src/discovery.rs` use a local
//! stand-in generator). They ran in `penelope-sim` until its compat
//! re-exports of `choose_peer` and `initial_rr_cursor` were removed.

use std::collections::HashSet;

use penelope_core::{choose_peer, initial_rr_cursor, DiscoveryStrategy};
use penelope_testkit::rng::{Rng, TestRng};
use penelope_units::NodeId;

const STRATEGIES: [DiscoveryStrategy; 3] = [
    DiscoveryStrategy::UniformRandom,
    DiscoveryStrategy::RoundRobin,
    DiscoveryStrategy::GossipHint { explore: 0.3 },
];

/// The satellite regression: across every strategy, cluster size,
/// node index, cursor state (including the self-pointing cursor the
/// old inline code returned verbatim), hint state and suspicion
/// pattern, a node never selects itself.
#[test]
fn never_selects_self_under_any_state() {
    for strategy in STRATEGIES {
        for n in 2..=6usize {
            for idx in 0..n {
                for cursor0 in 0..n as u32 + 1 {
                    for hint in [None, Some(NodeId::new(idx as u32)), Some(NodeId::new(0))] {
                        for suspect_all in [false, true] {
                            let mut rng =
                                TestRng::seed_from_u64((n * 31 + idx) as u64 ^ u64::from(cursor0));
                            let mut cursor = cursor0;
                            for _ in 0..32 {
                                let picked = choose_peer(
                                    strategy,
                                    &mut rng,
                                    idx,
                                    n,
                                    &mut cursor,
                                    hint,
                                    suspect_all,
                                    |_| suspect_all,
                                )
                                .expect("n >= 2 always yields a peer");
                                assert_ne!(
                                    picked.index(),
                                    idx,
                                    "{strategy:?} n={n} idx={idx} cursor0={cursor0} \
                                     suspect_all={suspect_all} picked self"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}

/// With no suspicion active, the uniform arm must replay the exact
/// historical draw: one `gen_range(0..n-1)` skip-self pick.
#[test]
fn uniform_is_draw_identical_to_the_inline_original() {
    for seed in 0..50u64 {
        let n = 8usize;
        let idx = 3usize;
        let mut a = TestRng::seed_from_u64(seed);
        let mut b = TestRng::seed_from_u64(seed);
        let mut cursor = 0u32;
        let picked = choose_peer(
            DiscoveryStrategy::UniformRandom,
            &mut a,
            idx,
            n,
            &mut cursor,
            None,
            false,
            |_| false,
        )
        .unwrap();
        let r = b.gen_range(0..n - 1);
        let expect = if r >= idx { r + 1 } else { r };
        assert_eq!(picked.index(), expect);
        // Stream positions agree too: the next draw matches.
        assert_eq!(a.gen_range(0..1_000_000), b.gen_range(0..1_000_000));
    }
}

/// Gossip hints replay identically too: one `gen_bool` when a hint is
/// held, then (only on explore) the uniform draw.
#[test]
fn gossip_hint_is_draw_identical_to_the_inline_original() {
    for seed in 0..50u64 {
        let n = 8usize;
        let idx = 2usize;
        let explore = 0.4;
        let hint = Some(NodeId::new(6));
        let mut a = TestRng::seed_from_u64(seed);
        let mut b = TestRng::seed_from_u64(seed);
        let mut cursor = 0u32;
        let picked = choose_peer(
            DiscoveryStrategy::GossipHint { explore },
            &mut a,
            idx,
            n,
            &mut cursor,
            hint,
            false,
            |_| false,
        )
        .unwrap();
        let expect = if !b.gen_bool(explore) {
            6
        } else {
            let r = b.gen_range(0..n - 1);
            if r >= idx {
                r + 1
            } else {
                r
            }
        };
        assert_eq!(picked.index(), expect);
        assert_eq!(a.gen_range(0..1_000_000), b.gen_range(0..1_000_000));
    }
}

/// Suspicion steers selection away from suspected peers whenever any
/// non-suspected peer exists.
#[test]
fn suspicion_filters_suspected_peers() {
    let n = 6usize;
    let idx = 0usize;
    let bad: HashSet<u32> = [1u32, 2, 3].into_iter().collect();
    for strategy in STRATEGIES {
        let mut rng = TestRng::seed_from_u64(7);
        let mut cursor = 1u32; // points at a suspected peer
        for _ in 0..64 {
            let picked = choose_peer(
                strategy,
                &mut rng,
                idx,
                n,
                &mut cursor,
                Some(NodeId::new(2)), // hinted peer is suspected
                true,
                |p| bad.contains(&p.raw()),
            )
            .unwrap();
            assert!(
                !bad.contains(&picked.raw()),
                "{strategy:?} picked suspected peer {picked:?}"
            );
            assert_ne!(picked.index(), idx);
        }
    }
}

/// When *every* peer is suspected the chooser falls back to the blind
/// uniform pick instead of returning nothing: a lone survivor must
/// keep probing or the cluster can never heal.
#[test]
fn all_suspected_falls_back_to_blind_uniform() {
    let mut rng = TestRng::seed_from_u64(11);
    let mut cursor = 0u32;
    let mut seen = HashSet::new();
    for _ in 0..200 {
        let picked = choose_peer(
            DiscoveryStrategy::UniformRandom,
            &mut rng,
            1,
            4,
            &mut cursor,
            None,
            true,
            |_| true,
        )
        .unwrap();
        assert_ne!(picked.index(), 1);
        seen.insert(picked.raw());
    }
    assert_eq!(seen.len(), 3, "blind fallback still covers all peers");
}

/// Round-robin under *total* suspicion is still a sweep: the pick is the
/// cursor's own peer and the cursor moves on by one, so n − 1 picks ask
/// every peer once. (The sweep used to lap n steps round a ring of n − 1,
/// landing one past the cursor before advancing again — a stride of two
/// that, with n − 1 even, only ever asked half the peers.)
#[test]
fn all_suspected_round_robin_still_visits_every_peer() {
    for n in 2..=9usize {
        for idx in 0..n {
            let mut rng = TestRng::seed_from_u64(0);
            let mut cursor = initial_rr_cursor(idx as u32, n as u32);
            let asked: HashSet<u32> = (0..n - 1)
                .map(|_| {
                    choose_peer(
                        DiscoveryStrategy::RoundRobin,
                        &mut rng,
                        idx,
                        n,
                        &mut cursor,
                        None,
                        true,
                        |_| true,
                    )
                    .expect("n >= 2 always yields a peer")
                    .raw()
                })
                .collect();
            let peers: HashSet<u32> = (0..n as u32).filter(|&p| p as usize != idx).collect();
            assert_eq!(asked, peers, "n={n} idx={idx}");
        }
    }
}

/// Single-node clusters have no peers.
#[test]
fn singleton_cluster_has_no_peer() {
    let mut rng = TestRng::seed_from_u64(0);
    let mut cursor = 0u32;
    for strategy in STRATEGIES {
        assert_eq!(
            choose_peer(strategy, &mut rng, 0, 1, &mut cursor, None, false, |_| {
                false
            }),
            None
        );
    }
}

#[test]
fn initial_rr_cursor_never_points_at_self() {
    for n in 1..=8u32 {
        for idx in 0..n {
            let c = initial_rr_cursor(idx, n);
            assert!(c < n.max(1));
            if n >= 2 {
                assert_ne!(c, idx, "node {idx} of {n} starts self-pointing");
            }
        }
    }
}
