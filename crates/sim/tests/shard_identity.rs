//! Shard-count and thread-count invariance of the sharded engine.
//!
//! The sharded simulator's whole correctness story rests on one claim:
//! partitioning the node set differently (or driving the shards from
//! worker threads) is *unobservable* — every node sees the same inputs
//! in the same order and draws the same RNG stream, so the run is
//! bit-identical. The unit test in `shard.rs` pins this at toy scale;
//! this test pins it at a scale where the cross-shard exchange path,
//! the per-window drain rounds and the wake lists all carry real load,
//! and across several seeds so a single lucky schedule can't hide an
//! ordering bug.

use penelope_core::{DeciderConfig, NodeParams};
use penelope_net::LatencyModel;
use penelope_sim::{ShardReport, ShardedConfig, ShardedSim};
use penelope_units::{Power, SimDuration};

fn run(n_nodes: usize, seed: u64, shards: usize, jobs: usize) -> ShardReport {
    // Dense recipient mix (1 in 8) so cross-shard request/grant/ack
    // traffic is heavy relative to the toy unit test.
    let mut cfg = ShardedConfig::mega(n_nodes, 40, seed);
    cfg.recipient_every = 8;
    cfg.shards = shards;
    cfg.jobs = jobs;
    ShardedSim::new(cfg).run()
}

#[test]
fn fingerprint_is_invariant_across_shard_counts_and_threads() {
    for &seed in &[0xA11CE, 0xB0B5EED, 0x5EED_CAFE] {
        let reference = run(1024, seed, 1, 1);
        assert!(
            reference.conservation_ok,
            "seed {seed:#x}: serial run leaks"
        );
        assert!(reference.messages > 0, "seed {seed:#x}: no traffic");
        for &(shards, jobs) in &[(2, 1), (5, 1), (16, 1), (4, 4), (16, 3)] {
            let other = run(1024, seed, shards, jobs);
            assert_eq!(
                other.fingerprint, reference.fingerprint,
                "seed {seed:#x}: shards={shards} jobs={jobs} diverged from serial"
            );
            // The fingerprint folds per-node input digests and final
            // engine state; these aggregates must agree too.
            assert_eq!(other.executed_events, reference.executed_events);
            assert_eq!(other.elided_ticks, reference.elided_ticks);
            assert_eq!(other.messages, reference.messages);
            assert_eq!(other.granted, reference.granted);
            // Rounds are barriers: one per non-empty lookahead bucket
            // anywhere, so how the nodes are cut does not change them.
            assert_eq!(other.rounds, reference.rounds);
            assert!(other.conservation_ok);
        }
    }
}

#[test]
fn different_seeds_produce_different_runs() {
    // Guard against a degenerate fingerprint (constant hash would make
    // the invariance test vacuous).
    let a = run(512, 1, 1, 1);
    let b = run(512, 2, 1, 1);
    assert_ne!(a.fingerprint, b.fingerprint);
}

/// `(config, fingerprint, executed, elided, messages, granted mW)`.
type Pin = (ShardedConfig, u64, u64, u64, u64, u64);

/// Every pin reproduces under every `(shards, jobs)` layout, in the same
/// number of rounds.
fn assert_pinned<const N: usize>(pins: [Pin; N], layouts: &[(usize, usize)]) {
    for (cfg, fingerprint, executed, elided, messages, granted_mw) in pins {
        let mut rounds = None;
        for &(shards, jobs) in layouts {
            let r = ShardedSim::new(ShardedConfig {
                shards,
                jobs,
                ..cfg.clone()
            })
            .run();
            assert_eq!(r.fingerprint, fingerprint, "shards={shards} jobs={jobs}");
            assert_eq!(r.executed_events, executed);
            assert_eq!(r.elided_ticks, elided);
            assert_eq!(r.messages, messages);
            assert_eq!(r.granted.milliwatts(), granted_mw);
            assert_eq!(*rounds.get_or_insert(r.rounds), r.rounds);
            assert!(r.lost.is_zero());
            assert!(r.conservation_ok);
        }
    }
}

/// Absolute pins, measured before the engine-output executor moved into
/// `penelope-core`: the tests above only compare shard counts with each
/// other, so a change that shifts every count the same way would pass
/// them. `executed` counts the grant-delivery feedback as an engine
/// input, which is what makes it sensitive to who runs that feedback.
#[test]
fn absolute_counts_are_pinned() {
    let sparse = ShardedConfig::mega(4096, 12, 7);
    let dense = ShardedConfig {
        recipient_every: 2,
        ..ShardedConfig::mega(2048, 8, 42)
    };
    let pins = [
        (
            sparse,
            0x07d6_b0a1_dae6_1af0_u64,
            9_597,
            43_170,
            2_292,
            4_126_760,
        ),
        (
            dense,
            0xb587_8db8_a580_3f3e,
            40_288,
            3_333,
            20_521,
            18_714_031,
        ),
    ];
    assert_pinned(pins, &[(1, 1), (3, 1), (4, 2)]);
}

/// What the rows above never ran, pinned at the commit before the shard's
/// event heap became a calendar of lookahead buckets: a constant latency
/// (a whole wave of messages shares one timestamp, so one bucket holds it
/// and only the key order separates them) and periods the minimum latency
/// does not divide (the window's last bucket is short). At 3 Hz the
/// traffic is over long before the window ends; at 7 kHz a period is 4.76
/// buckets, so requests, grants, acks and timeouts land in every bucket
/// and across the boundary.
#[test]
fn constant_latency_and_ragged_periods_are_pinned() {
    let dense = ShardedConfig {
        recipient_every: 2,
        ..ShardedConfig::mega(2048, 8, 42)
    };
    let at_frequency = |hz: f64, periods: u64| {
        let mut cfg = ShardedConfig {
            periods,
            ..dense.clone()
        };
        cfg.node.decider = DeciderConfig {
            shed_headroom: cfg.node.decider.shed_headroom,
            ..DeciderConfig::at_frequency(hz)
        };
        cfg
    };
    let constant = ShardedConfig {
        latency: LatencyModel::Constant(SimDuration::from_micros(50)),
        ..dense.clone()
    };
    let pins = [
        (
            constant,
            0x6090_0c53_0838_6f56_u64,
            40_342,
            3_310,
            20_532,
            18_781_552,
        ),
        (
            at_frequency(3.0, 8),
            0xce7c_43f5_8458_0f9a,
            40_288,
            3_333,
            20_521,
            18_714_031,
        ),
        (
            at_frequency(7000.0, 40),
            0xb611_05ae_7a25_a7f5,
            211_212,
            11_497,
            102_128,
            49_486_735,
        ),
    ];
    assert_pinned(pins, &[(1, 1), (1, 2), (2, 1), (2, 2), (5, 1), (5, 2)]);
}

/// What parking quiescent donors could get wrong, pinned at the commit
/// before a node nobody has written to stopped owning an engine: every
/// donor written to (so every deferred first tick is replayed), almost
/// none (two recipients; the fingerprint is mostly the probe's fold),
/// "donors" that want more than they have (hungry, so their class fails
/// the probe and nothing parks), and donors without the ε headroom of
/// `mega`, whose first tick is as silent as a parked one's but not their
/// last: they shed again on the next, so they must not park either.
#[test]
fn parked_and_unparked_donors_are_pinned() {
    let every_donor = ShardedConfig {
        recipient_every: 2,
        ..ShardedConfig::mega(1024, 40, 11)
    };
    let almost_none = ShardedConfig {
        recipient_every: 1024,
        ..ShardedConfig::mega(2048, 40, 12)
    };
    let hungry_donors = ShardedConfig {
        donor_demand: Power::from_watts_u64(200),
        ..ShardedConfig::mega(1024, 12, 13)
    };
    let still_shedding = ShardedConfig {
        node: NodeParams::default(),
        ..ShardedConfig::mega(1024, 12, 14)
    };
    let built = |cfg: &ShardedConfig| ShardedSim::new(cfg.clone()).run().engines_built;
    assert_eq!(built(&every_donor), 1024);
    assert!(built(&almost_none) < 128);
    assert_eq!(built(&hungry_donors), 1024);
    assert_eq!(built(&still_shedding), 1024);
    let pins = [
        (
            every_donor,
            0x00a9_c23b_9ddb_8db3_u64,
            104_209,
            7_605,
            51_172,
            24_871_251,
        ),
        (
            almost_none,
            0x37d0_e730_ed00_7f5b,
            2_378,
            79_722,
            108,
            198_000,
        ),
        (hungry_donors, 0xd753_6b09_1d04_dda0, 36_864, 0, 24_576, 0),
        (
            still_shedding,
            0x4cdc_0f68_785d_7685,
            13_191,
            0,
            573,
            1_068_714,
        ),
    ];
    assert_pinned(pins, &[(1, 1), (3, 1), (4, 2)]);
}

/// A run of no periods ticks nobody: nothing is executed or elided, nobody
/// is owed a deferred first tick, and every node folds as built. Values
/// from the same parent commit.
#[test]
fn a_run_of_no_periods_is_pinned() {
    let sparse = ShardedConfig::mega(4096, 0, 7);
    let dense = ShardedConfig {
        recipient_every: 2,
        ..ShardedConfig::mega(2048, 0, 42)
    };
    let pins = [
        (sparse, 0x8a53_bcc2_5d40_2325_u64, 0, 0, 0, 0),
        (dense, 0xacd1_9b97_70b1_2325, 0, 0, 0, 0),
    ];
    assert_pinned(pins, &[(1, 1), (3, 1), (4, 2)]);
}

/// The mega scenario is carried by the hungry minority and the donors they
/// reach: an engine for every node would be an eager build come back.
#[test]
fn most_of_a_mega_cluster_owns_no_engine() {
    let r = ShardedSim::new(ShardedConfig::mega(100_000, 250, 0x4d45_4741)).run();
    assert!(r.conservation_ok);
    assert!(
        r.engines_built * 100 <= 35 * r.n_nodes,
        "{} of {} nodes were built",
        r.engines_built,
        r.n_nodes
    );
}
