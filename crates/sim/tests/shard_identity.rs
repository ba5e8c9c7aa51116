//! Shard-count and thread-count invariance of the sharded engine.
//!
//! The sharded simulator's whole correctness story rests on one claim:
//! partitioning the node set differently (or driving the shards from
//! worker threads) is *unobservable* — every node sees the same inputs
//! in the same order and draws the same RNG stream, so the run is
//! bit-identical. The unit test in `shard.rs` pins this at toy scale;
//! this test pins it at a scale where the cross-shard exchange path,
//! the per-window drain rounds and the wake heap all carry real load,
//! and across several seeds so a single lucky schedule can't hide an
//! ordering bug.

use penelope_sim::{ShardReport, ShardedConfig, ShardedSim};

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
    for (cfg, fingerprint, executed, elided, messages, granted_mw) in pins {
        for (shards, jobs) in [(1, 1), (3, 1), (4, 2)] {
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
            assert!(r.lost.is_zero());
            assert!(r.conservation_ok);
        }
    }
}
