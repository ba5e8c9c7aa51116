//! Bit-identity pin of the simulator hot path across storage layouts.
//!
//! PR 8 rebuilds the simulator's per-node storage from an
//! array-of-structs (`Vec<SimNode>`) into a struct-of-arrays
//! (`NodeTable`) and removes per-event allocations from the inner loop.
//! Those are *storage* changes: every RNG draw, every event ordering and
//! every protocol decision must be unaffected. This test pins that claim
//! with per-seed digests of the complete protocol-event stream — the
//! digests committed in `tests/data/layout_digests.txt` were recorded
//! from the pre-refactor layout, so a digest match *is* trace-stream
//! equality between the old layout and the new hot path.
//!
//! Scenarios covered are the §4.2 trio the satellite names: nominal,
//! churn (kill → suspicion → restart), and partition (cut → heal), each
//! at two seeds.
//!
//! Re-blessing (`PENELOPE_BLESS=1 cargo test --test layout_conformance`)
//! is only legitimate when the simulator's *behavior* deliberately
//! changes; a storage-only PR must never need it.

use std::fmt::Write as _;
use std::path::PathBuf;

use penelope::conformance::{
    churn_scenario, nominal_scenario, partition_scenario, Scenario, SimSubstrate, Substrate,
};
use penelope_trace::TraceEvent;

/// FNV-1a over the debug rendering of every event, order-sensitive.
///
/// The debug form includes timestamps, node ids, sequence numbers and
/// exact milliwatt amounts, so any divergence in RNG draw order, event
/// scheduling or arithmetic shows up as a different digest.
fn stream_digest(events: &[TraceEvent]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut line = String::new();
    for ev in events {
        line.clear();
        write!(line, "{ev:?}").expect("format event");
        for b in line.as_bytes() {
            hash ^= u64::from(*b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        // Separator so event boundaries can't alias.
        hash ^= 0x0a;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn run_digest(scenario: &Scenario) -> (u64, usize) {
    let events = SimSubstrate
        .run(scenario)
        .unwrap_or_else(|e| panic!("{} failed: {e}", scenario.name))
        .events;
    assert!(
        !events.is_empty(),
        "{}: empty event stream pins nothing",
        scenario.name
    );
    (stream_digest(&events), events.len())
}

fn cases() -> Vec<(String, Scenario)> {
    let mut v = Vec::new();
    for seed in [7u64, 0xBEEF] {
        v.push((format!("nominal/{seed:#x}"), nominal_scenario(seed)));
        v.push((format!("churn/{seed:#x}"), churn_scenario(seed, 0, 40)));
        v.push((
            format!("partition/{seed:#x}"),
            partition_scenario(seed, 0, 40),
        ));
    }
    v
}

fn digest_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("data")
        .join("layout_digests.txt")
}

#[test]
fn storage_layout_preserves_trace_streams_per_seed() {
    let path = digest_path();
    let mut lines = String::new();
    let mut failures = Vec::new();
    let golden = std::fs::read_to_string(&path).unwrap_or_default();

    for (name, scenario) in cases() {
        let (digest, events) = run_digest(&scenario);
        writeln!(lines, "{name} {digest:#018x} {events}").unwrap();
        let expect = golden
            .lines()
            .find(|l| l.split_whitespace().next() == Some(name.as_str()));
        match expect {
            Some(l) => {
                let mut f = l.split_whitespace();
                f.next();
                let want = f.next().unwrap_or("?");
                let got = format!("{digest:#018x}");
                if want != got {
                    failures.push(format!(
                        "{name}: stream digest {got} != golden {want} ({events} events)"
                    ));
                }
            }
            None => failures.push(format!("{name}: no golden digest recorded")),
        }
    }

    if std::env::var("PENELOPE_BLESS").is_ok() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/data");
        std::fs::write(&path, &lines).expect("write digests");
        return;
    }
    assert!(
        failures.is_empty(),
        "trace streams diverged from the recorded (pre-SoA) layout:\n{}\n\
         If the divergence is an intended behavior change, re-bless with \
         PENELOPE_BLESS=1; a storage-only change must instead be fixed.",
        failures.join("\n")
    );
}
