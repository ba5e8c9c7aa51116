//! Single-host daemon soak: thousands of multiplexed node engines
//! exchanging real UDP datagrams through one shared socket pair, with
//! grant round-trip tail latency printed. (The timed, gated version of
//! this run is the `mux_soak` workload of `bash benchmark/run.sh`.)
//!
//! ```text
//! cargo run --release --example daemon_soak
//! PENELOPE_EFFORT=full cargo run --release --example daemon_soak
//! cargo run --release --example daemon_soak -- --nodes 2000 --rounds 30
//! ```
//!
//! Effort presets (overridable with `--nodes` / `--rounds`):
//! smoke = 1 000 nodes × 25 rounds, quick = 3 000 × 30, full =
//! 10 000 × 50. The run fails — exit status 1 — if the cluster mints
//! power, if any loopback send fails, if no grant round trip completes
//! (a latency report with no samples proves nothing), or if the RTT
//! ledger read the wall clock more than once per pass: a lossless soak
//! receives each datagram it sends once, so the reads are bounded by
//! datagrams plus rounds.

use penelope::experiments::Effort;
use penelope_daemon::{run_multiplexed, MuxConfig};

struct Args {
    nodes: Option<usize>,
    rounds: Option<u64>,
}

fn parse_args() -> Args {
    let mut nodes = None;
    let mut rounds = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value");
                std::process::exit(2);
            })
        };
        match a.as_str() {
            "--nodes" => {
                let v = value("--nodes");
                nodes = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--nodes must be an integer, got {v:?}");
                    std::process::exit(2);
                }));
            }
            "--rounds" => {
                let v = value("--rounds");
                rounds = Some(v.parse().unwrap_or_else(|_| {
                    eprintln!("--rounds must be an integer, got {v:?}");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!(
                    "unknown argument {other:?}; usage: daemon_soak \
                     [--nodes N] [--rounds R]"
                );
                std::process::exit(2);
            }
        }
    }
    Args { nodes, rounds }
}

fn main() {
    let args = parse_args();
    let effort = Effort::from_env();
    let (effort_name, preset_nodes, preset_rounds) = match effort {
        Effort::Smoke => ("smoke", 1_000, 25),
        Effort::Quick => ("quick", 3_000, 30),
        Effort::Full => ("full", 10_000, 50),
    };
    let nodes = args.nodes.unwrap_or(preset_nodes);
    let rounds = args.rounds.unwrap_or(preset_rounds);
    println!("daemon_soak: effort={effort_name} nodes={nodes} rounds={rounds}");

    let cfg = MuxConfig::soak(nodes, 0x50AC_5EED, rounds);
    let summary = run_multiplexed(&cfg).unwrap_or_else(|e| {
        eprintln!("soak failed to run: {e}");
        std::process::exit(1);
    });

    println!(
        "  frames: sent={} in {} datagrams, delivered={} wire_lost={} send_failed={}",
        summary.frames_sent,
        summary.datagrams_sent,
        summary.frames_delivered,
        summary.wire_lost,
        summary.send_failed
    );
    println!(
        "  power: caps={} pools={} escrowed={} lost={} budget={}",
        summary.total_caps,
        summary.total_pools,
        summary.total_escrowed,
        summary.lost,
        summary.budget
    );
    println!(
        "  {} engine inputs in {:.3}s wall = {:.0} events/sec",
        summary.events,
        summary.wall_s,
        summary.events as f64 / summary.wall_s.max(1e-9)
    );

    let rtt = summary.grant_rtt().unwrap_or_else(|| {
        eprintln!("FAIL: no grant round trip completed — the soak proved nothing");
        std::process::exit(1);
    });
    println!(
        "  grant rtt: samples={} p50={:.1}µs p99={:.1}µs p999={:.1}µs \
         wall_reads={} mean pass={:.1}µs",
        rtt.samples,
        rtt.p50_ns as f64 / 1e3,
        rtt.p99_ns as f64 / 1e3,
        rtt.p999_ns as f64 / 1e3,
        summary.wall_reads,
        summary.wall_s * 1e6 / summary.wall_reads.max(1) as f64
    );

    let mut failed = false;
    let passes = summary.datagrams_sent + summary.rounds;
    if summary.wall_reads > passes {
        eprintln!(
            "FAIL: {} wall-clock reads for {} passes ({} datagrams + {} rounds)",
            summary.wall_reads, passes, summary.datagrams_sent, summary.rounds
        );
        failed = true;
    }
    if summary.send_failed > 0 {
        eprintln!(
            "FAIL: {} loopback sends failed at the OS level",
            summary.send_failed
        );
        failed = true;
    }
    if summary.accounted_total() > summary.budget {
        eprintln!(
            "FAIL: power minted — accounted {} exceeds budget {}",
            summary.accounted_total(),
            summary.budget
        );
        failed = true;
    }
    if summary.wire_lost == 0 && summary.accounted_total() != summary.budget {
        eprintln!(
            "FAIL: budget does not balance with nothing lost on the wire: \
             accounted {} vs budget {}",
            summary.accounted_total(),
            summary.budget
        );
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
}
