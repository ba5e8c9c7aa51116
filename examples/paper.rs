//! The experiment runner: regenerate any of the paper's artifacts from the
//! command line.
//!
//! ```text
//! cargo run --release --example paper -- [artifact] [effort] [--trace PATH]
//!
//! artifacts: overhead | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8
//!            | service | multijob | assignment | failover | all
//!            | ablations | mega          (not part of `all`)
//! effort:    smoke | quick | full        (default: quick)
//! ```
//!
//! `--trace PATH` additionally runs the §4.2 nominal Penelope cluster with
//! the JSONL observer attached, writes the structured protocol-event
//! stream to `PATH` and schema-validates it (exit 1 if it does not
//! validate); given alone, it runs only that.

use std::sync::Arc;

use penelope::experiments::{
    ablations, assignment, failover, faulty, multijob, nominal, overhead, scale, scale_mega,
    service, Effort,
};
use penelope::prelude::*;
use penelope::trace::{validate_jsonl, JsonlObserver};

fn frequencies(effort: Effort) -> Vec<f64> {
    match effort {
        Effort::Smoke => vec![1.0, 8.0],
        Effort::Quick => vec![1.0, 4.0, 12.0, 20.0, 24.0],
        Effort::Full => scale::PAPER_FREQUENCIES.to_vec(),
    }
}

fn scales(effort: Effort) -> Vec<usize> {
    match effort {
        Effort::Smoke => vec![44, 96],
        Effort::Quick => vec![44, 264, 1056],
        Effort::Full => scale::PAPER_SCALES.to_vec(),
    }
}

fn run_artifact(name: &str, effort: Effort) -> bool {
    match name {
        "overhead" => print!("{}", overhead::run(effort).render()),
        "fig2" => print!("{}", nominal::run(effort).render()),
        "fig3" => print!("{}", faulty::run(effort).render()),
        "fig4" => print!(
            "{}",
            scale::render_fig4(&scale::frequency_sweep(effort, &frequencies(effort)))
        ),
        "fig5" => print!(
            "{}",
            scale::render_fig5(&scale::frequency_sweep(effort, &frequencies(effort)))
        ),
        "fig6" => print!(
            "{}",
            scale::render_fig6(&scale::scale_sweep(effort, &scales(effort)))
        ),
        "fig7" => print!(
            "{}",
            scale::render_fig7(&scale::frequency_sweep(effort, &frequencies(effort)))
        ),
        "fig8" => print!(
            "{}",
            scale::render_fig8(&scale::scale_sweep(effort, &scales(effort)))
        ),
        "service" => print!("{}", service::run().render()),
        "multijob" => print!("{}", multijob::run(effort).render()),
        "assignment" => print!("{}", assignment::run(effort).render()),
        "failover" => print!("{}", failover::run(effort).render()),
        "ablations" => print!("{}", ablations::run(effort).render()),
        "mega" => print!("{}", scale_mega::render(&scale_mega::run(effort))),
        "all" => {
            for a in [
                "overhead",
                "fig2",
                "fig3",
                "fig4",
                "fig5",
                "fig6",
                "fig7",
                "fig8",
                "service",
                "multijob",
                "assignment",
                "failover",
            ] {
                println!("==== {a} ====");
                run_artifact(a, effort);
                println!();
            }
        }
        _ => return false,
    }
    true
}

/// Run the §4.2 nominal mix (two DC-like, two EP-like applications on
/// four 160 W nodes) with the JSONL observer attached, then validate the
/// exported stream: required fields, known kinds, per-node monotone
/// timestamps.
fn export_trace(path: &str) {
    let profiles: Vec<_> = vec![npb::dc(), npb::dc(), npb::ep(), npb::ep()]
        .into_iter()
        .map(|p| p.scaled(0.05))
        .collect();
    let jsonl = Arc::new(JsonlObserver::create(path).unwrap_or_else(|e| {
        eprintln!("--trace {path}: {e}");
        std::process::exit(2);
    }));
    let sim = ClusterSim::builder()
        .budget(Power::from_watts_u64(4 * 160))
        .workloads(profiles)
        .observer(SharedObserver::from(jsonl.clone()))
        .seed(42)
        .build();
    let report = sim.run(SimTime::from_secs(120));
    jsonl.flush().expect("flush trace");
    let text = std::fs::read_to_string(path).expect("read trace back");
    match validate_jsonl(&text) {
        Ok(summary) => println!(
            "trace: {} events from {} nodes -> {} (conservation_ok: {})",
            summary.events,
            summary.per_node.len(),
            path,
            report.conservation_ok,
        ),
        Err(e) => {
            eprintln!("trace schema validation failed: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let trace = args.iter().position(|a| a == "--trace").map(|at| {
        if at + 1 == args.len() {
            eprintln!("--trace needs a path");
            std::process::exit(2);
        }
        args.drain(at..at + 2).nth(1).expect("flag and path")
    });
    let artifact = match (args.first(), &trace) {
        (Some(name), _) => name.as_str(),
        (None, None) => "all",
        (None, Some(_)) => "",
    };
    let effort = match args.get(1).map(String::as_str) {
        Some("smoke") => Effort::Smoke,
        Some("full") => Effort::Full,
        Some("quick") | None => Effort::from_env(),
        Some(other) => {
            eprintln!("unknown effort {other:?} (smoke|quick|full)");
            std::process::exit(2);
        }
    };
    if !artifact.is_empty() {
        eprintln!("# artifact={artifact} effort={effort:?}");
        if !run_artifact(artifact, effort) {
            eprintln!(
                "unknown artifact {artifact:?}\n\
                 usage: paper <overhead|fig2|fig3|fig4|fig5|fig6|fig7|fig8|service|multijob|assignment|failover|all|ablations|mega> [smoke|quick|full] [--trace PATH]"
            );
            std::process::exit(2);
        }
    }
    if let Some(path) = trace {
        export_trace(&path);
    }
}
