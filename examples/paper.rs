//! The experiment runner: regenerate any of the paper's artifacts from the
//! command line.
//!
//! ```text
//! cargo run --release --example paper -- <artifact> [effort]
//!
//! artifacts: overhead | fig2 | fig3 | fig4 | fig5 | fig6 | fig7 | fig8
//!            | service | multijob | assignment | failover | all
//!            | ablations | mega          (not part of `all`)
//! effort:    smoke | quick | full        (default: quick)
//! ```

use penelope::experiments::{
    ablations, assignment, failover, faulty, multijob, nominal, overhead, scale, scale_mega,
    service, Effort,
};

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

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let artifact = args.first().map(String::as_str).unwrap_or("all");
    let effort = match args.get(1).map(String::as_str) {
        Some("smoke") => Effort::Smoke,
        Some("full") => Effort::Full,
        Some("quick") | None => Effort::from_env(),
        Some(other) => {
            eprintln!("unknown effort {other:?} (smoke|quick|full)");
            std::process::exit(2);
        }
    };
    eprintln!("# artifact={artifact} effort={effort:?}");
    if !run_artifact(artifact, effort) {
        eprintln!(
            "unknown artifact {artifact:?}\n\
             usage: paper <overhead|fig2|fig3|fig4|fig5|fig6|fig7|fig8|service|multijob|assignment|failover|all|ablations|mega> [smoke|quick|full]"
        );
        std::process::exit(2);
    }
}
