//! `--compare A.json B.json`: one row per (end-to-end metric, workload),
//! and a diff of the fidelity blocks.

use std::fmt::Write;

use crate::catalog::{Workload, END_TO_END};
use crate::results::ResultsFile;

/// What a row concludes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is no worse than A's by more than the bound.
    Ok,
    /// B is worse than A by more than the bound, and by more than the
    /// spread of either side's repetitions.
    Regressed,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell a regression of that size from noise.
    Unresolved,
}

impl Verdict {
    fn word(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge one metric: `worsening` and `spread` as shares of A's median.
pub fn verdict(worsening: f64, spread: f64, bound: f64) -> Verdict {
    if worsening > bound && worsening > spread {
        Verdict::Regressed
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

/// The comparison as text, and whether it passes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Comparison {
    /// The table and the fidelity diff.
    pub text: String,
    /// Rows that regressed, runs with more failures, workloads missing
    /// from B.
    pub failures: usize,
    /// Rows whose spread is wider than their bound.
    pub unresolved: usize,
    /// Whether every fidelity block is byte-identical.
    pub fidelity_identical: bool,
}

/// Compare B against A.
pub fn compare(a: &ResultsFile, b: &ResultsFile) -> Comparison {
    let mut text = String::new();
    let (mut failures, mut unresolved, mut fidelity_identical) = (0, 0, true);
    if a.env != b.env {
        let _ = writeln!(
            text,
            "note: environments differ\n  A: {:?}\n  B: {:?}",
            a.env, b.env
        );
    }
    let _ = writeln!(
        text,
        "{:<13} {:<24} {:>14} {:>14} {:>8} {:>7} {:>6}  verdict",
        "workload", "metric", "A value", "B value", "worse", "spread", "bound"
    );
    for w in Workload::ALL {
        let (Some(ra), Some(rb)) = (a.end_to_end(w.name()), b.end_to_end(w.name())) else {
            if a.end_to_end(w.name()).is_some() {
                failures += 1;
                let _ = writeln!(text, "{:<13} missing from B", w.name());
            }
            continue;
        };
        for m in END_TO_END {
            let (Some(ma), Some(mb)) = (ra.metric(m.name), rb.metric(m.name)) else {
                failures += 1;
                let _ = writeln!(text, "{:<13} {:<24} missing", w.name(), m.name);
                continue;
            };
            let worsening = m.better.worsening(ma.summary.value, mb.summary.value);
            let spread = ma.summary.spread().max(mb.summary.spread());
            let v = verdict(worsening, spread, m.bound);
            match v {
                Verdict::Regressed => failures += 1,
                Verdict::Unresolved => unresolved += 1,
                Verdict::Ok => {}
            }
            let _ = writeln!(
                text,
                "{:<13} {:<24} {:>14.6e} {:>14.6e} {:>+7.2}% {:>6.2}% {:>5.1}%  {}   A[{:.4e} {:.4e}] B[{:.4e} {:.4e}] {}",
                w.name(),
                m.name,
                ma.summary.value,
                mb.summary.value,
                worsening * 100.0,
                spread * 100.0,
                m.bound * 100.0,
                v.word(),
                ma.summary.q1,
                ma.summary.q3,
                mb.summary.q1,
                mb.summary.q3,
                m.unit,
            );
        }
        if rb.failed * ra.attempted > ra.failed * rb.attempted {
            failures += 1;
            let _ = writeln!(
                text,
                "{:<13} failed share grew: {}/{} → {}/{}",
                w.name(),
                ra.failed,
                ra.attempted,
                rb.failed,
                rb.attempted
            );
        }
        if ra.seed == rb.seed && ra.fidelity != rb.fidelity {
            fidelity_identical = false;
            let _ = writeln!(text, "{:<13} fidelity differs:", w.name());
            for (ka, va) in &ra.fidelity {
                let vb = rb.fidelity.iter().find(|(k, _)| k == ka).map(|(_, v)| v);
                if vb != Some(va) {
                    let _ = writeln!(
                        text,
                        "    {ka}: {va} → {}",
                        vb.map_or("(absent)", |v| v.as_str())
                    );
                }
            }
        } else if ra.seed != rb.seed {
            let _ = writeln!(
                text,
                "{:<13} fidelity not compared: seeds differ ({} vs {})",
                w.name(),
                ra.seed,
                rb.seed
            );
        }
    }
    let _ = writeln!(
        text,
        "{failures} regressed or failed, {unresolved} unresolved, fidelity {}",
        if fidelity_identical {
            "byte-identical: the two sides computed the same thing"
        } else {
            "DIFFERS: B changed what the program computes, not only how fast"
        }
    );
    Comparison {
        text,
        failures,
        unresolved,
        fidelity_identical,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::results::tests::sample_run;
    use crate::results::Env;

    fn file(rate: f64) -> ResultsFile {
        ResultsFile {
            env: Env {
                nproc: 2,
                cpu_model: "cpu".into(),
                rustc: "rustc".into(),
                commit: "c".into(),
            },
            runs: vec![sample_run("shard_sparse", rate)],
        }
    }

    #[test]
    fn verdicts() {
        assert_eq!(verdict(0.02, 0.01, 0.10), Verdict::Ok);
        assert_eq!(verdict(-0.5, 0.01, 0.10), Verdict::Ok);
        assert_eq!(verdict(0.12, 0.03, 0.10), Verdict::Regressed);
        assert_eq!(verdict(0.05, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.12, 0.15, 0.10), Verdict::Unresolved);
        assert_eq!(verdict(0.30, 0.15, 0.10), Verdict::Regressed);
    }

    #[test]
    fn slower_side_regresses_and_changed_counts_show() {
        let a = file(1.0e6);
        let same = compare(&a, &file(0.97e6));
        // The sample run only carries two of the metrics; the others are
        // reported missing, which is a failure of the file, not a verdict.
        assert!(same.text.contains("node_periods_per_s"));
        assert!(same.text.contains("  ok "));
        assert!(same.fidelity_identical);

        let slow = compare(&a, &file(0.7e6));
        assert!(slow.text.contains("regressed"));
        assert!(slow.failures > same.failures);

        let mut changed = file(1.0e6);
        changed.runs[0].fidelity[0].1 = "0000000000000000".into();
        let c = compare(&a, &changed);
        assert!(!c.fidelity_identical);
        assert!(c
            .text
            .contains("fingerprint: ffffffffffffffff → 0000000000000000"));

        let mut failing = file(1.0e6);
        failing.runs[0].failed = 1;
        assert!(compare(&a, &failing).text.contains("failed share grew"));
    }
}
