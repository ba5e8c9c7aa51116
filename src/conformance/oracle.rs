//! Differential-oracle checks for the paper's ordering claims.

/// Performance triple for one scenario: Penelope vs the two baselines,
/// as normalized performance (higher is better; 1.0 = unconstrained).
#[derive(Clone, Copy, Debug)]
pub struct PerfTriple {
    /// Penelope's normalized performance.
    pub penelope: f64,
    /// Static fair division baseline.
    pub fair: f64,
    /// Centralized SLURM-style manager.
    pub slurm: f64,
}

fn finite(t: &PerfTriple) -> Result<(), String> {
    for (name, v) in [
        ("penelope", t.penelope),
        ("fair", t.fair),
        ("slurm", t.slurm),
    ] {
        if !v.is_finite() || v < 0.0 {
            return Err(format!("{name} performance {v} is not a valid metric"));
        }
    }
    Ok(())
}

/// §4.2 (nominal): with well-matched budgets and no faults, Penelope
/// must perform within `tol` (relative) of the Fair baseline — the
/// paper's Fig. 2 shows near-equivalence — and must not trail the
/// centralized manager by more than `tol` either.
pub fn check_nominal(t: PerfTriple, tol: f64) -> Result<(), String> {
    finite(&t)?;
    if t.penelope < t.fair * (1.0 - tol) {
        return Err(format!(
            "nominal: penelope {:.4} trails fair {:.4} by more than {:.0}%",
            t.penelope,
            t.fair,
            tol * 100.0
        ));
    }
    if t.penelope < t.slurm * (1.0 - tol) {
        return Err(format!(
            "nominal: penelope {:.4} trails slurm {:.4} by more than {:.0}%",
            t.penelope,
            t.slurm,
            tol * 100.0
        ));
    }
    Ok(())
}

/// §4.3 (faults): when nodes die and their power would otherwise be
/// stranded, Penelope's redistribution must beat the static Fair
/// baseline by at least `min_gain` (relative).
pub fn check_fault_advantage(t: PerfTriple, min_gain: f64) -> Result<(), String> {
    finite(&t)?;
    if t.penelope < t.fair * (1.0 + min_gain) {
        return Err(format!(
            "faulty: penelope {:.4} does not beat fair {:.4} by the required {:.0}%",
            t.penelope,
            t.fair,
            min_gain * 100.0
        ));
    }
    Ok(())
}

/// §4.3/§4.5: the centralized manager must never *beat* Penelope by
/// more than `tol` under faults (it has the same information but
/// serializes decisions); and under server loss Penelope keeps
/// working while SLURM cannot — expressed here as a floor on the
/// Penelope/SLURM ratio.
pub fn check_centralized_no_better(t: PerfTriple, tol: f64) -> Result<(), String> {
    finite(&t)?;
    if t.slurm > t.penelope * (1.0 + tol) {
        return Err(format!(
            "slurm {:.4} beats penelope {:.4} by more than {:.0}%",
            t.slurm,
            t.penelope,
            tol * 100.0
        ));
    }
    Ok(())
}
