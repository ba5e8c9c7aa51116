//! Experiment sizing.

/// How much of the paper's full experimental matrix to run.
///
/// The full matrix (36 pairs × 5 caps × 3 systems for Fig. 2; 1056
/// simulated nodes for the scale study) takes minutes; tests, CI and the
/// examples' default use the smaller presets. All presets exercise the same code and
/// the same qualitative comparisons — only sample counts shrink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Effort {
    /// A handful of pairs, small clusters; seconds. Used by unit tests.
    Smoke,
    /// Enough samples for stable shapes; the default when
    /// `PENELOPE_EFFORT` is unset.
    Quick,
    /// The paper's full matrix.
    Full,
}

impl Effort {
    /// How many of the 36 application pairs to sweep.
    pub fn pairs(self) -> usize {
        match self {
            Effort::Smoke => 3,
            Effort::Quick => 12,
            Effort::Full => 36,
        }
    }

    /// Time-compression factor applied to profile work (1.0 = class-D
    /// length runs).
    pub(crate) fn time_scale(self) -> f64 {
        match self {
            Effort::Smoke => 0.08,
            Effort::Quick => 0.5,
            Effort::Full => 1.0,
        }
    }

    /// Client nodes for the real-cluster experiments (the paper uses 20).
    pub(crate) fn cluster_nodes(self) -> usize {
        match self {
            Effort::Smoke => 6,
            Effort::Quick => 20,
            Effort::Full => 20,
        }
    }

    /// The largest scale point in the scale study (the paper simulates up
    /// to 1056 nodes).
    pub(crate) fn max_scale_nodes(self) -> usize {
        match self {
            Effort::Smoke => 96,
            Effort::Quick => 1056,
            Effort::Full => 1056,
        }
    }

    /// Parse an effort name: `smoke`, `quick` or `full`.
    pub fn parse(v: &str) -> Result<Self, String> {
        match v {
            "smoke" => Ok(Effort::Smoke),
            "quick" => Ok(Effort::Quick),
            "full" => Ok(Effort::Full),
            other => Err(format!(
                "PENELOPE_EFFORT must be one of smoke|quick|full, got {other:?}"
            )),
        }
    }

    /// Read the `PENELOPE_EFFORT` environment variable (`smoke|quick|full`).
    /// Unset means `Quick`; anything else panics with the offending value —
    /// a typo must not silently downgrade a full-matrix run.
    pub fn from_env() -> Self {
        match std::env::var("PENELOPE_EFFORT") {
            Ok(v) => Self::parse(&v).unwrap_or_else(|e| panic!("{e}")),
            Err(std::env::VarError::NotPresent) => Effort::Quick,
            Err(std::env::VarError::NotUnicode(v)) => {
                panic!("PENELOPE_EFFORT must be one of smoke|quick|full, got non-unicode {v:?}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_are_ordered() {
        assert!(Effort::Smoke.pairs() < Effort::Quick.pairs());
        assert!(Effort::Quick.pairs() < Effort::Full.pairs());
        assert_eq!(Effort::Quick.max_scale_nodes(), 1056);
        assert_eq!(Effort::Full.pairs(), 36);
        assert_eq!(Effort::Full.cluster_nodes(), 20);
        assert_eq!(Effort::Full.max_scale_nodes(), 1056);
        assert_eq!(Effort::Full.time_scale(), 1.0);
    }

    #[test]
    fn parse_accepts_all_three_names_and_rejects_the_rest() {
        assert_eq!(Effort::parse("smoke"), Ok(Effort::Smoke));
        assert_eq!(Effort::parse("quick"), Ok(Effort::Quick));
        assert_eq!(Effort::parse("full"), Ok(Effort::Full));
        let err = Effort::parse("fulll").expect_err("typo must not parse");
        assert!(err.contains("fulll"), "error must name the value: {err}");
        assert!(Effort::parse("").is_err());
        assert!(Effort::parse("Smoke").is_err(), "names are lowercase");
    }
}
