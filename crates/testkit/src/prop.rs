//! Minimal deterministic property-test harness.
//!
//! A fixed-iteration, seed-reporting, shrinking property runner with no
//! dependencies outside this crate; every property suite in the
//! workspace runs on it.
//!
//! Model: a [`Gen`] produces values from a [`TestRng`] and can propose
//! *simpler* candidate values for a failing input (integers binary-search
//! toward their lower bound, vectors binary-chop their length, tuples
//! shrink element-wise). [`check`] runs a property over `cases`
//! generated inputs; on failure it shrinks, then panics with the seed,
//! the case index and the shrunken input. `PENELOPE_PROP_SEED` (decimal
//! or `0x` hex) and `PENELOPE_PROP_CASES` override the seed and case
//! count of every [`check`], so the reported recipe replays the exact
//! failure without editing code.
//!
//! ```
//! use penelope_testkit::prop::{self, vec_of};
//!
//! prop::check("sum is monotone", prop::Config::default(), vec_of(0u64..100, 0..20), |v| {
//!     let s: u64 = v.iter().sum();
//!     assert!(s <= 100 * v.len() as u64);
//! });
//! ```

use crate::rng::{splitmix64, Rng, TestRng};
use std::cell::Cell;
use std::fmt::Debug;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// Harness configuration: how many generated inputs to test.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// How many generated inputs to test.
    pub cases: u32,
}

impl Default for Config {
    fn default() -> Self {
        Config { cases: 64 }
    }
}

impl Config {
    /// Test `cases` generated inputs.
    pub fn with_cases(cases: u32) -> Self {
        Config { cases }
    }
}

/// Arbitrary but fixed base seed ("PENELOPE SEED 1").
const DEFAULT_SEED: u64 = 0x9E1E_10BE_5EED_0001;

/// Upper bound on shrink attempts after the first failure.
const MAX_SHRINK_ITERS: u32 = 512;

/// The `(seed, cases)` a [`check`] runs: the default seed and
/// `cfg.cases`, unless the values of `PENELOPE_PROP_SEED` /
/// `PENELOPE_PROP_CASES` (passed in, so this stays a pure function)
/// override them. A value that does not parse panics naming the variable:
/// a typo in a replay must not pass on the wrong seed.
fn resolve(cfg: Config, seed_var: Option<&str>, cases_var: Option<&str>) -> (u64, u32) {
    let seed = seed_var.map_or(DEFAULT_SEED, |s| {
        parse_u64(s).unwrap_or_else(|e| panic!("PENELOPE_PROP_SEED={s:?} is not a u64: {e}"))
    });
    let cases = cases_var.map_or(cfg.cases, |s| {
        s.parse()
            .unwrap_or_else(|e| panic!("PENELOPE_PROP_CASES={s:?} is not a u32: {e}"))
    });
    (seed, cases)
}

fn parse_u64(s: &str) -> Result<u64, std::num::ParseIntError> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
}

/// The RNG stream for one `(seed, case)` pair — the unit of replay.
fn case_rng(seed: u64, case: u32) -> TestRng {
    let mut s = seed ^ 0xC0DE_u64.wrapping_mul(case as u64 + 1);
    TestRng::seed_from_u64(splitmix64(&mut s))
}

/// A value generator with optional shrinking.
pub trait Gen {
    /// The generated value type.
    type Value: Clone + Debug;

    /// Draw one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;

    /// Candidate simplifications of `value`, most aggressive first.
    /// Default: no shrinking.
    fn shrink(&self, _value: &Self::Value) -> Vec<Self::Value> {
        Vec::new()
    }

    /// Map generated values through `f` (shrinks the source, then maps).
    ///
    /// Named `prop_map` (not `map`) so that ranges — which are both `Gen`
    /// and `Iterator` — don't become ambiguous wherever this trait is in
    /// scope.
    fn prop_map<O: Clone + Debug, F: Fn(Self::Value) -> O>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
    {
        Map { inner: self, f }
    }
}

/// Outcome of [`run`]: either all cases passed or the first failure,
/// fully described for replay.
#[derive(Clone, Debug)]
enum RunResult<V> {
    /// Every case passed.
    Passed,
    /// A case failed (after shrinking).
    Failed {
        /// The base seed of the run — reproduces the whole run.
        seed: u64,
        /// The failing case index — `case_rng(seed, case)` replays it.
        case: u32,
        /// The original failing input.
        original: V,
        /// The smallest failing input found within the shrink budget.
        shrunk: V,
        /// Number of successful shrink steps applied.
        shrink_steps: u32,
        /// Panic message of the shrunken failure.
        message: String,
    },
}

thread_local! {
    static SILENCE_PANICS: Cell<bool> = const { Cell::new(false) };
}

fn install_quiet_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !SILENCE_PANICS.with(|s| s.get()) {
                prev(info);
            }
        }));
    });
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

fn fails<V, F: Fn(V)>(f: &F, value: V) -> Option<String> {
    install_quiet_hook();
    SILENCE_PANICS.with(|s| s.set(true));
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| f(value)));
    SILENCE_PANICS.with(|s| s.set(false));
    outcome.err().map(panic_message)
}

/// Run `property` over `cases` inputs generated from `seed`; return the
/// outcome instead of panicking.
fn run<G: Gen, F: Fn(G::Value)>(seed: u64, cases: u32, gen: G, property: F) -> RunResult<G::Value> {
    for case in 0..cases {
        let mut rng = case_rng(seed, case);
        let value = gen.generate(&mut rng);
        if let Some(first_msg) = fails(&property, value.clone()) {
            let (shrunk, shrink_steps, message) =
                shrink_failure(&gen, &property, value.clone(), first_msg);
            return RunResult::Failed {
                seed,
                case,
                original: value,
                shrunk,
                shrink_steps,
                message,
            };
        }
    }
    RunResult::Passed
}

fn shrink_failure<G: Gen, F: Fn(G::Value)>(
    gen: &G,
    property: &F,
    mut current: G::Value,
    mut message: String,
) -> (G::Value, u32, String) {
    let mut steps = 0;
    let mut spent = 0;
    'outer: while spent < MAX_SHRINK_ITERS {
        for candidate in gen.shrink(&current) {
            spent += 1;
            if let Some(msg) = fails(property, candidate.clone()) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
            if spent >= MAX_SHRINK_ITERS {
                break;
            }
        }
        break;
    }
    (current, steps, message)
}

/// Run a property and panic with a replayable report on failure.
///
/// It runs `cfg.cases` inputs from the default seed unless
/// `PENELOPE_PROP_SEED` / `PENELOPE_PROP_CASES` say otherwise; a value
/// that does not parse panics. The failure message carries the seed,
/// case index and shrunken input, and the environment that replays them.
pub fn check<G: Gen, F: Fn(G::Value)>(name: &str, cfg: Config, gen: G, property: F) {
    let var = |key| std::env::var_os(key).map(|v| v.to_string_lossy().into_owned());
    let (seed, cases) = resolve(
        cfg,
        var("PENELOPE_PROP_SEED").as_deref(),
        var("PENELOPE_PROP_CASES").as_deref(),
    );
    match run(seed, cases, gen, property) {
        RunResult::Passed => {}
        RunResult::Failed {
            seed,
            case,
            original,
            shrunk,
            shrink_steps,
            message,
        } => {
            panic!(
                "property '{name}' failed\n  seed: {seed:#018x}  case: {case}\n  \
                 original input: {original:?}\n  shrunk input ({shrink_steps} steps): {shrunk:?}\n  \
                 failure: {message}\n  \
                 replay: PENELOPE_PROP_SEED={seed:#x} PENELOPE_PROP_CASES={n} cargo test",
                n = case + 1,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Generators
// ---------------------------------------------------------------------------

/// Shrink an integer toward `lo` by binary search: try `lo` first, then
/// successive midpoints between `lo` and the current value.
fn shrink_u64_toward(lo: u64, v: u64) -> Vec<u64> {
    let mut out = Vec::new();
    if v == lo {
        return out;
    }
    out.push(lo);
    let mut delta = v - lo;
    while delta > 1 {
        delta /= 2;
        out.push(v - delta);
    }
    out.dedup();
    out
}

macro_rules! impl_gen_uint_range {
    ($($t:ty),*) => {$(
        impl Gen for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_u64_toward(self.start as u64, *value as u64)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
        impl Gen for core::ops::RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                shrink_u64_toward(*self.start() as u64, *value as u64)
                    .into_iter()
                    .map(|v| v as $t)
                    .collect()
            }
        }
    )*};
}

impl_gen_uint_range!(u8, u16, u32, u64, usize);

macro_rules! impl_gen_float_range {
    ($($t:ty),*) => {$(
        impl Gen for core::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                rng.gen_range(self.clone())
            }
            fn shrink(&self, value: &$t) -> Vec<$t> {
                // Binary search toward the low bound, stopping once the
                // step is negligible relative to the range.
                let lo = self.start;
                let mut out = Vec::new();
                let mut delta = *value - lo;
                let cutoff = (self.end - self.start) * 1e-6;
                if delta <= cutoff {
                    return out;
                }
                out.push(lo);
                while delta > cutoff {
                    delta /= 2.0;
                    out.push(*value - delta);
                }
                out
            }
        }
    )*};
}

impl_gen_float_range!(f32, f64);

/// Any `u64` (full domain).
pub fn any_u64() -> core::ops::RangeInclusive<u64> {
    0..=u64::MAX
}

/// Any `u8` (full domain).
pub fn any_u8() -> core::ops::RangeInclusive<u8> {
    0..=u8::MAX
}

/// Boolean generator; shrinks `true` → `false`.
#[derive(Clone, Copy, Debug)]
pub struct AnyBool;

/// Any `bool`.
pub fn any_bool() -> AnyBool {
    AnyBool
}

impl Gen for AnyBool {
    type Value = bool;
    fn generate(&self, rng: &mut TestRng) -> bool {
        rng.gen_bool(0.5)
    }
    fn shrink(&self, value: &bool) -> Vec<bool> {
        if *value {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// Uniform choice among `options` (cloned).
#[derive(Clone, Debug)]
pub struct OneOf<T: Clone + Debug>(pub Vec<T>);

/// Uniform choice among `options`; shrinks toward earlier options.
pub fn one_of<T: Clone + Debug>(options: Vec<T>) -> OneOf<T> {
    assert!(!options.is_empty(), "one_of needs at least one option");
    OneOf(options)
}

impl<T: Clone + Debug + PartialEq> Gen for OneOf<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        self.0[rng.gen_range(0..self.0.len())].clone()
    }
    fn shrink(&self, value: &T) -> Vec<T> {
        // Earlier options are "simpler"; propose everything before `value`.
        match self.0.iter().position(|o| o == value) {
            Some(0) | None => Vec::new(),
            Some(i) => self.0[..i].to_vec(),
        }
    }
}

/// See [`Gen::prop_map`].
#[derive(Clone)]
pub struct Map<G, F> {
    inner: G,
    f: F,
}

impl<G: Gen, O: Clone + Debug, F: Fn(G::Value) -> O> Gen for Map<G, F> {
    type Value = O;
    fn generate(&self, rng: &mut TestRng) -> O {
        (self.f)(self.inner.generate(rng))
    }
    // Mapped generators cannot shrink (the source is not recoverable
    // from the output); the seed report still replays them exactly.
}

/// Vector generator: element generator + length range.
#[derive(Clone, Debug)]
pub struct VecGen<G> {
    elem: G,
    min_len: usize,
    max_len: usize,
}

/// `Vec` of `elem` values with a length drawn from `len` (half-open).
pub fn vec_of<G: Gen>(elem: G, len: core::ops::Range<usize>) -> VecGen<G> {
    assert!(len.start < len.end, "empty length range");
    VecGen {
        elem,
        min_len: len.start,
        max_len: len.end - 1,
    }
}

impl<G: Gen> Gen for VecGen<G> {
    type Value = Vec<G::Value>;

    fn generate(&self, rng: &mut TestRng) -> Vec<G::Value> {
        let len = rng.gen_range(self.min_len..=self.max_len);
        Iterator::map(0..len, |_| self.elem.generate(rng)).collect()
    }

    fn shrink(&self, value: &Vec<G::Value>) -> Vec<Vec<G::Value>> {
        let mut out = Vec::new();
        let n = value.len();
        // 1. Binary-chop the length: drop the back half, then the front
        //    half, then smaller slices, never going below min_len.
        let mut chop = n / 2;
        while chop > 0 && n - chop >= self.min_len {
            out.push(value[..n - chop].to_vec());
            out.push(value[chop..].to_vec());
            chop /= 2;
        }
        // 2. Shrink a few individual elements (first failing structure
        //    usually lives near the front).
        for i in 0..n.min(8) {
            for replacement in self.elem.shrink(&value[i]).into_iter().take(4) {
                let mut copy = value.clone();
                copy[i] = replacement;
                out.push(copy);
            }
        }
        out
    }
}

impl<G: Gen + ?Sized> Gen for Box<G> {
    type Value = G::Value;
    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        (**self).generate(rng)
    }
    fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
        (**self).shrink(value)
    }
}

macro_rules! impl_gen_tuple {
    ($(($($g:ident / $v:ident / $i:tt),+)),+ $(,)?) => {$(
        impl<$($g: Gen),+> Gen for ($($g,)+) {
            type Value = ($($g::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$i.generate(rng),)+)
            }
            fn shrink(&self, value: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for candidate in self.$i.shrink(&value.$i).into_iter().take(6) {
                        let mut copy = value.clone();
                        copy.$i = candidate;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    )+};
}

impl_gen_tuple!(
    (A / a / 0),
    (A / a / 0, B / b / 1),
    (A / a / 0, B / b / 1, C / c / 2),
    (A / a / 0, B / b / 1, C / c / 2, D / d / 3),
    (A / a / 0, B / b / 1, C / c / 2, D / d / 3, E / e / 4),
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_passes() {
        let result = run(DEFAULT_SEED, 50, 0u64..1000, |v| {
            assert!(v < 1000);
        });
        assert!(matches!(result, RunResult::Passed));
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        // Fails for any v >= 100; minimal counterexample is exactly 100.
        match run(DEFAULT_SEED, 200, 0u64..100_000, |v| {
            assert!(v < 100, "v={v}")
        }) {
            RunResult::Failed {
                seed,
                case,
                original,
                shrunk,
                message,
                ..
            } => {
                assert_eq!(seed, DEFAULT_SEED);
                assert_eq!(shrunk, 100, "binary-search shrink finds the boundary");
                assert!(message.contains("v="), "message: {message}");
                // The reported (seed, case) regenerates the original input.
                let mut rng = case_rng(seed, case);
                assert_eq!((0u64..100_000).generate(&mut rng), original);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn vec_shrinking_chops_length() {
        // Fails when the vec contains any element >= 50.
        match run(DEFAULT_SEED, 200, vec_of(0u64..1000, 0..30), |v| {
            assert!(v.iter().all(|&x| x < 50))
        }) {
            RunResult::Failed { shrunk, .. } => {
                assert!(shrunk.len() <= 2, "shrunk to near-minimal: {shrunk:?}");
                assert!(shrunk.iter().any(|&x| x >= 50));
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            (0..20)
                .map(|case| (0u64..1_000_000).generate(&mut case_rng(DEFAULT_SEED, case)))
                .collect::<Vec<_>>()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn tuple_and_bool_generators() {
        let result = run(
            DEFAULT_SEED,
            64,
            (any_bool(), 0u64..10, 0.0f64..1.0),
            |(b, n, f)| {
                let _ = b;
                assert!(n < 10);
                assert!((0.0..1.0).contains(&f));
            },
        );
        assert!(matches!(result, RunResult::Passed));
    }

    #[test]
    #[should_panic(expected = "property 'must fail'")]
    fn check_panics_with_report() {
        check("must fail", Config::with_cases(32), 0u64..10, |v| {
            assert!(v > 100, "impossible");
        });
    }

    #[test]
    fn overrides_apply_to_every_case_count() {
        // Unset variables keep the default seed and the caller's count.
        assert_eq!(
            resolve(Config::with_cases(3_000), None, None),
            (DEFAULT_SEED, 3_000)
        );
        // A set count wins over an explicit `with_cases`, not only over
        // the default: the printed replay recipe must hold everywhere.
        assert_eq!(
            resolve(Config::with_cases(3_000), Some("0x2a"), Some("3")),
            (42, 3)
        );
        assert_eq!(resolve(Config::default(), Some("17"), None), (17, 64));
        assert_eq!(
            resolve(Config::default(), Some("0X9E1E10BE5EED0001"), Some("1")),
            (DEFAULT_SEED, 1)
        );
    }

    #[test]
    #[should_panic(expected = "PENELOPE_PROP_SEED=\"0x9e1e10be5eed00g1\"")]
    fn a_malformed_seed_override_panics_naming_it() {
        resolve(Config::default(), Some("0x9e1e10be5eed00g1"), None);
    }

    #[test]
    #[should_panic(expected = "PENELOPE_PROP_CASES=\"3k\"")]
    fn a_malformed_case_count_override_panics_naming_it() {
        resolve(Config::default(), None, Some("3k"));
    }
}
