//! Minimal deterministic property-test harness.
//!
//! A fixed-iteration, seed-reporting, shrinking property runner with no
//! dependencies outside this crate. It exists so the workspace's property
//! suites run offline; the `proptest!` versions of the same suites run
//! next to them through the in-tree `proptest` shim, which is backed by
//! this harness.
//!
//! Model: a [`Gen`] produces values from a [`TestRng`] and can propose
//! *simpler* candidate values for a failing input (integers binary-search
//! toward their lower bound, vectors binary-chop their length, tuples
//! shrink element-wise). [`check`] runs a property over `cases`
//! generated inputs; on failure it shrinks, then panics with the seed,
//! the case index and the shrunken input so the exact failure replays
//! with [`replay`].
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

/// Harness configuration: number of cases, base seed, shrink budget.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// How many generated inputs to test.
    pub cases: u32,
    /// Base seed; each case derives its own stream from `(seed, case)`.
    pub seed: u64,
    /// Upper bound on shrink attempts after the first failure.
    pub max_shrink_iters: u32,
}

/// Arbitrary but fixed default seed ("PENELOPE SEED 1").
pub const DEFAULT_SEED: u64 = 0x9E1E_10BE_5EED_0001;

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            seed: DEFAULT_SEED,
            max_shrink_iters: 512,
        }
    }
}

impl Config {
    /// `cases` tests with everything else defaulted.
    pub fn with_cases(cases: u32) -> Self {
        Config {
            cases,
            ..Config::default()
        }
    }

    /// Override the base seed (e.g. to replay a reported failure).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Honour `PENELOPE_PROP_SEED` / `PENELOPE_PROP_CASES` overrides so a
    /// reported failure reproduces without editing code.
    pub fn from_env() -> Self {
        let mut cfg = Config::default();
        if let Ok(s) = std::env::var("PENELOPE_PROP_SEED") {
            if let Ok(seed) = parse_u64(&s) {
                cfg.seed = seed;
            }
        }
        if let Ok(s) = std::env::var("PENELOPE_PROP_CASES") {
            if let Ok(cases) = s.parse() {
                cfg.cases = cases;
            }
        }
        cfg
    }
}

fn parse_u64(s: &str) -> Result<u64, std::num::ParseIntError> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
}

/// The RNG stream for one `(seed, case)` pair — the unit of replay.
pub fn case_rng(seed: u64, case: u32) -> TestRng {
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
pub enum RunResult<V> {
    /// Every case passed.
    Passed {
        /// Number of cases executed.
        cases: u32,
    },
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

impl<V> RunResult<V> {
    /// True if every case passed.
    pub fn passed(&self) -> bool {
        matches!(self, RunResult::Passed { .. })
    }
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

/// Run `property` over `cfg.cases` generated inputs; return the outcome
/// instead of panicking. This is the entry point for tests *about* the
/// harness (e.g. asserting that an injected bug is caught and which seed
/// reproduces it); ordinary tests use [`check`].
pub fn run<G: Gen, F: Fn(G::Value)>(cfg: Config, gen: G, property: F) -> RunResult<G::Value> {
    for case in 0..cfg.cases {
        let mut rng = case_rng(cfg.seed, case);
        let value = gen.generate(&mut rng);
        if let Some(first_msg) = fails(&property, value.clone()) {
            let (shrunk, shrink_steps, message) = shrink_failure(
                &gen,
                &property,
                value.clone(),
                first_msg,
                cfg.max_shrink_iters,
            );
            return RunResult::Failed {
                seed: cfg.seed,
                case,
                original: value,
                shrunk,
                shrink_steps,
                message,
            };
        }
    }
    RunResult::Passed { cases: cfg.cases }
}

fn shrink_failure<G: Gen, F: Fn(G::Value)>(
    gen: &G,
    property: &F,
    mut current: G::Value,
    mut message: String,
    budget: u32,
) -> (G::Value, u32, String) {
    let mut steps = 0;
    let mut spent = 0;
    'outer: while spent < budget {
        for candidate in gen.shrink(&current) {
            spent += 1;
            if let Some(msg) = fails(property, candidate.clone()) {
                current = candidate;
                message = msg;
                steps += 1;
                continue 'outer;
            }
            if spent >= budget {
                break;
            }
        }
        break;
    }
    (current, steps, message)
}

/// Run a property and panic with a replayable report on failure.
///
/// The panic message carries the seed, case index and shrunken input;
/// re-run just that input with [`replay`], or the whole suite with
/// `PENELOPE_PROP_SEED=<seed>`.
pub fn check<G: Gen, F: Fn(G::Value)>(name: &str, cfg: Config, gen: G, property: F) {
    match run(cfg, gen, property) {
        RunResult::Passed { .. } => {}
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
                 replay: prop::replay({seed:#x}, {case}, gen, property) or \
                 PENELOPE_PROP_SEED={seed:#x} PENELOPE_PROP_CASES={n} cargo test",
                n = case + 1,
            );
        }
    }
}

/// Re-run exactly one `(seed, case)` input through `property`.
pub fn replay<G: Gen, F: Fn(G::Value)>(seed: u64, case: u32, gen: G, property: F) {
    let mut rng = case_rng(seed, case);
    let value = gen.generate(&mut rng);
    property(value);
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

/// Always produce `value`.
#[derive(Clone, Copy, Debug)]
pub struct Just<T: Clone + Debug>(pub T);

impl<T: Clone + Debug> Gen for Just<T> {
    type Value = T;
    fn generate(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
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

/// See [`Gen::map`].
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
        let result = run(Config::with_cases(50), 0u64..1000, |v| {
            assert!(v < 1000);
        });
        assert!(result.passed());
    }

    #[test]
    fn failure_reports_seed_and_shrinks() {
        // Fails for any v >= 100; minimal counterexample is exactly 100.
        let cfg = Config::with_cases(200);
        match run(cfg, 0u64..100_000, |v| assert!(v < 100, "v={v}")) {
            RunResult::Failed {
                seed,
                case,
                shrunk,
                message,
                ..
            } => {
                assert_eq!(seed, cfg.seed);
                assert_eq!(shrunk, 100, "binary-search shrink finds the boundary");
                assert!(message.contains("v="), "message: {message}");
                // The reported (seed, case) replays the original failure.
                let mut rng = case_rng(seed, case);
                let replayed = (0u64..100_000).generate(&mut rng);
                assert!(replayed >= 100);
            }
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn vec_shrinking_chops_length() {
        // Fails when the vec contains any element >= 50.
        match run(Config::with_cases(200), vec_of(0u64..1000, 0..30), |v| {
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
            let mut seen = Vec::new();
            let result = run(Config::with_cases(20), 0u64..1_000_000, |v| {
                // Property that always passes; we only record inputs.
                let _ = v;
            });
            assert!(result.passed());
            for case in 0..20 {
                let mut rng = case_rng(Config::default().seed, case);
                seen.push((0u64..1_000_000).generate(&mut rng));
            }
            seen
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn tuple_and_bool_generators() {
        let result = run(
            Config::with_cases(64),
            (any_bool(), 0u64..10, 0.0f64..1.0),
            |(b, n, f)| {
                let _ = b;
                assert!(n < 10);
                assert!((0.0..1.0).contains(&f));
            },
        );
        assert!(result.passed());
    }

    #[test]
    #[should_panic(expected = "property 'must fail'")]
    fn check_panics_with_report() {
        check("must fail", Config::with_cases(32), 0u64..10, |v| {
            assert!(v > 100, "impossible");
        });
    }

    #[test]
    fn replay_reproduces() {
        // Find a failing (seed, case) via run(), then replay it.
        let cfg = Config::with_cases(64);
        if let RunResult::Failed { seed, case, .. } = run(cfg, 0u64..1000, |v| assert!(v < 500)) {
            let outcome = std::panic::catch_unwind(|| {
                replay(seed, case, 0u64..1000, |v| assert!(v < 500));
            });
            assert!(outcome.is_err(), "replay must reproduce the failure");
        } else {
            panic!("expected a failure within 64 cases");
        }
    }
}
