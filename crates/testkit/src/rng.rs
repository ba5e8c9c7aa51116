//! Deterministic pseudo-random numbers without external crates.
//!
//! The generator is xoshiro256** (Blackman & Vigna), seeded through
//! SplitMix64 so that any 64-bit seed — including 0 — expands into a
//! well-mixed 256-bit state. Both algorithms are public domain and tiny,
//! which is the point: every random choice in the workspace (peer
//! selection, latency sampling, workload synthesis, property-test inputs)
//! flows through this module, so a single `u64` seed reproduces any run
//! on any machine with no registry access.
//!
//! The API mirrors the small slice of `rand` the codebase actually uses
//! (`gen_range`, `gen_bool`, `seed_from_u64`, Fisher–Yates `shuffle`), so
//! call sites read identically whether they use this module or the
//! in-tree `rand` compatibility shim that re-exports it.

/// SplitMix64 step: advances `state` and returns the next output.
///
/// Used for seed expansion ([`TestRng::seed_from_u64`]); it is a bijection
/// on `u64` with good avalanche, so nearby seeds produce unrelated states.
#[inline]
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the seed of node `idx`'s independent stream from a `master` seed.
///
/// The one per-node stream derivation in the workspace: the simulators,
/// the multiplexed daemon, the per-node daemon and the socket shim's
/// per-direction fault streams all seed through it, so two substrates
/// handed the same master seed draw the same per-node streams — which is
/// what lets the simulator and the daemon leg emit equal protocol-event
/// streams per seed. A xor-multiply: [`TestRng::seed_from_u64`]'s
/// SplitMix64 expansion does the mixing.
#[inline]
pub fn node_seed(master: u64, idx: u64) -> u64 {
    master
        ^ idx
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(0xD1B5_4A32_D192_ED03)
}

/// The workspace PRNG: xoshiro256** with SplitMix64 seeding.
///
/// Not cryptographically secure — it drives simulations and tests, not
/// keys. Equality of seeds implies equality of streams, which is the
/// property every reproducibility claim in this repo rests on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestRng {
    s: [u64; 4],
}

impl TestRng {
    /// Build a generator from a 64-bit seed via SplitMix64 expansion.
    ///
    /// Mirrors `rand::SeedableRng::seed_from_u64` so call sites are
    /// drop-in compatible.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        TestRng { s }
    }

    #[inline]
    fn next_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }
}

impl Rng for TestRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.next_raw()
    }
}

/// The randomness seam of `penelope_core`'s [`NodeEngine`]
/// (`penelope_core::EngineRng`), implemented by literal delegation to
/// [`Rng::gen_range`] / [`Rng::gen_bool`]: an engine draw consumes
/// exactly the same generator positions the historical inline protocol
/// code did, so recorded seeds replay byte-identically through the
/// engine.
///
/// [`NodeEngine`]: penelope_core::engine::NodeEngine
impl penelope_core::EngineRng for TestRng {
    #[inline]
    fn gen_index(&mut self, upper: usize) -> usize {
        self.gen_range(0..upper)
    }

    #[inline]
    fn gen_chance(&mut self, p: f64) -> bool {
        self.gen_bool(p)
    }
}

/// The uniform-sampling surface used across the workspace.
///
/// Mirrors the `rand::Rng` methods the codebase calls, with the same
/// semantics: `gen_range` takes half-open or inclusive ranges over the
/// integer and float types, `gen_bool(p)` is a Bernoulli draw, and
/// `shuffle` is an in-place Fisher–Yates. Generic over `?Sized` so
/// `&mut R` passing works exactly as with `rand`.
pub trait Rng {
    /// Next 64 uniformly distributed bits.
    fn next_u64(&mut self) -> u64;

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → [0,1) on the standard dyadic grid.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample from `range`. Panics on an empty range.
    #[inline]
    fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample_from(self)
    }

    /// `true` with probability `p`. Panics unless `0 ≤ p ≤ 1`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool p={p} out of [0,1]");
        self.next_f64() < p
    }

    /// In-place Fisher–Yates shuffle.
    #[inline]
    fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = uniform_u64(self, i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }
}

impl<R: Rng + ?Sized> Rng for &mut R {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
}

/// Unbiased uniform draw from `[0, span)`; `span == 0` means the full
/// 2^64 range. Rejection sampling on the modulus threshold.
#[inline]
fn uniform_u64<R: Rng + ?Sized>(rng: &mut R, span: u64) -> u64 {
    if span == 0 {
        return rng.next_u64();
    }
    // Values below `threshold` would bias the modulus; reject them.
    let threshold = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        if x >= threshold {
            return x % span;
        }
    }
}

/// A range that can be sampled uniformly — implemented for `Range` and
/// `RangeInclusive` over the primitive integers and floats.
pub trait SampleRange {
    /// The sampled value type.
    type Output;
    /// Draw one uniform sample. Panics on an empty range.
    fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> Self::Output;
}

macro_rules! impl_sample_uint {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range {}..{}", self.start, self.end);
                let span = (self.end - self.start) as u64;
                self.start + uniform_u64(rng, span) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range {lo}..={hi}");
                // hi - lo + 1 overflows to 0 on the full domain; that is
                // exactly the "full range" encoding uniform_u64 expects.
                let span = (hi - lo) as u64;
                lo + uniform_u64(rng, span.wrapping_add(1)) as $t
            }
        }
    )*};
}

impl_sample_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_int {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "empty range {}..{}", self.start, self.end);
                let span = (self.end as $u).wrapping_sub(self.start as $u) as u64;
                (self.start as $u).wrapping_add(uniform_u64(rng, span) as $u) as $t
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty range {lo}..={hi}");
                let span = ((hi as $u).wrapping_sub(lo as $u) as u64).wrapping_add(1);
                (lo as $u).wrapping_add(uniform_u64(rng, span) as $u) as $t
            }
        }
    )*};
}

impl_sample_int!(i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize);

macro_rules! impl_sample_float {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                assert!(
                    self.start < self.end && self.start.is_finite() && self.end.is_finite(),
                    "bad float range {}..{}", self.start, self.end
                );
                let f = rng.next_f64() as $t;
                let v = self.start + f * (self.end - self.start);
                // Guard the open upper bound against rounding.
                if v >= self.end { self.start } else { v }
            }
        }
        impl SampleRange for core::ops::RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: Rng + ?Sized>(self, rng: &mut R) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi && lo.is_finite() && hi.is_finite(), "bad float range {lo}..={hi}");
                let f = rng.next_f64() as $t;
                lo + f * (hi - lo)
            }
        }
    )*};
}

impl_sample_float!(f32, f64);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = TestRng::seed_from_u64(42);
        let mut b = TestRng::seed_from_u64(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = TestRng::seed_from_u64(1);
        let mut b = TestRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn zero_seed_is_fine() {
        let mut r = TestRng::seed_from_u64(0);
        // SplitMix64 expansion never yields the forbidden all-zero state.
        assert!(r.s.iter().any(|&w| w != 0));
        let first = r.next_u64();
        assert_ne!(first, r.next_u64());
    }

    #[test]
    fn known_vector_xoshiro256starstar() {
        // Reference: xoshiro256** with state {1,2,3,4} produces 11520 first.
        let mut r = TestRng { s: [1, 2, 3, 4] };
        assert_eq!(r.next_u64(), 11520);
        assert_eq!(r.next_u64(), 0);
        assert_eq!(r.next_u64(), 1509978240);
        assert_eq!(r.next_u64(), 1215971899390074240);
        assert_eq!(r.next_u64(), 1216172134540287360);
        assert_eq!(r.next_u64(), 607988272756665600);
    }

    #[test]
    fn gen_range_bounds_and_coverage() {
        let mut r = TestRng::seed_from_u64(7);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let v = r.gen_range(0u64..10);
            assert!(v < 10);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all buckets hit");
        for _ in 0..1000 {
            let v = r.gen_range(5usize..=9);
            assert!((5..=9).contains(&v));
        }
        // Degenerate inclusive range.
        assert_eq!(r.gen_range(3u32..=3), 3);
        // Signed.
        for _ in 0..100 {
            let v = r.gen_range(-5i64..5);
            assert!((-5..5).contains(&v));
        }
    }

    #[test]
    fn gen_range_floats() {
        let mut r = TestRng::seed_from_u64(9);
        let mut sum = 0.0;
        for _ in 0..4096 {
            let v = r.gen_range(0.0f64..1.0);
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 4096.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        let v = r.gen_range(f64::EPSILON..1.0);
        assert!(v > 0.0 && v < 1.0);
    }

    #[test]
    fn gen_bool_probability() {
        let mut r = TestRng::seed_from_u64(3);
        let hits = (0..10_000).filter(|_| r.gen_bool(0.25)).count();
        assert!((hits as f64 / 10_000.0 - 0.25).abs() < 0.02, "{hits}");
        assert!(!r.gen_bool(0.0));
        assert!(r.gen_bool(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = TestRng::seed_from_u64(5);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, sorted, "50 elements virtually never shuffle to identity");
    }

    #[test]
    fn node_streams_are_independent() {
        let a = node_seed(42, 0);
        let b = node_seed(42, 1);
        let c = node_seed(43, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut ra = TestRng::seed_from_u64(a);
        let mut rb = TestRng::seed_from_u64(b);
        let same = (0..64).filter(|_| ra.next_u64() == rb.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn trait_object_style_generic_passing() {
        fn sample_via_generic<R: Rng + ?Sized>(rng: &mut R) -> u64 {
            rng.gen_range(0u64..100)
        }
        let mut r = TestRng::seed_from_u64(1);
        let v = sample_via_generic(&mut r);
        assert!(v < 100);
    }
}
