//! A tiny, dependency-free pseudo-random number generator.
//!
//! The offline build cannot resolve the `rand` or `proptest` crates, so the
//! workload generators and the randomized test suites run on this in-tree
//! xorshift generator instead. The API mirrors the subset of `rand` the
//! repo used (`seed_from_u64`, `random_range`, `random_bool`) so call sites
//! read the same, and the generator is deterministic per seed so every
//! dataset and test case is reproducible from its seed alone.
//!
//! The core is xorshift64* (Vigna, "An experimental exploration of
//! Marsaglia's xorshift generators, scrambled"): a 64-bit xorshift state
//! followed by a multiplicative scramble. It is not cryptographic — it is a
//! fast, well-distributed source of test entropy.

/// Deterministic xorshift64* generator.
#[derive(Debug, Clone)]
pub struct XorShiftRng {
    state: u64,
}

impl XorShiftRng {
    /// Build a generator from a 64-bit seed. Any seed is accepted; zero is
    /// remapped (an all-zero xorshift state would be a fixed point) and the
    /// seed is pre-mixed with splitmix64 so nearby seeds diverge instantly.
    pub fn seed_from_u64(seed: u64) -> Self {
        // splitmix64 finalizer to spread low-entropy seeds across the state.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        XorShiftRng {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    /// Next raw 64 bits.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform `f64` in `[0, 1)` from the top 53 bits.
    fn random_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn random_bool(&mut self, p: f64) -> bool {
        self.random_f64() < p
    }

    /// Uniform draw from a half-open range, generic over the integer types
    /// the workloads use. Panics on an empty range, matching `rand`.
    pub fn random_range<T: SampleRange>(&mut self, range: std::ops::Range<T>) -> T {
        T::sample(self, range)
    }

    /// Uniform index into a slice-sized domain; `None` for an empty domain.
    pub fn choose_index(&mut self, len: usize) -> Option<usize> {
        if len == 0 {
            None
        } else {
            Some(self.random_range(0..len))
        }
    }
}

/// Integer types [`XorShiftRng::random_range`] can sample uniformly.
pub trait SampleRange: Sized {
    /// Draw one value uniformly from `range`.
    fn sample(rng: &mut XorShiftRng, range: std::ops::Range<Self>) -> Self;
}

/// Uniform draw in `[0, span)` without modulo bias (Lemire-style widening
/// multiply with rejection).
fn sample_span(rng: &mut XorShiftRng, span: u64) -> u64 {
    debug_assert!(span > 0);
    // Rejection zone: values below `threshold` would be over-represented.
    let threshold = span.wrapping_neg() % span;
    loop {
        let x = rng.next_u64();
        let m = (x as u128) * (span as u128);
        if (m as u64) >= threshold {
            return (m >> 64) as u64;
        }
    }
}

macro_rules! impl_sample_unsigned {
    ($($t:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut XorShiftRng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end - range.start) as u64;
                range.start + sample_span(rng, span) as $t
            }
        }
    )*};
}

macro_rules! impl_sample_signed {
    ($($t:ty => $u:ty),*) => {$(
        impl SampleRange for $t {
            fn sample(rng: &mut XorShiftRng, range: std::ops::Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as $u).wrapping_sub(range.start as $u) as u64;
                (range.start as $u).wrapping_add(sample_span(rng, span) as $u) as $t
            }
        }
    )*};
}

impl_sample_unsigned!(usize, u64, u32, u16, u8);
impl_sample_signed!(i64 => u64, i32 => u32, i16 => u16, i8 => u8);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = XorShiftRng::seed_from_u64(42);
        let mut b = XorShiftRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = XorShiftRng::seed_from_u64(1);
        let mut b = XorShiftRng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn zero_seed_is_usable() {
        let mut r = XorShiftRng::seed_from_u64(0);
        let x = r.next_u64();
        let y = r.next_u64();
        assert_ne!(x, y);
    }

    #[test]
    fn range_bounds_respected() {
        let mut r = XorShiftRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let v = r.random_range(10..20usize);
            assert!((10..20).contains(&v));
            let v = r.random_range(-5..5i64);
            assert!((-5..5).contains(&v));
            let v = r.random_range(1950..2024i32);
            assert!((1950..2024).contains(&v));
            let v = r.random_range(0..1u64);
            assert_eq!(v, 0);
        }
    }

    #[test]
    fn range_covers_domain() {
        let mut r = XorShiftRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[r.random_range(0..8usize)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn bool_probability_roughly_holds() {
        let mut r = XorShiftRng::seed_from_u64(13);
        let hits = (0..10_000).filter(|_| r.random_bool(0.25)).count();
        assert!((2_000..3_000).contains(&hits), "hits {hits}");
    }

    #[test]
    fn signed_full_width_range() {
        let mut r = XorShiftRng::seed_from_u64(17);
        for _ in 0..1_000 {
            let v = r.random_range(i64::MIN..i64::MAX);
            assert!(v < i64::MAX);
        }
    }
}
