use std::ops::{Range, RangeInclusive};

/// SplitMix64 — the standard 64-bit seed-mixing finalizer.
///
/// Used to derive independent sub-seeds from a master seed; its output is
/// equidistributed over `u64` and a single bit flip in the input avalanches
/// through the whole output.
#[inline]
pub(crate) fn split_mix64(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over a byte string; stable across platforms and releases,
/// used only to turn stream names into seed material (not for hashing
/// attacker-controlled data).
#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The RNG handed out for a named stream.
///
/// A SplitMix64 sequence generator (Vigna): the state walks the golden-ratio
/// Weyl sequence and each output is the SplitMix64 finalizer of the new
/// state, so `StreamRng::seed_from_u64(s).next_u64() == split_mix64(s)`.
/// It is deterministic for a given (master seed, stream name) pair,
/// statistically independent across streams, allocation-free, and has no
/// dependency outside `std`.
///
/// The stream-determinism guarantees of [`RngStreams`] are unchanged from
/// the earlier `rand::rngs::StdRng`-backed implementation: sub-seed
/// derivation (SplitMix64 over the master seed XOR the FNV-1a name hash) is
/// byte-identical, so the same (seed, name) still yields the same stream
/// and adding or reordering streams still never perturbs any other stream.
/// Only the draw values within a stream differ, because the underlying
/// generator changed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamRng {
    state: u64,
}

impl StreamRng {
    /// Deterministically seed a generator from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniformly distributed value of `T` (for `f64`: uniform in `[0, 1)`
    /// with 53 bits of precision).
    #[inline]
    pub fn random<T: RandomValue>(&mut self) -> T {
        T::random_from(self)
    }

    /// A uniformly distributed value in `range`.
    ///
    /// Integer ranges use unbiased rejection sampling (widening
    /// multiplication); float ranges map a 53-bit uniform draw affinely
    /// onto the interval.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    #[inline]
    pub fn random_range<T, R: RandomRange<T>>(&mut self, range: R) -> T {
        range.sample_from(self)
    }

    /// Derive an independently seeded child generator for `stream_id`
    /// without advancing `self`.
    ///
    /// The child seed is `split_mix64(state ^ split_mix64(stream_id))` —
    /// the same derivation [`RngStreams::seed_for_indexed`] uses — so
    /// distinct `stream_id`s avalanche into statistically independent
    /// sequences and forking is associative with manual seed arithmetic.
    /// Use this to hand each cell or client its own stream from one
    /// parent without threading an `RngStreams` everywhere.
    #[inline]
    pub fn fork(&self, stream_id: u64) -> StreamRng {
        StreamRng::seed_from_u64(split_mix64(self.state ^ split_mix64(stream_id)))
    }

    /// Unbiased uniform draw from `[0, span)` for `span >= 1` (Lemire's
    /// widening-multiply rejection method).
    #[inline]
    fn bounded_u64(&mut self, span: u64) -> u64 {
        debug_assert!(span >= 1);
        let mut m = u128::from(self.next_u64()) * u128::from(span);
        let mut low = m as u64;
        if low < span {
            let threshold = span.wrapping_neg() % span;
            while low < threshold {
                m = u128::from(self.next_u64()) * u128::from(span);
                low = m as u64;
            }
        }
        (m >> 64) as u64
    }
}

/// Types that can be drawn uniformly from a [`StreamRng`].
pub trait RandomValue {
    /// Draw one value.
    fn random_from(rng: &mut StreamRng) -> Self;
}

impl RandomValue for u64 {
    #[inline]
    fn random_from(rng: &mut StreamRng) -> Self {
        rng.next_u64()
    }
}

impl RandomValue for u8 {
    #[inline]
    fn random_from(rng: &mut StreamRng) -> Self {
        (rng.next_u64() >> 56) as u8
    }
}

impl RandomValue for bool {
    #[inline]
    fn random_from(rng: &mut StreamRng) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

impl RandomValue for f64 {
    /// Uniform in `[0, 1)`: the top 53 bits scaled by 2⁻⁵³.
    #[inline]
    fn random_from(rng: &mut StreamRng) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Ranges that [`StreamRng::random_range`] can sample uniformly.
pub trait RandomRange<T> {
    /// Draw one value from the range.
    fn sample_from(self, rng: &mut StreamRng) -> T;
}

macro_rules! impl_int_range {
    ($($t:ty),*) => {$(
        impl RandomRange<$t> for Range<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StreamRng) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as u64) - (self.start as u64);
                self.start + rng.bounded_u64(span) as $t
            }
        }

        impl RandomRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample_from(self, rng: &mut StreamRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "cannot sample empty range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full u64 domain: every output is in range.
                    return rng.next_u64() as $t;
                }
                lo + rng.bounded_u64(span) as $t
            }
        }
    )*};
}

impl_int_range!(u8, u32, u64, usize);

impl RandomRange<f64> for Range<f64> {
    #[inline]
    fn sample_from(self, rng: &mut StreamRng) -> f64 {
        assert!(self.start < self.end, "cannot sample empty range");
        let u: f64 = rng.random();
        self.start + u * (self.end - self.start)
    }
}

impl RandomRange<f64> for RangeInclusive<f64> {
    #[inline]
    fn sample_from(self, rng: &mut StreamRng) -> f64 {
        let (lo, hi) = (*self.start(), *self.end());
        assert!(lo <= hi, "cannot sample empty range");
        let u: f64 = rng.random();
        (lo + u * (hi - lo)).min(hi)
    }
}

/// A factory of named, independently seeded random streams.
///
/// Every stochastic component in the simulator draws from its own named
/// stream (`"requests"`, `"updates"`, `"sizes"`, …). Because each stream's
/// seed depends only on the master seed and the stream's name, adding a
/// new stream — or reordering draws in one component — never perturbs any
/// other component. This is what makes the paired comparisons in the
/// paper's Section 3.2 ("both simulations used the same set of randomly
/// generated client requests") trivially sound: both policies replay the
/// identical `"requests"` stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RngStreams {
    master: u64,
}

impl RngStreams {
    /// Create a factory from a master seed.
    pub fn new(master_seed: u64) -> Self {
        Self {
            master: master_seed,
        }
    }

    /// Derive the sub-seed for a named stream.
    pub fn seed_for(&self, name: &str) -> u64 {
        split_mix64(self.master ^ fnv1a(name.as_bytes()))
    }

    /// Derive the sub-seed for a named, indexed stream (e.g. one stream
    /// per client or per server).
    pub fn seed_for_indexed(&self, name: &str, index: u64) -> u64 {
        split_mix64(self.seed_for(name) ^ split_mix64(index))
    }

    /// A fresh RNG for a named stream.
    pub fn stream(&self, name: &str) -> StreamRng {
        StreamRng::seed_from_u64(self.seed_for(name))
    }

    /// A fresh RNG for a named, indexed stream.
    pub fn stream_indexed(&self, name: &str, index: u64) -> StreamRng {
        StreamRng::seed_from_u64(self.seed_for_indexed(name, index))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_same_draws() {
        let streams = RngStreams::new(42);
        let (mut a, mut b) = (streams.stream("requests"), streams.stream("requests"));
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_names_differ() {
        let streams = RngStreams::new(42);
        let a: u64 = streams.stream("requests").random();
        let b: u64 = streams.stream("updates").random();
        assert_ne!(a, b);
    }

    #[test]
    fn different_masters_differ() {
        let a: u64 = RngStreams::new(1).stream("x").random();
        let b: u64 = RngStreams::new(2).stream("x").random();
        assert_ne!(a, b);
    }

    #[test]
    fn indexed_streams_are_distinct() {
        let streams = RngStreams::new(7);
        let a: u64 = streams.stream_indexed("client", 0).random();
        let b: u64 = streams.stream_indexed("client", 1).random();
        assert_ne!(a, b);
        assert_ne!(
            streams.seed_for_indexed("client", 0),
            streams.seed_for("client")
        );
    }

    #[test]
    fn forked_streams_do_not_overlap() {
        // 16 forks of one parent: the first 1k draws of every fork must
        // be pairwise distinct (and distinct from the parent's draws).
        use std::collections::HashSet;
        let parent = RngStreams::new(1234).stream("cluster");
        let mut seen: HashSet<u64> = HashSet::new();
        let mut p = parent.clone();
        for _ in 0..1000 {
            assert!(seen.insert(p.next_u64()), "parent draw collided");
        }
        for stream_id in 0..16u64 {
            let mut child = parent.fork(stream_id);
            for draw in 0..1000 {
                assert!(
                    seen.insert(child.next_u64()),
                    "fork {stream_id} draw {draw} overlaps another stream"
                );
            }
        }
        assert_eq!(seen.len(), 17_000);
    }

    #[test]
    fn fork_does_not_advance_the_parent() {
        let mut a = RngStreams::new(7).stream("x");
        let mut b = a.clone();
        let _ = a.fork(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_matches_indexed_seed_derivation() {
        // Forking a fresh named stream at `i` equals the factory's
        // indexed derivation for the same name and index.
        let streams = RngStreams::new(55);
        let forked = streams.stream("client").fork(9);
        let indexed = streams.stream_indexed("client", 9);
        assert_eq!(forked, indexed);
    }

    #[test]
    fn split_mix64_known_vectors() {
        // Reference values from the canonical SplitMix64 implementation
        // (Vigna), seeding state 0 and 1.
        assert_eq!(split_mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(split_mix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn first_output_matches_the_mixer() {
        // The generator is the SplitMix64 sequence: the first draw from
        // seed `s` is exactly `split_mix64(s)`.
        for s in [0u64, 1, 42, u64::MAX] {
            assert_eq!(StreamRng::seed_from_u64(s).next_u64(), split_mix64(s));
        }
    }

    #[test]
    fn stream_independence_under_extra_draws() {
        // Drawing more from one stream must not change another stream.
        let streams = RngStreams::new(99);
        let mut a = streams.stream("a");
        let before: u64 = streams.stream("b").random();
        for _ in 0..1000 {
            let _: u64 = a.random();
        }
        let after: u64 = streams.stream("b").random();
        assert_eq!(before, after);
    }

    #[test]
    fn unit_floats_lie_in_the_half_open_interval() {
        let mut rng = RngStreams::new(5).stream("f");
        let mut min = 1.0f64;
        let mut max = 0.0f64;
        for _ in 0..100_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x), "{x}");
            min = min.min(x);
            max = max.max(x);
        }
        assert!(min < 0.01 && max > 0.99, "poor coverage: [{min}, {max}]");
    }

    #[test]
    fn integer_ranges_hit_every_value() {
        let mut rng = RngStreams::new(11).stream("r");
        let mut seen = [0u32; 7];
        for _ in 0..10_000 {
            seen[rng.random_range(0..7usize)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 1000), "{seen:?}");
        let mut seen = [0u32; 7];
        for _ in 0..10_000 {
            seen[rng.random_range(0..=6usize)] += 1;
        }
        assert!(seen.iter().all(|&c| c > 1000), "{seen:?}");
    }

    #[test]
    fn inclusive_integer_range_includes_both_endpoints() {
        let mut rng = RngStreams::new(13).stream("r");
        let (mut lo_hit, mut hi_hit) = (false, false);
        for _ in 0..1000 {
            match rng.random_range(3u32..=5) {
                3 => lo_hit = true,
                5 => hi_hit = true,
                4 => {}
                other => panic!("{other} out of range"),
            }
        }
        assert!(lo_hit && hi_hit);
    }

    #[test]
    fn full_u64_inclusive_range_does_not_panic() {
        let mut rng = RngStreams::new(17).stream("r");
        let _: u64 = rng.random_range(0..=u64::MAX);
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = RngStreams::new(19).stream("r");
        for _ in 0..10_000 {
            let x = rng.random_range(0.4f64..=1.0);
            assert!((0.4..=1.0).contains(&x), "{x}");
            let y = rng.random_range(-2.0f64..3.0);
            assert!((-2.0..3.0).contains(&y), "{y}");
        }
    }

    #[test]
    fn single_point_inclusive_range_returns_the_point() {
        let mut rng = RngStreams::new(23).stream("r");
        assert_eq!(rng.random_range(9u64..=9), 9);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = RngStreams::new(29).stream("r");
        let _ = rng.random_range(5u32..5);
    }
}
