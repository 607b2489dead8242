//! Rank-popularity models.
//!
//! Figure 2 compares three client access patterns over 500 objects:
//! uniform, "skewed (uniform)" and Zipf. Ranks are `0..n` with rank 0 the
//! most popular object; object ids coincide with ranks in the generated
//! populations (the correlation machinery permutes attributes, not ids).

use basecache_sim::StreamRng;

/// A named popularity model over `n` ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Popularity {
    /// Every object equally likely — the paper's solid curve.
    Uniform,
    /// Mild linear skew: `p(rank i) ∝ n − i`. This realizes the paper's
    /// "skewed uniformly" pattern (the OCR of the text garbles the
    /// proportionality; a popularity must decay with rank, and linear
    /// decay is the canonical mild skew sitting between uniform and Zipf,
    /// matching the curve ordering in Figure 2).
    LinearSkew,
    /// Zipf: `p(rank i) ∝ 1/(i+1)^theta`; the paper uses `theta = 1`.
    Zipf {
        /// Skew exponent; larger is more skewed.
        theta: f64,
    },
}

impl Popularity {
    /// The paper's Zipf pattern (`θ = 1`).
    pub const ZIPF1: Popularity = Popularity::Zipf { theta: 1.0 };

    /// Materialize the model over `n` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or for Zipf if `theta` is not finite and
    /// non-negative.
    pub fn build(self, n: usize) -> PopularityDist {
        assert!(n > 0, "popularity over zero objects is meaningless");
        let weights: Vec<f64> = match self {
            Popularity::Uniform => vec![1.0; n],
            Popularity::LinearSkew => (0..n).map(|i| (n - i) as f64).collect(),
            Popularity::Zipf { theta } => {
                assert!(
                    theta.is_finite() && theta >= 0.0,
                    "zipf exponent must be finite and non-negative"
                );
                (0..n).map(|i| 1.0 / ((i + 1) as f64).powf(theta)).collect()
            }
        };
        PopularityDist::from_weights(&weights)
    }
}

/// Entries of the sampler's branch-free window; `cumulative` carries as
/// many `+∞` past its last rank, so a window never runs off its end.
const WINDOW: usize = 8;

/// A materialized popularity distribution: per-rank probabilities plus a
/// cumulative table inverted through a guide table.
///
/// A draw `u ∈ [0, 1)` maps to the first rank whose cumulative exceeds
/// `u` — what a binary search of the cumulative returns. The guide
/// splits `[0, 1]` into `K = n.next_power_of_two()` buckets and stores,
/// for each edge `k/K`, the first rank whose cumulative exceeds it.
/// Every step returns the rank the binary search would:
///
/// - `u·K` is exact because `K` is a power of two, so `k = ⌊u·K⌋`
///   satisfies `k/K ≤ u < (k+1)/K` and the answer lies in
///   `guide[k]..=guide[k+1]`;
/// - counting the entries `≤ u` in the `WINDOW` cumulatives from
///   `guide[k]` on (branch-free; the `+∞` padding never counts) lands
///   on the answer whenever the count stops short of the window;
/// - only a bucket wider than the window — the long, flat tail of a
///   steep Zipf — finishes with a binary search of the bucket's rest.
///
/// The guide holds `K + 1 ≤ 2n + 1` ranks, built by one merge of the
/// edges against the cumulative.
#[derive(Debug, Clone, PartialEq)]
pub struct PopularityDist {
    probs: Vec<f64>,
    /// Running sums of `probs`, then `WINDOW` entries of `+∞`.
    cumulative: Vec<f64>,
    /// `guide[k]`: the first rank whose cumulative exceeds `k/K`, for
    /// `k` in `0..=K`.
    guide: Vec<u32>,
}

impl PopularityDist {
    /// Normalize arbitrary non-negative weights into a distribution.
    ///
    /// # Panics
    ///
    /// Panics on empty input, negative/non-finite weights, weights whose
    /// sum overflows, or an all-zero weight vector.
    pub fn from_weights(weights: &[f64]) -> Self {
        assert!(!weights.is_empty(), "need at least one weight");
        let mut total = 0.0;
        for &w in weights {
            assert!(
                w.is_finite() && w >= 0.0,
                "weights must be finite and non-negative"
            );
            total += w;
        }
        assert!(total.is_finite(), "weights must have a finite sum");
        assert!(total > 0.0, "weights must not all be zero");
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let n = probs.len();
        let mut cumulative = Vec::with_capacity(n + WINDOW);
        let mut acc = 0.0;
        cumulative.extend(probs.iter().map(|&p| {
            acc += p;
            acc
        }));
        cumulative.extend([f64::INFINITY; WINDOW]);
        let buckets = n.next_power_of_two();
        let mut rank = 0;
        let guide = (0..=buckets)
            .map(|k| {
                let edge = k as f64 / buckets as f64;
                while rank < n && cumulative[rank] <= edge {
                    rank += 1;
                }
                u32::try_from(rank).expect("popularity ranks fit in u32")
            })
            .collect();
        Self {
            probs,
            cumulative,
            guide,
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the distribution is empty (never: construction forbids it).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// Probability of each rank.
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut StreamRng) -> usize {
        self.rank_of(rng.random())
    }

    /// The first rank whose cumulative exceeds `u ∈ [0, 1)`, clamped to
    /// the last rank (the final cumulative is 1.0 only up to rounding).
    fn rank_of(&self, u: f64) -> usize {
        let buckets = self.guide.len() - 1;
        let k = (u * buckets as f64) as usize;
        let lo = self.guide[k] as usize;
        let below: usize = self.cumulative[lo..][..WINDOW]
            .iter()
            .map(|&c| usize::from(c <= u))
            .sum();
        let mut rank = lo + below;
        if below == WINDOW {
            let hi = self.guide[k + 1] as usize;
            rank += self.cumulative[rank..hi].partition_point(|&c| c <= u);
        }
        rank.min(self.probs.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_sim::RngStreams;

    fn rng() -> StreamRng {
        RngStreams::new(11).stream("pop")
    }

    #[test]
    fn uniform_probabilities_are_equal() {
        let d = Popularity::Uniform.build(4);
        for &p in d.probabilities() {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_skew_decays_linearly() {
        let d = Popularity::LinearSkew.build(3);
        // Weights 3,2,1 → probs 1/2, 1/3, 1/6.
        let p = d.probabilities();
        assert!((p[0] - 0.5).abs() < 1e-12);
        assert!((p[1] - 1.0 / 3.0).abs() < 1e-12);
        assert!((p[2] - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn zipf_matches_harmonic_weights() {
        let d = Popularity::ZIPF1.build(3);
        let h = 1.0 + 0.5 + 1.0 / 3.0;
        let p = d.probabilities();
        assert!((p[0] - 1.0 / h).abs() < 1e-12);
        assert!((p[2] - 1.0 / 3.0 / h).abs() < 1e-12);
    }

    #[test]
    fn probabilities_sum_to_one() {
        for pop in [
            Popularity::Uniform,
            Popularity::LinearSkew,
            Popularity::Zipf { theta: 0.8 },
        ] {
            let d = pop.build(500);
            let sum: f64 = d.probabilities().iter().sum();
            assert!((sum - 1.0).abs() < 1e-9, "{pop:?}");
        }
    }

    #[test]
    fn sampling_respects_skew() {
        let d = Popularity::ZIPF1.build(100);
        let mut r = rng();
        let mut counts = vec![0u32; 100];
        for _ in 0..50_000 {
            counts[d.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[10], "rank 0 must dominate rank 10");
        assert!(counts[10] > counts[90], "rank 10 must dominate rank 90");
        // Empirical frequency of rank 0 near its probability (~0.193).
        let f0 = counts[0] as f64 / 50_000.0;
        assert!((f0 - d.probabilities()[0]).abs() < 0.02);
    }

    #[test]
    fn sample_covers_all_ranks_eventually() {
        let d = Popularity::Uniform.build(10);
        let mut r = rng();
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            seen[d.sample(&mut r)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    /// The reference inversion: a binary search of the whole
    /// cumulative, clamped to the last rank.
    fn reference_rank(d: &PopularityDist, u: f64) -> usize {
        d.cumulative[..d.len()]
            .partition_point(|&c| c <= u)
            .min(d.len() - 1)
    }

    /// Whether `u` falls in a bucket wider than the window, so that
    /// `rank_of` finishes with its binary search.
    fn takes_fallback(d: &PopularityDist, u: f64) -> bool {
        let k = (u * (d.guide.len() - 1) as f64) as usize;
        d.cumulative[d.guide[k] as usize + WINDOW - 1] <= u
    }

    /// Assert `rank_of` equals the reference on `draws` seeded draws, on
    /// every cumulative value and its bit-predecessor, and at both ends
    /// of `[0, 1)`. Returns how many of those probes took the fallback.
    fn assert_exact(d: &PopularityDist, draws: usize, rng: &mut StreamRng) -> usize {
        let edges = d.cumulative[..d.len()]
            .iter()
            .flat_map(|&c| [c, f64::from_bits(c.to_bits().saturating_sub(1))])
            .chain([0.0, 1.0 - f64::EPSILON / 2.0])
            .filter(|&u| u < 1.0);
        let draws: Vec<f64> = (0..draws).map(|_| rng.random()).collect();
        let mut fallbacks = 0;
        for u in edges.chain(draws) {
            assert_eq!(
                d.rank_of(u),
                reference_rank(d, u),
                "n = {}, u = {u}",
                d.len()
            );
            fallbacks += usize::from(takes_fallback(d, u));
        }
        fallbacks
    }

    #[test]
    fn guided_inversion_equals_binary_search() {
        let sizes = [1, 2, 3, 7, 500, 1000, 50_000];
        let models = [
            Popularity::Uniform,
            Popularity::LinearSkew,
            Popularity::Zipf { theta: 0.5 },
            Popularity::ZIPF1,
            Popularity::Zipf { theta: 3.0 },
        ];
        // 10⁶ seeded draws over the grid.
        let draws = 1_000_000 / (sizes.len() * models.len());
        let mut r = rng();
        for model in models {
            for n in sizes {
                assert_exact(&model.build(n), draws, &mut r);
            }
        }
    }

    #[test]
    fn guided_inversion_is_exact_when_the_cumulative_ends_below_one() {
        let d = PopularityDist::from_weights(&[0.1; 10]);
        assert_exact(&d, 100_000, &mut rng());
    }

    #[test]
    fn guided_inversion_is_exact_past_the_window() {
        // θ = 3 puts ~83 % of the mass on rank 0: the thousand-rank tail
        // shares a handful of buckets far wider than the window.
        let d = Popularity::Zipf { theta: 3.0 }.build(1000);
        let fallbacks = assert_exact(&d, 100_000, &mut rng());
        assert!(fallbacks > 0, "no probe reached the wide-bucket search");
    }

    #[test]
    #[should_panic(expected = "finite sum")]
    fn overflowing_weight_sum_rejected() {
        let _ = PopularityDist::from_weights(&[f64::MAX, f64::MAX]);
    }

    #[test]
    #[should_panic(expected = "zero objects")]
    fn zero_ranks_rejected() {
        let _ = Popularity::Uniform.build(0);
    }

    #[test]
    #[should_panic(expected = "not all be zero")]
    fn all_zero_weights_rejected() {
        let _ = PopularityDist::from_weights(&[0.0, 0.0]);
    }
}
