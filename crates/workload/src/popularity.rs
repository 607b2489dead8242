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

/// A materialized popularity distribution: per-rank probabilities plus a
/// cumulative table for O(log n) sampling.
#[derive(Debug, Clone, PartialEq)]
pub struct PopularityDist {
    probs: Vec<f64>,
    cumulative: Vec<f64>,
}

impl PopularityDist {
    /// Normalize arbitrary non-negative weights into a distribution.
    ///
    /// # Panics
    ///
    /// Panics on empty input, negative/non-finite weights, or an all-zero
    /// weight vector.
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
        assert!(total > 0.0, "weights must not all be zero");
        let probs: Vec<f64> = weights.iter().map(|&w| w / total).collect();
        let mut acc = 0.0;
        let cumulative = probs
            .iter()
            .map(|&p| {
                acc += p;
                acc
            })
            .collect();
        Self { probs, cumulative }
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
        let u: f64 = rng.random();
        // partition_point returns the first index whose cumulative
        // exceeds u; the final cumulative is 1.0 (up to rounding), so
        // clamp for safety at the top.
        self.cumulative
            .partition_point(|&c| c <= u)
            .min(self.probs.len() - 1)
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
