//! Online popularity estimation.
//!
//! The paper's profit mapping weighs objects by how many clients request
//! them *this round*. A base station that also wants popularity for
//! background decisions — hybrid push ordering, profit-aware eviction —
//! needs a longer-horizon estimate that tracks drifting interest.
//! [`PopularityEstimator`] keeps exponentially decayed request counts:
//! recent demand dominates, stale interest fades at a configurable
//! half-life.

use basecache_net::ObjectId;

/// Exponentially decayed per-object request counter.
#[derive(Debug, Clone, PartialEq)]
pub struct PopularityEstimator {
    counts: Vec<f64>,
    retain: f64,
}

impl PopularityEstimator {
    /// An estimator over `objects` objects whose counts halve every
    /// `half_life_ticks` ticks (one decay step per tick).
    ///
    /// # Panics
    ///
    /// Panics if `objects == 0` or `half_life_ticks == 0`.
    pub fn new(objects: usize, half_life_ticks: u64) -> Self {
        assert!(objects > 0, "estimator needs objects");
        assert!(half_life_ticks > 0, "half life must be positive");
        Self {
            counts: vec![0.0; objects],
            retain: 0.5f64.powf(1.0 / half_life_ticks as f64),
        }
    }

    /// Record one request for `object`.
    pub fn observe(&mut self, object: ObjectId) {
        self.counts[object.index()] += 1.0;
    }

    /// Advance one tick: decay every count.
    pub fn tick(&mut self) {
        for c in &mut self.counts {
            *c *= self.retain;
        }
    }

    /// The decayed count of `object`.
    pub fn count(&self, object: ObjectId) -> f64 {
        self.counts[object.index()]
    }

    /// Estimated request probabilities (uniform before any observation).
    /// Allocates a fresh `Vec`; per-round callers should prefer
    /// [`Self::probabilities_into`].
    pub fn probabilities(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.probabilities_into(&mut out);
        out
    }

    /// Fill `out` with [`Self::probabilities`] without allocating beyond
    /// `out`'s own capacity growth, so steady-state per-round callers
    /// stay off the heap (see `tests/alloc_free.rs`).
    pub fn probabilities_into(&self, out: &mut Vec<f64>) {
        out.clear();
        let total: f64 = self.counts.iter().sum();
        if total <= 0.0 {
            let uniform = 1.0 / self.counts.len() as f64;
            out.extend(self.counts.iter().map(|_| uniform));
        } else {
            out.extend(self.counts.iter().map(|&c| c / total));
        }
    }

    /// Object ids sorted hottest-first (ties by id). Allocates a fresh
    /// `Vec`; per-round callers should prefer [`Self::ranking_into`].
    pub fn ranking(&self) -> Vec<ObjectId> {
        let mut out = Vec::new();
        self.ranking_into(&mut out);
        out
    }

    /// Fill `out` with [`Self::ranking`] without allocating beyond
    /// `out`'s own capacity growth. Uses an unstable sort — safe because
    /// the comparator (count desc, id asc) is a total order, so the
    /// result is identical to the stable variant.
    pub fn ranking_into(&self, out: &mut Vec<ObjectId>) {
        out.clear();
        out.extend((0..self.counts.len()).map(|i| ObjectId(i as u32)));
        out.sort_unstable_by(|a, b| {
            self.counts[b.index()]
                .partial_cmp(&self.counts[a.index()])
                .expect("counts are never NaN")
                .then_with(|| a.index().cmp(&b.index()))
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;
    use basecache_sim::RngStreams;

    #[test]
    fn uniform_prior_before_observations() {
        let est = PopularityEstimator::new(4, 10);
        assert_eq!(est.probabilities(), vec![0.25; 4]);
    }

    #[test]
    fn converges_to_the_true_distribution() {
        let dist = Popularity::ZIPF1.build(50);
        let mut est = PopularityEstimator::new(50, 10_000);
        let mut rng = RngStreams::new(5).stream("estimate");
        for _ in 0..200 {
            for _ in 0..100 {
                est.observe(ObjectId(dist.sample(&mut rng) as u32));
            }
            est.tick();
        }
        let probs = est.probabilities();
        for (i, (&p, &q)) in probs.iter().zip(dist.probabilities()).enumerate() {
            assert!((p - q).abs() < 0.03, "rank {i}: estimated {p} true {q}");
        }
        assert_eq!(est.ranking()[0], ObjectId(0));
    }

    #[test]
    fn half_life_is_respected() {
        let mut est = PopularityEstimator::new(2, 8);
        est.observe(ObjectId(0));
        for _ in 0..8 {
            est.tick();
        }
        assert!((est.count(ObjectId(0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adapts_to_popularity_shift() {
        let mut est = PopularityEstimator::new(2, 5);
        for _ in 0..100 {
            est.observe(ObjectId(0));
            est.tick();
        }
        assert_eq!(est.ranking()[0], ObjectId(0));
        // Interest flips to object 1.
        for _ in 0..30 {
            est.observe(ObjectId(1));
            est.tick();
        }
        assert_eq!(est.ranking()[0], ObjectId(1), "old interest must fade");
    }

    #[test]
    fn ranking_breaks_ties_by_id() {
        let est = PopularityEstimator::new(3, 10);
        assert_eq!(est.ranking(), vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn into_variants_match_allocating_ones() {
        let dist = Popularity::ZIPF1.build(20);
        let mut est = PopularityEstimator::new(20, 50);
        let mut rng = RngStreams::new(9).stream("estimate");
        let mut probs = Vec::new();
        let mut rank = Vec::new();
        for round in 0..40 {
            for _ in 0..25 {
                est.observe(ObjectId(dist.sample(&mut rng) as u32));
            }
            est.tick();
            est.probabilities_into(&mut probs);
            est.ranking_into(&mut rank);
            assert_eq!(probs, est.probabilities(), "round {round}");
            assert_eq!(rank, est.ranking(), "round {round}");
        }
    }

    #[test]
    fn into_variants_overwrite_stale_buffer_contents() {
        let est = PopularityEstimator::new(4, 10);
        let mut probs = vec![9.0; 64];
        let mut rank = vec![ObjectId(99); 64];
        est.probabilities_into(&mut probs);
        est.ranking_into(&mut rank);
        assert_eq!(probs, vec![0.25; 4]);
        assert_eq!(
            rank,
            vec![ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(3)]
        );
    }
}
