//! Per-time-unit client request streams.
//!
//! Every simulated time unit, a configurable number of clients each
//! request one object (the paper's "each client requests only one object,
//! but the same object may be requested by multiple clients"), drawn from
//! a [`PopularityDist`], with a per-client target recency.

use basecache_net::ObjectId;
use basecache_sim::StreamRng;

use crate::popularity::PopularityDist;

/// How clients choose the target recency `C` they attach to a request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TargetRecency {
    /// Every client demands fully fresh data (`C = 1`), the Section 3
    /// setting where any staleness scores below 1.
    AlwaysFresh,
    /// Target recency uniform in `[lo, hi] ⊂ (0, 1]` — heterogeneous
    /// client preferences ("some clients may prefer the most recent data
    /// ... while others will accept less recent data").
    Uniform {
        /// Least demanding target, exclusive lower bound 0.
        lo: f64,
        /// Most demanding target, at most 1.
        hi: f64,
    },
}

impl TargetRecency {
    pub(crate) fn sample(self, rng: &mut StreamRng) -> f64 {
        match self {
            TargetRecency::AlwaysFresh => 1.0,
            TargetRecency::Uniform { lo, hi } => {
                assert!(
                    0.0 < lo && lo <= hi && hi <= 1.0,
                    "target recency range must lie in (0,1]"
                );
                if lo == hi {
                    lo
                } else {
                    rng.random_range(lo..=hi)
                }
            }
        }
    }
}

/// One generated client request.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneratedRequest {
    /// The requested object.
    pub object: ObjectId,
    /// The client's target recency `C ∈ (0, 1]`.
    pub target_recency: f64,
}

/// Generates one batch of requests per time unit.
#[derive(Debug, Clone)]
pub struct RequestGenerator {
    popularity: PopularityDist,
    per_time_unit: usize,
    target: TargetRecency,
}

impl RequestGenerator {
    /// A generator issuing `per_time_unit` requests per tick, objects
    /// drawn from `popularity` (rank == object id), targets from
    /// `target`.
    pub fn new(popularity: PopularityDist, per_time_unit: usize, target: TargetRecency) -> Self {
        Self {
            popularity,
            per_time_unit,
            target,
        }
    }

    /// Generate the batch for one time unit.
    pub fn batch(&self, rng: &mut StreamRng) -> Vec<GeneratedRequest> {
        (0..self.per_time_unit)
            .map(|_| GeneratedRequest {
                object: ObjectId(self.popularity.sample(rng) as u32),
                target_recency: self.target.sample(rng),
            })
            .collect()
    }
}

/// A request generator with a flash crowd: steady `baseline` demand over
/// the first `baseline.len()` objects, plus — during the spike window —
/// a sudden burst of `spike_per_time_unit` requests over the *remaining*
/// objects (ranks drawn from `spike`, offset past the baseline range).
/// Those objects were never requested before the spike, so they are
/// stone cold in every cache: the exact stampede shape where many
/// clients pile onto the same few uncached objects at once, which
/// single-flight coalescing absorbs with one transfer per object while
/// naive re-fetching launches duplicates every round the transfer is
/// still on the wire.
#[derive(Debug, Clone)]
pub struct FlashCrowdGenerator {
    baseline: PopularityDist,
    spike: PopularityDist,
    per_time_unit: usize,
    spike_per_time_unit: usize,
    target: TargetRecency,
    spike_start: u64,
    spike_len: u64,
    batches_generated: u64,
}

impl FlashCrowdGenerator {
    /// Create a flash-crowd generator. The catalog it addresses has
    /// `baseline.len() + spike.len()` objects: baseline ranks map to
    /// objects `0..baseline.len()`, spike ranks to the cold tail after
    /// them. The spike is live for batches
    /// `spike_start..spike_start + spike_len`.
    ///
    /// # Panics
    ///
    /// Panics if either distribution is empty or `spike_len == 0`.
    pub fn new(
        baseline: PopularityDist,
        spike: PopularityDist,
        per_time_unit: usize,
        spike_per_time_unit: usize,
        target: TargetRecency,
        spike_start: u64,
        spike_len: u64,
    ) -> Self {
        assert!(
            !baseline.is_empty(),
            "baseline must cover at least 1 object"
        );
        assert!(!spike.is_empty(), "spike must cover at least 1 object");
        assert!(spike_len > 0, "spike window must be non-empty");
        Self {
            baseline,
            spike,
            per_time_unit,
            spike_per_time_unit,
            target,
            spike_start,
            spike_len,
            batches_generated: 0,
        }
    }

    /// Total objects the generator addresses (size the catalog to this).
    pub fn objects(&self) -> usize {
        self.baseline.len() + self.spike.len()
    }

    /// Whether the *next* batch falls inside the spike window.
    pub fn in_spike(&self) -> bool {
        let t = self.batches_generated;
        t >= self.spike_start && t < self.spike_start + self.spike_len
    }

    /// Generate the batch for the next time unit, advancing time.
    pub fn batch(&mut self, rng: &mut StreamRng) -> Vec<GeneratedRequest> {
        let spiking = self.in_spike();
        let extra = if spiking { self.spike_per_time_unit } else { 0 };
        let mut batch = Vec::with_capacity(self.per_time_unit + extra);
        for _ in 0..self.per_time_unit {
            batch.push(GeneratedRequest {
                object: ObjectId(self.baseline.sample(rng) as u32),
                target_recency: self.target.sample(rng),
            });
        }
        for _ in 0..extra {
            batch.push(GeneratedRequest {
                object: ObjectId((self.baseline.len() + self.spike.sample(rng)) as u32),
                target_recency: self.target.sample(rng),
            });
        }
        self.batches_generated += 1;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;
    use basecache_sim::RngStreams;

    #[test]
    fn batch_has_requested_cardinality_and_valid_targets() {
        let gen = RequestGenerator::new(
            Popularity::Uniform.build(50),
            100,
            TargetRecency::Uniform { lo: 0.2, hi: 0.9 },
        );
        let mut rng = RngStreams::new(5).stream("requests");
        let batch = gen.batch(&mut rng);
        assert_eq!(batch.len(), 100);
        for r in &batch {
            assert!(r.object.index() < 50);
            assert!((0.2..=0.9).contains(&r.target_recency));
        }
    }

    #[test]
    fn always_fresh_pins_target_to_one() {
        let gen =
            RequestGenerator::new(Popularity::Uniform.build(5), 10, TargetRecency::AlwaysFresh);
        let mut rng = RngStreams::new(5).stream("requests");
        assert!(gen.batch(&mut rng).iter().all(|r| r.target_recency == 1.0));
    }

    #[test]
    fn batches_are_reproducible_per_stream() {
        let gen =
            RequestGenerator::new(Popularity::ZIPF1.build(20), 30, TargetRecency::AlwaysFresh);
        let streams = RngStreams::new(1);
        let a = gen.batch(&mut streams.stream("requests"));
        let b = gen.batch(&mut streams.stream("requests"));
        assert_eq!(a, b);
    }

    #[test]
    fn zipf_batches_concentrate_on_low_ranks() {
        let gen = RequestGenerator::new(
            Popularity::ZIPF1.build(500),
            10_000,
            TargetRecency::AlwaysFresh,
        );
        let mut rng = RngStreams::new(2).stream("requests");
        let batch = gen.batch(&mut rng);
        let hot = batch.iter().filter(|r| r.object.index() < 10).count();
        let cold = batch.iter().filter(|r| r.object.index() >= 490).count();
        assert!(hot > cold * 10, "hot={hot} cold={cold}");
    }

    #[test]
    fn popularity_estimator_follows_a_shifting_hot_set() {
        use crate::estimate::PopularityEstimator;
        // A drifting Zipf stream: every 40 ticks the rank→object mapping
        // rotates by 15, so yesterday's hottest object cools off.
        let popularity = Popularity::ZIPF1.build(30);
        let mut est = PopularityEstimator::new(30, 10);
        let mut rng = RngStreams::new(34).stream("shift-est");
        let mut run_phase = |phase: usize, est: &mut PopularityEstimator| {
            for _ in 0..40 {
                for _ in 0..200 {
                    let rank = popularity.sample(&mut rng);
                    est.observe(ObjectId(((rank + phase) % 30) as u32));
                }
                est.tick();
            }
        };
        run_phase(0, &mut est);
        assert_eq!(est.ranking()[0], ObjectId(0), "phase 0 hot object");
        run_phase(15, &mut est);
        assert_eq!(
            est.ranking()[0],
            ObjectId(15),
            "estimator tracked the shift"
        );
    }

    #[test]
    #[should_panic(expected = "target recency range")]
    fn bad_target_range_rejected() {
        let gen = RequestGenerator::new(
            Popularity::Uniform.build(5),
            1,
            TargetRecency::Uniform { lo: 0.0, hi: 0.5 },
        );
        let mut rng = RngStreams::new(5).stream("requests");
        let _ = gen.batch(&mut rng);
    }

    #[test]
    fn flash_crowd_hits_cold_objects_only_inside_the_window() {
        let mut gen = FlashCrowdGenerator::new(
            Popularity::ZIPF1.build(20),
            Popularity::ZIPF1.build(10),
            8,
            25,
            TargetRecency::AlwaysFresh,
            5,
            3,
        );
        assert_eq!(gen.objects(), 30);
        let mut rng = RngStreams::new(11).stream("flash");
        for t in 0u64..12 {
            let spiking = (5..8).contains(&t);
            assert_eq!(gen.in_spike(), spiking, "t={t}");
            let batch = gen.batch(&mut rng);
            assert_eq!(batch.len(), if spiking { 33 } else { 8 });
            let cold = batch.iter().filter(|r| r.object.index() >= 20).count();
            if spiking {
                assert_eq!(cold, 25, "burst lands entirely on the cold tail");
            } else {
                assert_eq!(cold, 0, "cold objects untouched outside the spike");
            }
            assert!(batch.iter().all(|r| r.object.index() < 30));
        }
    }
}
