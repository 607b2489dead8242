//! Standing (persistent) request populations for massive-scale rounds.
//!
//! The per-tick generators in [`crate::requests`] model the paper's
//! setting: a fresh batch of a few thousand requests every time unit. A
//! production base station serving a million clients looks different —
//! most clients' interests persist across rounds, and only a small
//! fraction *churn* (a client retunes its target recency, or moves to a
//! different object) each time unit. [`StandingWorkload`] generates that
//! shape: one big columnar population up front, plus small per-round
//! churn batches expressed as in-place retargets
//! ([`ChurnOp`]) that a `basecache_core` round engine applies without
//! allocating. The churn fraction is exactly the dirty-set pressure the
//! engine's incremental instance build is measured against.

use basecache_net::ObjectId;
use basecache_sim::StreamRng;

use crate::popularity::PopularityDist;
use crate::requests::TargetRecency;

/// One in-place request mutation: retarget a pseudo-random standing
/// request for `object` to a new target recency. The slot seed lets the
/// applier pick the request (`slot_seed % request_count`) without the
/// generator knowing per-object counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnOp {
    /// The object whose request list is mutated.
    pub object: ObjectId,
    /// Seed selecting which of the object's requests to retarget.
    pub slot_seed: u64,
    /// The new target recency, in `(0, 1]`.
    pub target: f64,
}

/// A persistent client population: `requests` standing requests drawn
/// once from a popularity distribution, churned a little each round.
#[derive(Debug, Clone)]
pub struct StandingWorkload {
    popularity: PopularityDist,
    requests: usize,
    target: TargetRecency,
}

impl StandingWorkload {
    /// A population of `requests` standing requests, objects drawn from
    /// `popularity` (rank == object id), targets from `target`.
    pub fn new(popularity: PopularityDist, requests: usize, target: TargetRecency) -> Self {
        Self {
            popularity,
            requests,
            target,
        }
    }

    /// Generate the population into reusable columns (cleared first):
    /// `objects[k]` is requested with target `targets[k]`.
    pub fn generate_columns_into(
        &self,
        rng: &mut StreamRng,
        objects: &mut Vec<ObjectId>,
        targets: &mut Vec<f64>,
    ) {
        objects.clear();
        targets.clear();
        objects.reserve(self.requests);
        targets.reserve(self.requests);
        for _ in 0..self.requests {
            objects.push(ObjectId(self.popularity.sample(rng) as u32));
            targets.push(self.target.sample(rng));
        }
    }

    /// Generate the population as fresh columns.
    pub fn generate_columns(&self, rng: &mut StreamRng) -> (Vec<ObjectId>, Vec<f64>) {
        let mut objects = Vec::new();
        let mut targets = Vec::new();
        self.generate_columns_into(rng, &mut objects, &mut targets);
        (objects, targets)
    }

    /// Generate one round's churn — `k` retargets — into a reusable
    /// buffer (cleared first). Churned objects follow the same
    /// popularity distribution as the population, so churn concentrates
    /// where the requests are and the ops almost always land.
    pub fn churn_into(&self, k: usize, rng: &mut StreamRng, out: &mut Vec<ChurnOp>) {
        out.clear();
        out.reserve(k);
        for _ in 0..k {
            out.push(ChurnOp {
                object: ObjectId(self.popularity.sample(rng) as u32),
                slot_seed: rng.next_u64(),
                target: self.target.sample(rng),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;
    use basecache_sim::RngStreams;

    fn workload(objects: usize, requests: usize) -> StandingWorkload {
        StandingWorkload::new(
            Popularity::ZIPF1.build(objects),
            requests,
            TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
        )
    }

    #[test]
    fn columns_have_population_shape() {
        let w = workload(100, 5000);
        let mut rng = RngStreams::new(7).stream("standing");
        let (objects, targets) = w.generate_columns(&mut rng);
        assert_eq!(objects.len(), 5000);
        assert_eq!(targets.len(), 5000);
        assert!(objects.iter().all(|o| o.index() < 100));
        assert!(targets.iter().all(|&t| (0.3..=1.0).contains(&t)));
    }

    #[test]
    fn generation_is_reproducible_and_reuses_buffers() {
        let w = workload(50, 1000);
        let streams = RngStreams::new(3);
        let (objects, targets) = w.generate_columns(&mut streams.stream("standing"));
        let mut o2 = Vec::new();
        let mut t2 = Vec::new();
        w.generate_columns_into(&mut streams.stream("standing"), &mut o2, &mut t2);
        assert_eq!(objects, o2);
        assert_eq!(targets, t2);
        // Refilling clears first: same result, same capacity.
        w.generate_columns_into(&mut streams.stream("standing"), &mut o2, &mut t2);
        assert_eq!(objects, o2);
    }

    #[test]
    fn churn_follows_the_popularity_distribution() {
        let w = workload(500, 100_000);
        let mut rng = RngStreams::new(11).stream("churn");
        let mut ops = Vec::new();
        w.churn_into(10_000, &mut rng, &mut ops);
        assert_eq!(ops.len(), 10_000);
        assert!(ops.iter().all(|op| op.target > 0.0 && op.target <= 1.0));
        let hot = ops.iter().filter(|op| op.object.index() < 10).count();
        let cold = ops.iter().filter(|op| op.object.index() >= 490).count();
        assert!(hot > cold * 10, "Zipf churn: hot={hot} cold={cold}");
    }
}
