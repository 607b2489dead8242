//! Extension experiment — bounded base-station caches (the paper's
//! closing future-work item): replacement policies vs cache size.
//!
//! "Another area of future work is developing caching policies when
//! cache space at the base station is limited. ... We will consider
//! cache replacement policies based on client requests and knowledge of
//! server updates." We sweep the cache size and compare LRU, LFU,
//! size-aware and the profit-aware policy (evict the copy whose loss
//! costs clients the least download benefit), measuring the hit ratio
//! over a Zipf request stream with heterogeneous object sizes.

use basecache_cache::{
    CacheStore, GreedyDualSize, Lfu, Lru, ProfitAware, ReplacementPolicy, SizeAware,
};
use basecache_net::{Catalog, ObjectId, Version};
use basecache_sim::{RngStreams, SimTime};
use basecache_workload::{Popularity, PopularityEstimator, SizeDist};

use crate::report::Figure;
use crate::runner::sweep_series;

/// Parameters of the bounded-cache sweep.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of objects.
    pub objects: usize,
    /// Requests simulated.
    pub accesses: usize,
    /// Cache sizes to sweep, as fractions (percent) of the catalog size.
    pub size_percents: Vec<u64>,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            objects: 2000,
            accesses: 200_000,
            size_percents: vec![5, 10, 20, 40, 60, 80],
            seed: 11_000,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            objects: 500,
            accesses: 30_000,
            size_percents: vec![10, 30, 60],
            ..Self::paper()
        }
    }
}

/// A named replacement-policy constructor.
type PolicyCtor = fn() -> Box<dyn ReplacementPolicy + Send>;

const POLICIES: [(&str, PolicyCtor); 5] = [
    ("lru", || Box::new(Lru::new())),
    ("lfu", || Box::new(Lfu::new())),
    ("size-aware", || Box::new(SizeAware::new())),
    ("profit-aware", || Box::new(ProfitAware::new())),
    ("gds(1)", || Box::new(GreedyDualSize::uniform())),
];

fn hit_ratio(params: &Params, catalog: &Catalog, capacity: u64, make: PolicyCtor) -> f64 {
    let dist = Popularity::ZIPF1.build(params.objects);
    let mut rng = RngStreams::new(params.seed).stream("bounded/requests");
    let mut cache = CacheStore::bounded(capacity, make());
    // Popularity estimate drives profit-aware weights (benefit density:
    // expected demand per unit of cache space).
    let mut popularity = PopularityEstimator::new(params.objects, 1000);

    let mut hits = 0u64;
    for i in 0..params.accesses {
        let id = ObjectId(dist.sample(&mut rng) as u32);
        popularity.observe(id);
        if i % 100 == 0 {
            popularity.tick();
        }
        if cache.get(id).is_some() {
            hits += 1;
        } else {
            let size = catalog.size_of(id);
            if cache
                .insert(id, size, Version(0), SimTime::from_ticks(i as u64))
                .is_ok()
            {
                cache.set_weight(id, popularity.count(id) / size as f64);
            }
        }
    }
    hits as f64 / params.accesses as f64
}

/// Run the bounded-cache sweep.
pub fn run(params: &Params) -> Figure {
    let streams = RngStreams::new(params.seed);
    let sizes = SizeDist::UniformInt { lo: 1, hi: 8 }
        .generate(params.objects, &mut streams.stream("bounded/sizes"));
    let total: u64 = sizes.iter().sum();
    let catalog = Catalog::from_sizes(&sizes);

    let labels = POLICIES.map(|(label, _)| label);
    let series = sweep_series(&params.size_percents, labels, |&pct| {
        let capacity = (total * pct / 100).max(1);
        let ratios = POLICIES.map(|(_, make)| hit_ratio(params, &catalog, capacity, make));
        (pct as f64, ratios)
    });
    Figure::new(
        "Extension: bounded-cache replacement policies",
        "cache size (% of catalog)",
        "hit ratio",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_ratios_grow_with_cache_size_and_beat_nothing() {
        let fig = run(&Params::quick());
        for s in &fig.series {
            for w in s.points.windows(2) {
                assert!(
                    w[1].1 >= w[0].1 - 0.01,
                    "{}: hit ratio should grow with size",
                    s.label
                );
            }
            let top = s.last_y().unwrap();
            assert!(
                top > 0.5,
                "{}: 60% cache on zipf demand must hit a lot, got {top}",
                s.label
            );
        }
    }

    #[test]
    fn demand_aware_policies_beat_size_aware_at_small_caches() {
        let fig = run(&Params::quick());
        let small = |label: &str| {
            fig.series
                .iter()
                .find(|s| s.label == label)
                .and_then(|s| s.points.first().map(|&(_, y)| y))
                .unwrap()
        };
        let lfu = small("lfu");
        let profit = small("profit-aware");
        let size_aware = small("size-aware");
        assert!(
            lfu > size_aware && profit > size_aware,
            "demand-aware (lfu {lfu}, profit {profit}) must beat size-only ({size_aware})"
        );
    }
}
