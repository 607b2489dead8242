//! Shared fixtures and a hand-rolled timing harness for the benches:
//! deterministic instances, populations and request batches at paper
//! scale, plus [`harness`] — a small warmup/calibrate/sample loop with
//! median/mean/min reporting, so the bench binaries are plain `main()`
//! programs with zero external dependencies.

use basecache_core::request::RequestBatch;
use basecache_knapsack::{Instance, Item};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::RngStreams;
use basecache_workload::{
    Correlation, GeneratedRequest, NumRequestsMode, Popularity, RequestGenerator, Table1Spec,
    TargetRecency,
};

pub mod cluster_suite;
pub mod harness;
pub mod massive_suite;
pub mod planner_suite;

/// A deterministic knapsack instance with `n` items, sizes `U[1, 20]`,
/// profits `U(0, 20]`.
pub fn knapsack_instance(n: usize, seed: u64) -> Instance {
    let mut rng = RngStreams::new(seed).stream("bench/knapsack");
    let items = (0..n)
        .map(|_| {
            Item::new(
                rng.random_range(1..=20u64),
                rng.random_range(0.01..=20.0f64),
            )
        })
        .collect();
    Instance::new(items).expect("generated profits are valid")
}

/// Knapsack items shaped like one planning round of `benchmark/run.sh`:
/// object `i` is requested by a Zipf-like number of clients (`~ head /
/// (i + 1)`, plus noise) and is worth that many per-client benefits.
/// `tied` gives every client of a cold object — all but one object in
/// sixteen — the uncached benefit of exactly 0.5, so profits repeat bit
/// for bit by the thousand as they do on `engine-massive` and
/// `station-inflight`; otherwise every benefit is drawn apart.
pub fn round_shaped_items(n: usize, max_size: u64, tied: bool, seed: u64) -> Vec<Item> {
    let mut rng = RngStreams::new(seed).stream("bench/round_shaped");
    let head = (n as u64 / 2).max(1);
    (0..n as u64)
        .map(|i| {
            let size = rng.random_range(1..=max_size);
            let clients = 1 + head / (i + 1) + rng.random_range(0..3u64);
            let warm = rng.random_range(0..16u32) == 0;
            let benefit = if tied && !warm {
                0.5
            } else {
                rng.random_range(0.05..=0.45f64)
            };
            Item::new(size, clients as f64 * benefit)
        })
        .collect()
}

/// The paper's Table 1 population (skewed variant).
pub fn table1_population() -> basecache_workload::Table1Population {
    Table1Spec {
        num_requests: NumRequestsMode::UniformInt { lo: 1, hi: 20 },
        size_num_requests: Correlation::Negative,
        size_recency: Correlation::Positive,
        ..Table1Spec::paper_default()
    }
    .generate(12345)
}

/// A live planning round at roughly paper scale, as the raw generated
/// requests (the form [`BaseStationSim::step`] receives): requests,
/// catalog and cache recency.
///
/// [`BaseStationSim::step`]: basecache_core::station::BaseStationSim::step
pub fn planning_requests(
    objects: usize,
    requests: usize,
    seed: u64,
) -> (Vec<GeneratedRequest>, Catalog, Vec<f64>) {
    let streams = RngStreams::new(seed);
    let sizes: Vec<u64> = {
        let mut rng = streams.stream("bench/sizes");
        (0..objects).map(|_| rng.random_range(1..=20)).collect()
    };
    let catalog = Catalog::from_sizes(&sizes);
    let recency: Vec<f64> = {
        let mut rng = streams.stream("bench/recency");
        (0..objects).map(|_| rng.random_range(0.1..=1.0)).collect()
    };
    let generator = RequestGenerator::new(
        Popularity::ZIPF1.build(objects),
        requests,
        TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
    );
    let generated = generator.batch(&mut streams.stream("bench/requests"));
    (generated, catalog, recency)
}

/// A live planning round at roughly paper scale: catalog, cache recency
/// and an aggregated request batch.
pub fn planning_round(
    objects: usize,
    requests: usize,
    seed: u64,
) -> (RequestBatch, Catalog, Vec<f64>) {
    let (generated, catalog, recency) = planning_requests(objects, requests, seed);
    (RequestBatch::from_generated(&generated), catalog, recency)
}

/// Dense object-id list for cache-churn benches.
pub fn churn_ids(n: u32) -> Vec<ObjectId> {
    (0..n).map(ObjectId).collect()
}
