//! The cache crate's bench record, `BENCH_cache.json`.
//!
//! Bounded-cache ablation (the paper's future-work direction): replace-
//! ment policies under Zipf churn, measuring throughput and — via the
//! summary printed at the end — hit ratios. Beside it, the two things
//! the station's round does to its unbounded store: `peek` every object
//! for the recency column, and refresh copies in place. Every entry times one
//! pass over the same 50 000-access Zipf stream on 2 000 objects.

use std::hint::black_box;

use basecache_bench::harness::{bench_n, write_record};
use basecache_cache::{
    CacheStore, GreedyDualSize, Lfu, Lru, ProfitAware, ReplacementPolicy, SizeAware,
};
use basecache_net::{ObjectId, Version};
use basecache_sim::{RngStreams, SimTime};
use basecache_workload::Popularity;

type PolicyCtor = fn() -> Box<dyn ReplacementPolicy + Send>;

fn policies() -> Vec<(&'static str, PolicyCtor)> {
    vec![
        ("lru", || Box::new(Lru::new())),
        ("lfu", || Box::new(Lfu::new())),
        ("size_aware", || Box::new(SizeAware::new())),
        ("profit_aware", || Box::new(ProfitAware::new())),
        ("gds1", || Box::new(GreedyDualSize::uniform())),
    ]
}

/// Drive a bounded cache with a Zipf access stream; objects are looked
/// up first and inserted on miss (sizes deterministic per object).
fn churn(cache: &mut CacheStore, accesses: &[u32]) -> u64 {
    let mut hits = 0u64;
    for (i, &obj) in accesses.iter().enumerate() {
        let id = ObjectId(obj);
        if cache.get(id).is_some() {
            hits += 1;
        } else {
            let size = u64::from(obj % 9 + 1);
            let _ = cache.insert(id, size, Version(0), SimTime::from_ticks(i as u64));
            // Profit-aware gets popularity-proportional weights: hotter
            // (lower-ranked) objects are worth keeping.
            cache.set_weight(id, 1.0 / f64::from(obj + 1));
        }
    }
    hits
}

fn zipf_accesses(n_objects: usize, n_accesses: usize) -> Vec<u32> {
    let dist = Popularity::ZIPF1.build(n_objects);
    let mut rng = RngStreams::new(555).stream("bench/cache");
    (0..n_accesses)
        .map(|_| dist.sample(&mut rng) as u32)
        .collect()
}

fn main() {
    let accesses = zipf_accesses(2000, 50_000);
    let mut results = Vec::new();
    for (name, make) in policies() {
        results.push(bench_n(&format!("cache/churn_50k/{name}"), 10, || {
            let mut cache = CacheStore::bounded(1500, make());
            black_box(churn(&mut cache, &accesses))
        }));
    }

    results.push(bench_n("cache/unbounded_churn_50k", 10, || {
        let mut cache = CacheStore::unbounded();
        black_box(churn(&mut cache, &accesses))
    }));

    // A warm unbounded store, as the station holds it in steady state:
    // every object the stream touches is resident.
    let mut warm = CacheStore::unbounded();
    churn(&mut warm, &accesses);
    results.push(bench_n("cache/unbounded/peek", 10, || {
        let mut resident_units = 0u64;
        for &obj in &accesses {
            if let Some(entry) = warm.peek(black_box(ObjectId(obj))) {
                resident_units += entry.size;
            }
        }
        resident_units
    }));
    let mut version = 0u64;
    results.push(bench_n("cache/unbounded/refresh_insert", 10, || {
        version += 1;
        let now = SimTime::from_ticks(version);
        for &obj in &accesses {
            let size = u64::from(obj % 9 + 1);
            let _ = black_box(warm.insert(ObjectId(obj), size, Version(version), now));
        }
        warm.stats().refreshes
    }));
    write_record("cache", &[], &results);

    // Print the ablation table once (hit ratios per policy) so `cargo
    // bench` output doubles as the ablation report.
    println!("\ncache policy ablation (2000 objects, capacity 1500 units, 50k Zipf accesses):");
    for (name, make) in policies() {
        let mut cache = CacheStore::bounded(1500, make());
        let hits = churn(&mut cache, &accesses);
        println!(
            "  {name:>13}: hit ratio {:.4}  evictions {}",
            hits as f64 / accesses.len() as f64,
            cache.stats().evictions
        );
    }
}
