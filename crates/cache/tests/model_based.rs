//! Model-based property tests: `CacheStore` with each policy against a
//! naive reference model under random operation sequences.
//!
//! Runs on the in-tree harness (`basecache_sim::check`).

use basecache_cache::{
    CacheStore, GreedyDualSize, Lfu, Lru, ProfitAware, ReplacementPolicy, SizeAware,
};
use basecache_net::{ObjectId, Version};
use basecache_sim::check::run_cases;
use basecache_sim::{SimTime, StreamRng};

#[derive(Debug, Clone)]
enum Op {
    Get(u32),
    Insert(u32),
    Remove(u32),
    SetWeight(u32, u8),
}

fn arb_ops(rng: &mut StreamRng) -> Vec<Op> {
    let n = rng.random_range(0usize..200);
    (0..n)
        .map(|_| {
            let id = rng.random_range(0u32..24);
            match rng.random_range(0u32..4) {
                0 => Op::Get(id),
                1 => Op::Insert(id),
                2 => Op::Remove(id),
                _ => Op::SetWeight(id, rng.random::<u8>()),
            }
        })
        .collect()
}

/// Size is a pure function of the id (the catalog fixes object sizes).
fn size_of(id: u32) -> u64 {
    u64::from(id % 7 + 1)
}

fn policies() -> Vec<Box<dyn ReplacementPolicy + Send>> {
    vec![
        Box::new(Lru::new()),
        Box::new(Lfu::new()),
        Box::new(SizeAware::new()),
        Box::new(ProfitAware::new()),
        Box::new(GreedyDualSize::uniform()),
    ]
}

/// Under any operation sequence and any policy, the store never exceeds
/// capacity, its size accounting matches a recount, every resident entry
/// is retrievable, and statistics are consistent.
#[test]
fn store_invariants_hold_under_random_churn() {
    run_cases("store_invariants", 64, |_, rng| {
        let ops = arb_ops(rng);
        let capacity = rng.random_range(5u64..40);
        for policy in policies() {
            let name = policy.name();
            let mut cache = CacheStore::bounded(capacity, policy);
            let mut tick = 0u64;
            for op in &ops {
                tick += 1;
                match *op {
                    Op::Get(id) => {
                        let _ = cache.get(ObjectId(id));
                    }
                    Op::Insert(id) => {
                        let size = size_of(id);
                        let result = cache.insert(
                            ObjectId(id),
                            size,
                            Version(tick),
                            SimTime::from_ticks(tick),
                        );
                        if size > capacity {
                            assert!(result.is_err(), "{name}: oversized must be refused");
                        }
                    }
                    Op::Remove(id) => {
                        let had = cache.contains(ObjectId(id));
                        let removed = cache.remove(ObjectId(id));
                        assert_eq!(had, removed.is_some(), "{name}");
                    }
                    Op::SetWeight(id, w) => {
                        cache.set_weight(ObjectId(id), f64::from(w));
                    }
                }
                // Invariants after every operation.
                let recount: u64 = cache.entries().map(|e| e.size).sum();
                assert_eq!(recount, cache.used(), "{name}: size accounting");
                assert!(cache.used() <= capacity, "{name}: capacity respected");
                assert_eq!(cache.entries().count(), cache.len(), "{name}");
            }
            // Every resident object answers a peek with its own id/size.
            let resident: Vec<_> = cache.entries().map(|e| (e.object, e.size)).collect();
            for (id, size) in resident {
                let e = cache.peek(id).expect("resident object must peek");
                assert_eq!(e.object, id);
                assert_eq!(e.size, size_of(id.0));
                assert_eq!(e.size, size);
            }
            let stats = cache.stats();
            assert!(
                stats.insertions >= stats.evictions,
                "{name}: cannot evict more than was inserted"
            );
        }
    });
}

/// The unbounded store is a plain map: after any sequence, residency
/// equals "inserted and not removed since".
#[test]
fn unbounded_store_matches_a_map() {
    run_cases("unbounded_matches_map", 64, |_, rng| {
        let ops = arb_ops(rng);
        let mut cache = CacheStore::unbounded();
        let mut model = std::collections::HashMap::<u32, u64>::new();
        let mut tick = 0u64;
        for op in &ops {
            tick += 1;
            match *op {
                Op::Get(id) => {
                    assert_eq!(cache.get(ObjectId(id)).is_some(), model.contains_key(&id));
                }
                Op::Insert(id) => {
                    cache
                        .insert(
                            ObjectId(id),
                            size_of(id),
                            Version(tick),
                            SimTime::from_ticks(tick),
                        )
                        .expect("unbounded never refuses");
                    model.insert(id, tick);
                }
                Op::Remove(id) => {
                    assert_eq!(
                        cache.remove(ObjectId(id)).is_some(),
                        model.remove(&id).is_some()
                    );
                }
                Op::SetWeight(..) => {}
            }
        }
        assert_eq!(cache.len(), model.len());
        for (&id, &tick) in &model {
            let e = cache.peek(ObjectId(id)).expect("model says resident");
            assert_eq!(e.version, Version(tick), "latest insert wins");
        }
    });
}
