//! Single layers in isolation: the traced pass's recorded inputs run
//! against a layer's public type by itself, so a layer's cost has a
//! number that does not move when its callers do.

use std::collections::VecDeque;
use std::hint::black_box;
use std::time::Instant;

use basecache_cache::{CacheStore, Lru};
use basecache_net::{
    ArbiterPolicy, BackhaulArbiter, InFlightConfig, InFlightLedger, ObjectId, Version,
};
use basecache_sim::SimTime;

use crate::metrics::{ratio, Metrics};
use crate::sim::Tape;

/// Rounds of tape each replay runs (the tape's head; the workloads are
/// stationary, so the head is as good as the whole).
const REPLAY_ROUNDS: usize = 1_000;

/// Replay every layer the tape has inputs for into `m`.
pub fn replay_layers(tape: &Tape, m: &mut Metrics) {
    let (insert_ns, lookup_ns, _) = replay_cache(tape, CacheStore::unbounded(), false);
    m.set("cache.replay_insert_ns", insert_ns);
    m.set("cache.replay_peek_ns", lookup_ns);

    let capacity = (tape.sizes.iter().sum::<u64>() / 4).max(1);
    let bounded = CacheStore::bounded(capacity, Box::new(Lru::new()));
    let (insert_ns, _, store) = replay_cache(tape, bounded, true);
    let stats = store.stats();
    m.set("cache.bounded.replay_insert_ns", insert_ns);
    m.set("cache.bounded.hit_ratio", stats.hit_ratio().unwrap_or(0.0));
    m.set(
        "cache.bounded.evictions_per_insert",
        ratio(stats.evictions as f64, stats.insertions as f64),
    );

    if let Some(config) = tape.flight {
        m.set("net.inflight.replay_ns_per_op", replay_ledger(tape, config));
    }
    if let Some(total) = tape.backhaul_units {
        m.set(
            "net.arbiter.replay_allocate_ns",
            replay_arbiter(tape, total),
        );
    }
}

/// Insert each round's downloads, then look up each of its requests
/// (`get`, which counts hits and tells the policy, when `counting`;
/// `peek` otherwise, as the station does). Returns ns per insert, ns per
/// lookup, and the store.
fn replay_cache(tape: &Tape, mut store: CacheStore, counting: bool) -> (f64, f64, CacheStore) {
    let (mut insert_ns, mut inserts) = (0u64, 0u64);
    let (mut lookup_ns, mut lookups) = (0u64, 0u64);
    let rounds = tape.downloads.iter().zip(&tape.round_set);
    for (round, (downloads, &set)) in rounds.take(REPLAY_ROUNDS).enumerate() {
        let now = SimTime::from_ticks(round as u64);
        let started = Instant::now();
        for &(object, version) in downloads {
            // An object larger than the whole bounded store is refused;
            // that is an outcome, not an error.
            let _ =
                black_box(store.insert(object, tape.sizes[object.index()], Version(version), now));
        }
        insert_ns += started.elapsed().as_nanos() as u64;
        inserts += downloads.len() as u64;

        let requests = &tape.request_sets[set];
        let started = Instant::now();
        for &object in requests {
            if counting {
                black_box(store.get(object));
            } else {
                black_box(store.peek(object));
            }
        }
        lookup_ns += started.elapsed().as_nanos() as u64;
        lookups += requests.len() as u64;
    }
    (
        ratio(insert_ns as f64, inserts as f64),
        ratio(lookup_ns as f64, lookups as f64),
        store,
    )
}

/// Per round: land what is due, launch the recorded downloads, park the
/// recorded number of requests on active transfers (spread round-robin;
/// the tape does not say which). Returns ns per ledger operation.
fn replay_ledger(tape: &Tape, config: InFlightConfig) -> f64 {
    let mut ledger = InFlightLedger::new(config, tape.sizes.len());
    let mut active: VecDeque<ObjectId> = VecDeque::new();
    let mut waiters = Vec::new();
    let mut ops = 0u64;
    let started = Instant::now();
    let rounds = tape.downloads.iter().zip(&tape.parked);
    for (round, (downloads, &parked)) in rounds.take(REPLAY_ROUNDS).enumerate() {
        let now = round as u64;
        loop {
            waiters.clear();
            ops += 1;
            if ledger.pop_arrival(now, &mut waiters).is_none() {
                break;
            }
            active.pop_front();
        }
        for &(object, version) in downloads {
            // The recorded station never launched a pair still in
            // flight; the guard keeps that true if the tape's head cuts
            // a transfer's history short.
            if !ledger.joinable(object, Version(version)) {
                ledger.launch(object, Version(version), tape.sizes[object.index()], now);
                active.push_back(object);
                ops += 1;
            }
        }
        if !active.is_empty() {
            for k in 0..parked as usize {
                ledger.join(active[k % active.len()], 1.0, now);
            }
            ops += parked;
        }
    }
    black_box(ledger.waiting());
    ratio(started.elapsed().as_nanos() as f64, ops as f64)
}

/// Run every recorded demand vector through the arbiter. Returns ns per
/// `allocate_into`.
fn replay_arbiter(tape: &Tape, total_budget: u64) -> f64 {
    let arbiter = BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, total_budget);
    let mut budgets = Vec::new();
    let started = Instant::now();
    for demands in &tape.demands {
        arbiter.allocate_into(black_box(demands), &mut budgets);
        black_box(&budgets);
    }
    ratio(
        started.elapsed().as_nanos() as f64,
        tape.demands.len() as f64,
    )
}
