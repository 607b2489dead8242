//! Laws of the paper's model, checked without any reference code.
//!
//! Each law follows from the model's definitions alone and is stated for
//! one round of an on-demand, oracle, instantaneous station. A law
//! compares two rounds planned from the same state: twin stations built
//! and stepped alike, one fed the request batch as generated and the
//! other the batch the law transforms.
//!
//! * **Request-order invariance.** Permuting a round's batch changes no
//!   download and no bit of the round's outcome or the station's stats:
//!   every profit and tally is an integer sum of grid steps.
//! * **Fresh-copy neutrality.** Adding requests for objects whose copy
//!   is current changes no download, and adds exactly their count to
//!   the tallies at score and recency 1.0 (`n · STEPS` steps).

use basecache_core::planner::OnDemandPlanner;
use basecache_core::recency::ScoringFunction;
use basecache_core::{BaseStationSim, RoundOutcome, StationBuilder};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::check::run_cases;
use basecache_sim::metrics::STEPS;
use basecache_sim::{SimTime, StreamRng};
use basecache_workload::GeneratedRequest;

/// Drive twin on-demand stations over a random catalog, budget and
/// scoring function for 30 rounds of random updates and batches: the
/// first twin steps each batch as generated, the second as `transform`
/// makes it from the batch and the copies current at the round's start;
/// `check` then sees both, the two outcomes and how many requests the
/// transformed batch has more.
fn law(
    name: &str,
    transform: impl Fn(&mut StreamRng, &[GeneratedRequest], &[ObjectId]) -> Vec<GeneratedRequest>,
    check: impl Fn([&BaseStationSim; 2], [RoundOutcome; 2], usize),
) {
    run_cases(name, 64, |_, rng| {
        let objects = rng.random_range(4..=32u32);
        let sizes: Vec<u64> = (0..objects).map(|_| rng.random_range(1..=4u64)).collect();
        let scoring = [
            ScoringFunction::InverseRatio,
            ScoringFunction::Exponential,
            ScoringFunction::Step,
        ][rng.random_range(0..3usize)];
        let planner = OnDemandPlanner::new(scoring);
        let budget = rng.random_range(0..=12u64);
        let mut twins = [(); 2].map(|_| {
            let builder = StationBuilder::new(Catalog::from_sizes(&sizes));
            builder.on_demand(planner, budget).build().expect("valid")
        });
        for _ in 0..30 {
            // Copies fresh, stale and uncached: a few objects move.
            for _ in 0..rng.random_range(0..=3u32) {
                let object = ObjectId(rng.random_range(0..objects));
                for station in &mut twins {
                    let now = SimTime::from_ticks(station.tick());
                    station.server_mut().apply_update(object, now);
                }
            }
            let requests: Vec<GeneratedRequest> = (0..rng.random_range(0..=60usize))
                .map(|_| {
                    let object = ObjectId(rng.random_range(0..objects));
                    request(rng, object)
                })
                .collect();
            let recency = twins[0].recency_vec();
            let current: Vec<ObjectId> = (0..objects)
                .map(ObjectId)
                .filter(|o| recency[o.index()] == 1.0)
                .collect();
            let transformed = transform(rng, &requests, &current);
            let [a, b] = &mut twins;
            let outcomes = [a.step(&requests), b.step(&transformed)];
            assert_eq!(
                a.last_downloaded(),
                b.last_downloaded(),
                "round {}",
                a.tick()
            );
            check([a, b], outcomes, transformed.len() - requests.len());
        }
    });
}

/// A request for `object` at a random target in `(0, 1]`.
fn request(rng: &mut StreamRng, object: ObjectId) -> GeneratedRequest {
    let target_recency = rng.random_range(0.05f64..=1.0);
    GeneratedRequest {
        object,
        target_recency,
    }
}

#[test]
fn permuting_a_batch_changes_no_download_and_no_bit() {
    let permute = |rng: &mut StreamRng, requests: &[GeneratedRequest], _: &[ObjectId]| {
        let mut permuted: Vec<_> = requests.iter().rev().copied().collect();
        permuted.rotate_left(rng.random_range(0..=requests.len()));
        permuted
    };
    law(
        "laws/request_order",
        permute,
        |[a, b], [out_a, out_b], _| {
            // The means are non-negative, so equal values are equal bits.
            assert_eq!(out_a, out_b);
            assert_eq!(a.stats(), b.stats());
        },
    );
}

#[test]
fn requests_for_current_copies_change_no_download_and_score_one() {
    let add_current = |rng: &mut StreamRng, requests: &[GeneratedRequest], current: &[ObjectId]| {
        let mut extended = requests.to_vec();
        // Up to 20 more, anywhere in the batch; none when no copy is current.
        for _ in 0..rng.random_range(0..=20usize) * usize::from(!current.is_empty()) {
            let object = current[rng.random_range(0..current.len())];
            let added = request(rng, object);
            extended.insert(rng.random_range(0..=extended.len()), added);
        }
        extended
    };
    law(
        "laws/fresh_copies",
        add_current,
        |[a, b], [out_a, out_b], added| {
            let counts = |o: RoundOutcome| (o.served, o.cache_hits);
            let (served, hits) = counts(out_a);
            assert_eq!(counts(out_b), (served + added, hits + added));
            // The lifetime tallies differ by exactly the added requests, each
            // served from its current copy at 1.0.
            for (tally_a, tally_b) in [
                (a.stats().score, b.stats().score),
                (a.stats().recency, b.stats().recency),
            ] {
                let more = u128::from(tally_b.count - tally_a.count);
                assert_eq!(tally_b.sum, tally_a.sum + more * u128::from(STEPS));
            }
        },
    );
}
