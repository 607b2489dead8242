//! The allocation-free planning path must be indistinguishable from the
//! batch path: aggregating raw requests directly into [`PlannerScratch`]
//! produces the same knapsack instance (bit for bit), the same download
//! set, and the same achieved value as building a [`RequestBatch`] and
//! calling [`OnDemandPlanner::plan`] — and both are what the paper's
//! full-table DP picks on that instance.

mod common;

use basecache_core::planner::OnDemandPlanner;
use basecache_core::profit::build_instance;
use basecache_core::recency::ScoringFunction;
use basecache_core::request::RequestBatch;
use basecache_core::scratch::PlannerScratch;
use basecache_knapsack::Item;
use basecache_net::{Catalog, ObjectId};
use basecache_sim::{RngStreams, StreamRng};
use basecache_workload::{GeneratedRequest, Popularity};

use common::{exact_dp, Instance};

fn random_round(rng: &mut StreamRng) -> (Catalog, Vec<f64>, Vec<GeneratedRequest>, u64) {
    let n = rng.random_range(1..=40usize);
    let sizes: Vec<u64> = (0..n).map(|_| rng.random_range(1u64..=9)).collect();
    let catalog = Catalog::from_sizes(&sizes);
    let recency: Vec<f64> = (0..n).map(|_| rng.random_range(0.0f64..=1.0)).collect();
    let m = rng.random_range(0..=60usize);
    let requests: Vec<GeneratedRequest> = (0..m)
        .map(|_| GeneratedRequest {
            object: ObjectId(rng.random_range(0..n as u32)),
            target_recency: rng.random_range(0.05f64..=1.0),
        })
        .collect();
    let budget = rng.random_range(0u64..=80);
    (catalog, recency, requests, budget)
}

#[test]
fn aggregated_exact_dp_plan_is_bit_identical_to_batch_path() {
    let mut rng = RngStreams::new(0xA66_1234).stream("core/parity-dp");
    let planner = OnDemandPlanner::paper_default();
    let mut scratch = PlannerScratch::new();
    for round in 0..150 {
        let (catalog, recency, requests, budget) = random_round(&mut rng);
        let batch = RequestBatch::from_generated(&requests);
        let plan = planner.plan(&batch, &catalog, &recency, budget).unwrap();
        planner
            .plan_requests_into(&requests, &catalog, &recency, budget, &mut scratch)
            .unwrap();

        assert_eq!(scratch.downloads(), plan.downloads(), "round {round}");
        assert_eq!(
            scratch.download_size(),
            plan.download_size(),
            "round {round}"
        );
        // Bit-for-bit, not tolerance: both read each profit off the same
        // integer tally of score steps.
        assert_eq!(
            scratch.achieved_value(),
            plan.achieved_value(),
            "round {round}"
        );
        let mapped = build_instance(&batch, &catalog, &recency, planner.scoring());
        assert_eq!(scratch.items(), mapped.instance().items(), "round {round}");
    }
}

/// Both solvers the paths could be told apart by — the planner's and
/// the full-table DP on the rebuilt instance — under every scoring
/// function.
#[test]
fn aggregated_path_matches_batch_path_for_every_solver() {
    let mut rng = RngStreams::new(0xA66_1234).stream("core/parity-all");
    let mut scratch = PlannerScratch::new();
    for round in 0..60 {
        let (catalog, recency, requests, budget) = random_round(&mut rng);
        let batch = RequestBatch::from_generated(&requests);
        for scoring in [
            ScoringFunction::InverseRatio,
            ScoringFunction::Exponential,
            ScoringFunction::Step,
        ] {
            let planner = OnDemandPlanner::new(scoring);
            let plan = planner.plan(&batch, &catalog, &recency, budget).unwrap();
            planner
                .plan_requests_into(&requests, &catalog, &recency, budget, &mut scratch)
                .unwrap();
            let instance = Instance::of_batch(&requests, &catalog, &recency, scoring, &[]);
            let exact = exact_dp(&instance, budget);
            let label = format!("round {round} {scoring:?}");
            assert_eq!(scratch.downloads(), plan.downloads(), "{label}");
            assert_eq!(scratch.downloads(), exact.downloads, "{label}");
            assert_eq!(scratch.achieved_value(), plan.achieved_value(), "{label}");
            assert_eq!(
                scratch.achieved_value().to_bits(),
                exact.value.to_bits(),
                "{label}"
            );
            assert_eq!(scratch.download_size(), plan.download_size(), "{label}");
            assert_eq!(scratch.download_size(), exact.size, "{label}");
        }
    }
}

#[test]
fn empty_round_scores_one_and_downloads_nothing() {
    let planner = OnDemandPlanner::paper_default();
    let mut scratch = PlannerScratch::new();
    let catalog = Catalog::from_sizes(&[3, 5]);
    let recency = [0.0, 0.0];
    planner
        .plan_requests_into(&[], &catalog, &recency, 10, &mut scratch)
        .unwrap();
    assert!(scratch.items().is_empty());
    assert!(scratch.downloads().is_empty());
    let mapped = build_instance(&RequestBatch::new(), &catalog, &recency, planner.scoring());
    assert_eq!(
        mapped.average_score_for_value(scratch.achieved_value()),
        1.0
    );
}

/// One round at the paper's scale: `n` objects of 1–20 units, 5 000
/// requests drawn from Zipf(1) over them.
fn paper_round(rng: &mut StreamRng, n: usize) -> (Catalog, Vec<f64>, Vec<GeneratedRequest>) {
    let sizes: Vec<u64> = (0..n).map(|_| rng.random_range(1u64..=20)).collect();
    let recency: Vec<f64> = (0..n).map(|_| rng.random_range(0.0f64..=1.0)).collect();
    let popularity = Popularity::ZIPF1.build(n);
    let requests = (0..5_000)
        .map(|_| GeneratedRequest {
            object: ObjectId(popularity.sample(rng) as u32),
            target_recency: rng.random_range(0.05f64..=1.0),
        })
        .collect();
    (Catalog::from_sizes(&sizes), recency, requests)
}

#[test]
fn paper_scale_assembly_is_bit_identical_across_catalog_sizes() {
    let mut rng = RngStreams::new(0xA66_1234).stream("core/parity-paper");
    let planner = OnDemandPlanner::paper_default();
    let mut scratch = PlannerScratch::new();
    let bits = |items: &[Item]| -> Vec<(u64, u64)> {
        items
            .iter()
            .map(|item| (item.size(), item.profit().to_bits()))
            .collect()
    };
    // The catalog shrinks and grows back on one scratch: an entry the
    // compaction left dirty would turn up as an item of a later round.
    for (round, n) in [500, 500, 40, 500, 500].into_iter().enumerate() {
        let (catalog, recency, requests) = paper_round(&mut rng, n);
        let budget = catalog.total_size() / 10;
        let batch = RequestBatch::from_generated(&requests);
        let plan = planner.plan(&batch, &catalog, &recency, budget).unwrap();
        planner
            .plan_requests_into(&requests, &catalog, &recency, budget, &mut scratch)
            .unwrap();

        let mapped = build_instance(&batch, &catalog, &recency, planner.scoring());
        assert_eq!(
            bits(scratch.items()),
            bits(mapped.instance().items()),
            "round {round}"
        );
        assert_eq!(scratch.downloads(), plan.downloads(), "round {round}");
        assert_eq!(
            scratch.download_size(),
            plan.download_size(),
            "round {round}"
        );
        assert_eq!(
            scratch.achieved_value(),
            plan.achieved_value(),
            "round {round}"
        );
    }
}
