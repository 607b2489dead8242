//! Property-based integration tests: the planner's contract holds for
//! arbitrary workloads, cache states and budgets.
//!
//! Runs on the in-tree harness (`basecache_sim::check`).

use basecache::core::planner::{OnDemandPlanner, SolverChoice};
use basecache::core::profit::build_instance;
use basecache::core::recency::ScoringFunction;
use basecache::core::request::RequestBatch;
use basecache::net::{Catalog, ObjectId};
use basecache::sim::check::run_cases;
use basecache::sim::StreamRng;

#[derive(Debug, Clone)]
struct Scenario {
    sizes: Vec<u64>,
    recency: Vec<f64>,
    requests: Vec<(usize, f64)>, // (object index, target recency)
    budget: u64,
}

fn arb_scenario(rng: &mut StreamRng) -> Scenario {
    let n = rng.random_range(2usize..=12);
    Scenario {
        sizes: (0..n).map(|_| rng.random_range(1u64..=9)).collect(),
        recency: (0..n).map(|_| rng.random_range(0.0f64..=1.0)).collect(),
        requests: (0..rng.random_range(0usize..=30))
            .map(|_| (rng.random_range(0..n), rng.random_range(0.05f64..=1.0)))
            .collect(),
        budget: rng.random_range(0u64..=60),
    }
}

fn build(scenario: &Scenario) -> (RequestBatch, Catalog) {
    let catalog = Catalog::from_sizes(&scenario.sizes);
    let mut batch = RequestBatch::new();
    for &(obj, target) in &scenario.requests {
        batch.push(ObjectId(obj as u32), target);
    }
    (batch, catalog)
}

#[test]
fn plans_are_feasible_and_scores_bounded() {
    run_cases("plan_feasible", 128, |_, rng| {
        let s = arb_scenario(rng);
        let (batch, catalog) = build(&s);
        for solver in [SolverChoice::ExactDp, SolverChoice::Adaptive] {
            let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, solver);
            let plan = planner.plan(&batch, &catalog, &s.recency, s.budget);
            // Budget respected and size totals consistent.
            assert!(plan.download_size() <= s.budget);
            let recount: u64 = plan.downloads().iter().map(|&o| catalog.size_of(o)).sum();
            assert_eq!(recount, plan.download_size());
            // Only requested objects are downloaded.
            for &o in plan.downloads() {
                assert!(!batch.targets_for(o).is_empty(), "{o} was never requested");
            }
            // Scores lie in [0, 1].
            let score = plan.average_score(&batch, &s.recency);
            assert!((0.0..=1.0 + 1e-12).contains(&score), "score {score}");
        }
    });
}

#[test]
fn exact_plan_dominates_every_other_solver() {
    run_cases("exact_dominates", 128, |_, rng| {
        let s = arb_scenario(rng);
        let (batch, catalog) = build(&s);
        let exact = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp)
            .plan(&batch, &catalog, &s.recency, s.budget);
        let exact_score = exact.average_score(&batch, &s.recency);
        let adaptive = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::Adaptive)
            .plan(&batch, &catalog, &s.recency, s.budget);
        let adaptive_score = adaptive.average_score(&batch, &s.recency);
        assert!(
            exact_score >= adaptive_score - 1e-9,
            "adaptive scored {adaptive_score} > exact {exact_score}"
        );
    });
}

#[test]
fn score_is_monotone_in_budget() {
    run_cases("budget_monotone", 128, |_, rng| {
        let s = arb_scenario(rng);
        let (batch, catalog) = build(&s);
        let planner = OnDemandPlanner::new(ScoringFunction::Exponential, SolverChoice::ExactDp);
        let lo = planner.plan(&batch, &catalog, &s.recency, s.budget);
        let hi = planner.plan(&batch, &catalog, &s.recency, s.budget + 10);
        assert!(
            hi.average_score(&batch, &s.recency) >= lo.average_score(&batch, &s.recency) - 1e-9
        );
    });
}

#[test]
fn average_score_identity_between_plan_and_mapping() {
    run_cases("score_identity", 128, |_, rng| {
        // (base + achieved value) / clients computed through the knapsack
        // mapping must equal the score computed request by request.
        let s = arb_scenario(rng);
        let (batch, catalog) = build(&s);
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        let plan = planner.plan(&batch, &catalog, &s.recency, s.budget);
        let mapped = build_instance(&batch, &catalog, &s.recency, ScoringFunction::InverseRatio);
        let via_mapping = mapped.average_score_for_value(plan.achieved_value());
        let direct = plan.average_score(&batch, &s.recency);
        assert!(
            (via_mapping - direct).abs() < 1e-9,
            "{via_mapping} vs {direct}"
        );
    });
}

#[test]
fn fully_fresh_cache_needs_no_downloads() {
    run_cases("fresh_no_downloads", 128, |_, rng| {
        let s = arb_scenario(rng);
        let (batch, catalog) = build(&s);
        let fresh = vec![1.0; catalog.len()];
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        let plan = planner.plan(&batch, &catalog, &fresh, s.budget);
        assert!(plan.downloads().is_empty());
        assert!((plan.average_score(&batch, &fresh) - 1.0).abs() < 1e-12);
    });
}

#[test]
fn aggregated_scratch_path_agrees_with_batch_path() {
    use basecache::core::scratch::PlannerScratch;
    use basecache::workload::GeneratedRequest;

    run_cases("scratch_parity", 128, |_, rng| {
        let s = arb_scenario(rng);
        let (batch, catalog) = build(&s);
        let requests: Vec<GeneratedRequest> = s
            .requests
            .iter()
            .map(|&(obj, target)| GeneratedRequest {
                object: ObjectId(obj as u32),
                target_recency: target,
            })
            .collect();
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        let plan = planner.plan(&batch, &catalog, &s.recency, s.budget);
        let mut scratch = PlannerScratch::new();
        planner.plan_requests_into(&requests, &catalog, &s.recency, s.budget, &mut scratch);
        assert_eq!(scratch.downloads(), plan.downloads());
        assert_eq!(scratch.achieved_value(), plan.achieved_value());
        assert_eq!(scratch.download_size(), plan.download_size());
    });
}
