//! One planner per round, checked against a reference, not a twin.
//!
//! A station round plans every policy on the kernel's reusable scratch.
//! This suite re-derives each round's picks for the three policies that
//! used to plan through the public allocating API — [`RequestBatch`] +
//! [`OnDemandPlanner::plan`] / [`OnDemandPlanner::plan_with_trace`] +
//! [`knee_budget`], and [`LowestRecencyFirst`] — written here once as
//! test code, and demands the station's downloads, units and average
//! score agree to the last bit, over seeded random scripts and all three
//! solvers. The same derivation with a regional exclusion list pins that
//! every planner-carrying policy honours `set_plan_exclusions`.

use basecache_core::bound::knee_budget;
use basecache_core::planner::{LowestRecencyFirst, OnDemandPlanner, SolverChoice};
use basecache_core::recency::ScoringFunction;
use basecache_core::{Policy, RequestBatch, StationBuilder};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::check::run_cases;
use basecache_sim::StreamRng;
use basecache_workload::GeneratedRequest;

const SCORING: ScoringFunction = ScoringFunction::InverseRatio;
const SOLVERS: [SolverChoice; 3] = [
    SolverChoice::Adaptive,
    SolverChoice::ExactDp,
    SolverChoice::Greedy,
];

/// What `policy` downloads for `requests` given the recency the planner
/// sees, through the allocating API. `excluded` objects (ascending) may
/// not be fetched: their requests never reach the knapsack and the
/// hybrid's background pass skips them.
fn reference_picks(
    policy: Policy,
    requests: &[GeneratedRequest],
    catalog: &Catalog,
    recency: &[f64],
    excluded: &[ObjectId],
) -> Vec<ObjectId> {
    let fetchable = |o: &ObjectId| excluded.binary_search(o).is_err();
    let admitted: Vec<GeneratedRequest> = requests
        .iter()
        .copied()
        .filter(|r| fetchable(&r.object))
        .collect();
    let batch = RequestBatch::from_generated(&admitted);
    let mut picks = match policy {
        Policy::OnDemand { .. } | Policy::AsyncRoundRobin { .. } => {
            unreachable!("not one of the three policies this suite re-derives")
        }
        Policy::OnDemandLowestRecency { k_objects } => {
            LowestRecencyFirst.select(&batch, recency, k_objects)
        }
        Policy::OnDemandAdaptive {
            planner,
            max_budget,
            window,
            threshold,
        } => {
            let (mapped, trace) = planner.plan_with_trace(&batch, catalog, recency, max_budget);
            let knee = knee_budget(trace.values(), window, threshold);
            mapped.selected_objects(&trace.solution_at(mapped.instance(), knee))
        }
        Policy::Hybrid {
            planner,
            budget_units,
        } => {
            let plan = planner.plan(&batch, catalog, recency, budget_units);
            let mut chosen = plan.downloads().to_vec();
            let mut leftover = budget_units.saturating_sub(plan.download_size());
            let mut background: Vec<ObjectId> = catalog
                .ids()
                .filter(|id| recency[id.index()] < 1.0 && !chosen.contains(id) && fetchable(id))
                .collect();
            background.sort_by(|a, b| {
                recency[a.index()]
                    .partial_cmp(&recency[b.index()])
                    .unwrap()
                    .then_with(|| a.cmp(b))
            });
            for id in background {
                let size = catalog.size_of(id);
                if size <= leftover {
                    leftover -= size;
                    chosen.push(id);
                }
                if leftover == 0 {
                    break;
                }
            }
            chosen
        }
    };
    picks.sort_unstable();
    picks
}

/// A seeded script: catalog, then per round whether an update wave hits,
/// the requests, and the regional exclusion list in force (empty unless
/// `with_exclusions`).
struct Script {
    sizes: Vec<u64>,
    rounds: Vec<(bool, Vec<GeneratedRequest>, Vec<ObjectId>)>,
}

fn script(rng: &mut StreamRng, with_exclusions: bool) -> Script {
    let n = rng.random_range(1..=30u32);
    // A free (zero-size) object now and then: the hybrid's background
    // pass takes one even on an exhausted budget.
    let sizes = (0..n)
        .map(|_| rng.random_range(0u64..=7).saturating_sub(1))
        .collect();
    let rounds = (0..rng.random_range(4..=14usize))
        .map(|_| {
            let wave = rng.random_range(0..3u32) == 0;
            let requests = (0..rng.random_range(0..=50usize))
                .map(|_| GeneratedRequest {
                    object: ObjectId(rng.random_range(0..n)),
                    target_recency: rng.random_range(0.05f64..=1.0),
                })
                .collect();
            let excluded = (0..n)
                .filter(|_| with_exclusions && rng.random_range(0..4u32) == 0)
                .map(ObjectId)
                .collect();
            (wave, requests, excluded)
        })
        .collect();
    Script { sizes, rounds }
}

/// Drive a station under `policy` through `script`, checking every round
/// against [`reference_picks`] and a per-request serve.
fn assert_station_matches_reference(policy: Policy, script: &Script, label: &str) {
    let catalog = Catalog::from_sizes(&script.sizes);
    let mut station = StationBuilder::new(catalog.clone())
        .policy(policy)
        .build()
        .expect("valid configuration");
    for (round, (wave, requests, excluded)) in script.rounds.iter().enumerate() {
        if *wave {
            station.apply_update_wave();
        }
        station.set_plan_exclusions(excluded);
        let recency = station.estimated_recency_vec();
        let picks = reference_picks(policy, requests, &catalog, &recency, excluded);

        let outcome = station.step(requests);
        assert_eq!(station.last_downloaded(), picks, "{label} round {round}");
        assert!(
            picks.iter().all(|o| excluded.binary_search(o).is_err()),
            "{label} round {round}: fetched an excluded object"
        );
        let units: u64 = picks.iter().map(|&o| catalog.size_of(o)).sum();
        assert_eq!(outcome.units_downloaded, units, "{label} round {round}");
        // Served in request order: a fresh copy (recency 1) of what was
        // fetched, the cached copy as observed otherwise; the round's
        // average is the plain sum of the scores over their count.
        let mut score = 0.0;
        for r in requests {
            let fetched = picks.binary_search(&r.object).is_ok();
            let x = if fetched {
                1.0
            } else {
                recency[r.object.index()]
            };
            score += SCORING.score(x, r.target_recency);
        }
        let average = match requests.len() {
            0 => 1.0,
            n => score / n as f64,
        };
        assert_eq!(
            outcome.average_score.to_bits(),
            average.to_bits(),
            "{label} round {round}"
        );
    }
}

fn hybrid(solver: SolverChoice, budget_units: u64) -> Policy {
    Policy::Hybrid {
        planner: OnDemandPlanner::new(SCORING, solver),
        budget_units,
    }
}

fn knee(solver: SolverChoice, max_budget: u64, rng: &mut StreamRng) -> Policy {
    Policy::OnDemandAdaptive {
        planner: OnDemandPlanner::new(SCORING, solver),
        max_budget,
        window: rng.random_range(1..=8u64),
        threshold: [0.0, 0.01, 0.05, 0.3][rng.random_range(0..4usize)],
    }
}

#[test]
fn hybrid_rounds_match_the_allocating_api() {
    run_cases("policy_parity/hybrid", 96, |_, rng| {
        let script = script(rng, false);
        let budget = rng.random_range(0u64..=60);
        for solver in SOLVERS {
            assert_station_matches_reference(hybrid(solver, budget), &script, "hybrid");
        }
    });
}

#[test]
fn adaptive_budget_rounds_match_the_allocating_api() {
    run_cases("policy_parity/knee", 96, |_, rng| {
        let script = script(rng, false);
        let max_budget = rng.random_range(0u64..=90);
        for solver in SOLVERS {
            let policy = knee(solver, max_budget, rng);
            assert_station_matches_reference(policy, &script, "knee");
        }
    });
}

#[test]
fn lowest_recency_rounds_match_the_allocating_api() {
    run_cases("policy_parity/lowest_recency", 96, |_, rng| {
        let script = script(rng, false);
        let k_objects = rng.random_range(0..=12usize);
        let policy = Policy::OnDemandLowestRecency { k_objects };
        assert_station_matches_reference(policy, &script, "lowest-recency");
    });
}

#[test]
fn hybrid_honours_plan_exclusions() {
    run_cases("policy_parity/hybrid_excluded", 64, |_, rng| {
        let script = script(rng, true);
        let budget = rng.random_range(0u64..=60);
        for solver in SOLVERS {
            assert_station_matches_reference(hybrid(solver, budget), &script, "hybrid/l2");
        }
    });
}

#[test]
fn adaptive_budget_honours_plan_exclusions() {
    run_cases("policy_parity/knee_excluded", 64, |_, rng| {
        let script = script(rng, true);
        let max_budget = rng.random_range(0u64..=90);
        for solver in SOLVERS {
            let policy = knee(solver, max_budget, rng);
            assert_station_matches_reference(policy, &script, "knee/l2");
        }
    });
}
