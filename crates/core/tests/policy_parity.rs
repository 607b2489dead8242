//! One planner per round, checked against a reference, not a twin.
//!
//! A station round plans every policy on the kernel's reusable scratch.
//! This suite re-derives each round's picks for every policy that plans
//! from the round's requests, written here once as test code: every
//! knapsack pick — the on-demand round, the hybrid's pull half, the
//! adaptive budget's knee — is [`DpByCapacity`]'s on the instance
//! rebuilt through [`build_instance`](basecache_core::profit::build_instance),
//! and the lowest-recency pick is [`LowestRecencyFirst`]'s. The
//! station's downloads, units, plan value and average score must agree
//! to the last bit, over seeded random scripts. The same derivation
//! with a regional exclusion list pins that every planner-carrying
//! policy honours `set_plan_exclusions`.

mod common;

use basecache_core::bound::knee_budget;
use basecache_core::planner::{LowestRecencyFirst, OnDemandPlanner};
use basecache_core::recency::ScoringFunction;
use basecache_core::{Policy, RequestBatch, StationBuilder};
use basecache_knapsack::{DpByCapacity, DpScratch};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::check::run_cases;
use basecache_sim::metrics::Sums;
use basecache_sim::StreamRng;
use basecache_workload::GeneratedRequest;

use common::{exact_dp, last_solve, Instance, SolveProbe};

const SCORING: ScoringFunction = ScoringFunction::InverseRatio;

/// What `policy` downloads for `requests` given the recency the planner
/// sees, and the value of its knapsack pick under a planner-carrying
/// policy. `excluded` objects (ascending) may not be fetched: they
/// never reach the knapsack and the hybrid's background pass skips
/// them.
fn reference_picks(
    policy: Policy,
    requests: &[GeneratedRequest],
    catalog: &Catalog,
    recency: &[f64],
    excluded: &[ObjectId],
) -> (Vec<ObjectId>, Option<f64>) {
    let fetchable = |o: &ObjectId| excluded.binary_search(o).is_err();
    let instance = Instance::of_batch(requests, catalog, recency, SCORING, excluded);
    let (mut picks, value) = match policy {
        Policy::AsyncRoundRobin { .. } => {
            unreachable!("a round-robin round does not plan from its requests")
        }
        Policy::OnDemand { budget_units, .. } => {
            let exact = exact_dp(&instance, budget_units);
            (exact.downloads, Some(exact.value))
        }
        Policy::OnDemandLowestRecency { k_objects } => {
            let batch = RequestBatch::from_generated(requests);
            (LowestRecencyFirst.select(&batch, recency, k_objects), None)
        }
        Policy::OnDemandAdaptive {
            max_budget,
            window,
            threshold,
            ..
        } => {
            let mut dp = DpScratch::new();
            DpByCapacity.solve_trace_into(&instance.items, max_budget, &mut dp);
            let knee = knee_budget(dp.values(), window, threshold);
            let value = dp.value_at(knee);
            let chosen = dp.solution_indices_at(knee);
            let picks = chosen.iter().map(|&i| instance.objects[i]).collect();
            (picks, Some(value))
        }
        Policy::Hybrid { budget_units, .. } => {
            let exact = exact_dp(&instance, budget_units);
            let mut chosen = exact.downloads;
            let mut leftover = budget_units.saturating_sub(exact.size);
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
            (chosen, Some(exact.value))
        }
    };
    picks.sort_unstable();
    (picks, value)
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
        .recorder(Box::new(SolveProbe::default()))
        .build()
        .expect("valid configuration");
    for (round, (wave, requests, excluded)) in script.rounds.iter().enumerate() {
        if *wave {
            station.apply_update_wave();
        }
        station.set_plan_exclusions(excluded);
        let recency = station.estimated_recency_vec();
        let (picks, value) = reference_picks(policy, requests, &catalog, &recency, excluded);

        let outcome = station.step(requests);
        assert_eq!(station.last_downloaded(), picks, "{label} round {round}");
        assert!(
            picks.iter().all(|o| excluded.binary_search(o).is_err()),
            "{label} round {round}: fetched an excluded object"
        );
        let units: u64 = picks.iter().map(|&o| catalog.size_of(o)).sum();
        assert_eq!(outcome.units_downloaded, units, "{label} round {round}");
        if let Some(value) = value {
            assert_eq!(
                last_solve(&station).0.to_bits(),
                value.to_bits(),
                "{label} round {round}: plan value"
            );
        }
        // Served: a fresh copy (recency 1) of what was fetched, the
        // cached copy as observed otherwise. Each request is scored on
        // its own, in grid steps, and tallied in request order: the
        // station tallies per object, and an integer sum is the same in
        // any order.
        let mut score = Sums::new();
        for r in requests {
            let fetched = picks.binary_search(&r.object).is_ok();
            let x = if fetched {
                1.0
            } else {
                recency[r.object.index()]
            };
            score.push_n(SCORING.score_steps(x, r.target_recency), 1);
        }
        assert_eq!(
            outcome.average_score.to_bits(),
            score.mean().unwrap_or(1.0).to_bits(),
            "{label} round {round}"
        );
    }
}

fn on_demand(budget_units: u64) -> Policy {
    Policy::OnDemand {
        planner: OnDemandPlanner::new(SCORING),
        budget_units,
    }
}

fn hybrid(budget_units: u64) -> Policy {
    Policy::Hybrid {
        planner: OnDemandPlanner::new(SCORING),
        budget_units,
    }
}

fn knee(max_budget: u64, rng: &mut StreamRng) -> Policy {
    Policy::OnDemandAdaptive {
        planner: OnDemandPlanner::new(SCORING),
        max_budget,
        window: rng.random_range(1..=8u64),
        threshold: [0.0, 0.01, 0.05, 0.3][rng.random_range(0..4usize)],
    }
}

#[test]
fn on_demand_rounds_match_the_exact_dp() {
    run_cases("policy_parity/on_demand", 96, |_, rng| {
        let script = script(rng, false);
        let budget = rng.random_range(0u64..=60);
        assert_station_matches_reference(on_demand(budget), &script, "on-demand");
    });
}

#[test]
fn hybrid_rounds_match_the_allocating_api() {
    run_cases("policy_parity/hybrid", 96, |_, rng| {
        let script = script(rng, false);
        let budget = rng.random_range(0u64..=60);
        assert_station_matches_reference(hybrid(budget), &script, "hybrid");
    });
}

#[test]
fn adaptive_budget_rounds_match_the_allocating_api() {
    run_cases("policy_parity/knee", 96, |_, rng| {
        let script = script(rng, false);
        let max_budget = rng.random_range(0u64..=90);
        let policy = knee(max_budget, rng);
        assert_station_matches_reference(policy, &script, "knee");
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
fn on_demand_honours_plan_exclusions() {
    run_cases("policy_parity/on_demand_excluded", 64, |_, rng| {
        let script = script(rng, true);
        let budget = rng.random_range(0u64..=60);
        assert_station_matches_reference(on_demand(budget), &script, "on-demand/l2");
    });
}

#[test]
fn hybrid_honours_plan_exclusions() {
    run_cases("policy_parity/hybrid_excluded", 64, |_, rng| {
        let script = script(rng, true);
        let budget = rng.random_range(0u64..=60);
        assert_station_matches_reference(hybrid(budget), &script, "hybrid/l2");
    });
}

#[test]
fn adaptive_budget_honours_plan_exclusions() {
    run_cases("policy_parity/knee_excluded", 64, |_, rng| {
        let script = script(rng, true);
        let max_budget = rng.random_range(0u64..=90);
        let policy = knee(max_budget, rng);
        assert_station_matches_reference(policy, &script, "knee/l2");
    });
}
