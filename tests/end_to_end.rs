//! End-to-end integration: workload generation → base-station simulation
//! → measurements, across every crate through the public facade.

use basecache::core::planner::{OnDemandPlanner, SolverChoice};
use basecache::core::recency::ScoringFunction;
use basecache::core::{Policy, StationBuilder};
use basecache::net::Catalog;
use basecache::sim::RngStreams;
use basecache::workload::{Popularity, RequestGenerator, RequestTrace, TargetRecency};

fn trace(objects: usize, per_tick: usize, ticks: usize, seed: u64) -> RequestTrace {
    let generator = RequestGenerator::new(
        Popularity::ZIPF1.build(objects),
        per_tick,
        TargetRecency::AlwaysFresh,
    );
    let mut rng = RngStreams::new(seed).stream("e2e/requests");
    RequestTrace::record(&generator, ticks, &mut rng)
}

fn run(policy: Policy, trace: &RequestTrace, objects: usize, update_period: u64) -> (u64, f64) {
    let mut station = StationBuilder::new(Catalog::uniform_unit(objects))
        .policy(policy)
        .build()
        .unwrap();
    for (t, batch) in trace.iter() {
        if (t as u64).is_multiple_of(update_period) {
            station.apply_update_wave();
        }
        station.step(batch);
    }
    (
        station.stats().units_downloaded,
        station.stats().score.mean().unwrap_or(1.0),
    )
}

#[test]
fn full_pipeline_is_deterministic_in_the_seed() {
    let t1 = trace(50, 30, 40, 7);
    let t2 = trace(50, 30, 40, 7);
    assert_eq!(t1, t2, "identical seeds give identical traces");

    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let a = run(
        Policy::OnDemand {
            planner,
            budget_units: 10,
        },
        &t1,
        50,
        5,
    );
    let b = run(
        Policy::OnDemand {
            planner,
            budget_units: 10,
        },
        &t2,
        50,
        5,
    );
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}

#[test]
fn different_seeds_give_different_traces() {
    assert_ne!(trace(50, 30, 40, 7), trace(50, 30, 40, 8));
}

#[test]
fn on_demand_beats_async_at_equal_budget() {
    // The paper's central claim, end to end: with the same per-tick
    // download allowance and the same demand, the on-demand policy
    // delivers a better average score than round-robin refresh.
    let t = trace(60, 25, 80, 11);
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let (od_units, od_score) = run(
        Policy::OnDemand {
            planner,
            budget_units: 5,
        },
        &t,
        60,
        2,
    );
    let (asy_units, asy_score) = run(Policy::AsyncRoundRobin { k_objects: 5 }, &t, 60, 2);
    assert!(
        od_score > asy_score,
        "on-demand score {od_score} must beat async {asy_score}"
    );
    // And it does so while downloading no more data.
    assert!(od_units <= asy_units, "od {od_units} > async {asy_units}");
}

#[test]
fn bigger_budgets_never_hurt_scores() {
    let t = trace(60, 25, 60, 3);
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let mut prev = -1.0;
    for budget in [0u64, 2, 5, 10, 25, 60] {
        let (_, score) = run(
            Policy::OnDemand {
                planner,
                budget_units: budget,
            },
            &t,
            60,
            2,
        );
        assert!(
            score >= prev - 0.01,
            "budget {budget}: score {score} < {prev}"
        );
        prev = score;
    }
}

#[test]
fn trace_text_roundtrip_preserves_simulation_results() {
    let t = trace(30, 10, 30, 9);
    let replayed = RequestTrace::from_text(&t.to_text()).expect("own output parses");
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let a = run(
        Policy::OnDemand {
            planner,
            budget_units: 4,
        },
        &t,
        30,
        5,
    );
    let b = run(
        Policy::OnDemand {
            planner,
            budget_units: 4,
        },
        &replayed,
        30,
        5,
    );
    assert_eq!(a, b, "archived traces replay to identical measurements");
}

#[test]
fn no_updates_means_everything_converges_to_fresh() {
    // If the server never updates, the cache warms up once and every
    // later request is served fresh with zero downloads.
    let t = trace(40, 20, 50, 13);
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let mut station = StationBuilder::new(Catalog::uniform_unit(40))
        .on_demand(planner, u64::MAX)
        .build()
        .unwrap();
    for (_, batch) in t.iter() {
        station.step(batch);
    }
    // After the warm phase the cache holds every requested object at
    // version 0 == server version: perfect scores, ≤ one download each.
    assert!(station.stats().units_downloaded <= 40);
    assert!(station.stats().score.mean().unwrap() > 0.99);
}
