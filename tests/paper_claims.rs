//! The paper's qualitative claims, asserted end to end through the
//! public API (scaled-down parameters; the full-fidelity versions live
//! in `basecache-experiments`).

use basecache::core::bound::{budget_for_fraction, knee_budget};
use basecache::core::planner::OnDemandPlanner;
use basecache::core::profit::build_instance_from_scores;
use basecache::core::request::RequestBatch;
use basecache::core::StationBuilder;
use basecache::knapsack::DpByCapacity;
use basecache::net::Catalog;
use basecache::sim::RngStreams;
use basecache::workload::{
    Correlation, NumRequestsMode, Popularity, RequestGenerator, RequestTrace, Table1Spec,
    TargetRecency,
};

/// §3.1: "As the skew in client requests increases, the benefit to the
/// on-demand approach increases."
#[test]
fn claim_skew_increases_on_demand_savings() {
    let objects = 60;
    let mut downloads = Vec::new();
    for pop in [
        Popularity::Uniform,
        Popularity::LinearSkew,
        Popularity::ZIPF1,
    ] {
        let generator = RequestGenerator::new(pop.build(objects), 30, TargetRecency::AlwaysFresh);
        let mut rng = RngStreams::new(17).stream("claims/requests");
        let trace = RequestTrace::record(&generator, 100, &mut rng);
        let mut station = StationBuilder::new(Catalog::uniform_unit(objects))
            .on_demand_lowest_recency(usize::MAX)
            .build()
            .unwrap();
        for (t, batch) in trace.iter() {
            if t % 5 == 0 {
                station.apply_update_wave();
            }
            station.step(batch);
        }
        downloads.push(station.stats().units_downloaded);
    }
    assert!(
        downloads[0] > downloads[1] && downloads[1] > downloads[2],
        "downloads must fall with skew: {downloads:?}"
    );
}

/// §3.2: "no matter how frequently the base station downloads objects
/// from remote servers, the cache will never be completely up to date"
/// under the asynchronous approach — while the on-demand approach
/// "always accesses the most recent copies of some objects".
#[test]
fn claim_async_cache_is_never_fully_fresh_under_budget() {
    let objects = 50;
    let k = 10;
    let generator = RequestGenerator::new(
        Popularity::Uniform.build(objects),
        20,
        TargetRecency::AlwaysFresh,
    );
    let mut rng = RngStreams::new(23).stream("claims/requests");
    let trace = RequestTrace::record(&generator, 60, &mut rng);

    let mut asy = StationBuilder::new(Catalog::uniform_unit(objects))
        .async_round_robin(k)
        .build()
        .unwrap();
    let mut od = StationBuilder::new(Catalog::uniform_unit(objects))
        .on_demand_lowest_recency(k)
        .build()
        .unwrap();
    for (t, batch) in trace.iter() {
        // High update frequency: every time unit.
        let _ = t;
        asy.apply_update_wave();
        od.apply_update_wave();
        asy.step(batch);
        od.step(batch);
    }
    let asy_recency = asy.stats().recency.mean().unwrap();
    let od_recency = od.stats().recency.mean().unwrap();
    assert!(asy_recency < 0.9, "async can never keep up: {asy_recency}");
    assert!(
        od_recency > asy_recency,
        "on-demand ({od_recency}) must deliver fresher data than async ({asy_recency})"
    );
}

/// §4.2: "when the large objects are the ones with the highest
/// Cache_Recency_Score values, the Average Score will increase
/// dramatically when small objects are downloaded, and it will level
/// off" — against the gradual rise of the negative correlation.
#[test]
fn claim_correlation_direction_shapes_the_curve() {
    let base = Table1Spec {
        objects: 100,
        clients: 1000,
        total_size: Some(1000),
        num_requests: NumRequestsMode::Constant(10),
        size_recency: Correlation::None,
        size_num_requests: Correlation::None,
        recency_range: (0.1, 1.0),
    };
    let score_at = |corr: Correlation, budget: u64| -> f64 {
        let spec = Table1Spec {
            size_recency: corr,
            ..base
        };
        let pop = spec.generate(31);
        let mapped = build_instance_from_scores(&pop);
        let trace = DpByCapacity.solve_trace(mapped.instance(), 1000);
        mapped.average_score_for_value(trace.value_at(budget))
    };
    // At 20% of the budget, positive correlation is far ahead.
    let early_pos = score_at(Correlation::Positive, 200);
    let early_neg = score_at(Correlation::Negative, 200);
    assert!(
        early_pos > early_neg + 0.05,
        "positive {early_pos} must lead negative {early_neg} early on"
    );
    // Both finish at 1.0.
    assert!((score_at(Correlation::Positive, 1000) - 1.0).abs() < 1e-9);
    assert!((score_at(Correlation::Negative, 1000) - 1.0).abs() < 1e-9);
}

/// §6 (future work, implemented here): "under some circumstances there
/// is not a great benefit to downloading large amounts of data. In
/// these cases the techniques will choose a smaller upper bound."
#[test]
fn claim_budget_bound_selection_spends_less_when_gains_flatten() {
    let fast_knee = Table1Spec {
        objects: 100,
        clients: 1000,
        total_size: Some(1000),
        num_requests: NumRequestsMode::UniformInt { lo: 1, hi: 19 },
        size_recency: Correlation::Positive,
        size_num_requests: Correlation::Negative, // small objects hot
        recency_range: (0.1, 1.0),
    };
    let slow_knee = Table1Spec {
        size_recency: Correlation::Negative,
        size_num_requests: Correlation::Positive, // large objects hot
        ..fast_knee
    };
    let chosen = |spec: &Table1Spec| -> (u64, u64) {
        let pop = spec.generate(37);
        let mapped = build_instance_from_scores(&pop);
        let trace = DpByCapacity.solve_trace(mapped.instance(), 1000);
        (
            knee_budget(trace.values(), 20, 0.05),
            budget_for_fraction(trace.values(), 0.95),
        )
    };
    let (fast_k, fast_f) = chosen(&fast_knee);
    let (slow_k, slow_f) = chosen(&slow_knee);
    assert!(
        fast_k < slow_k,
        "knee budget must be smaller when small-hot objects converge fast ({fast_k} vs {slow_k})"
    );
    assert!(
        fast_f < slow_f,
        "95% budget must be smaller in the fast-converging scenario ({fast_f} vs {slow_f})"
    );
}

/// §2: "The score of any object accessed remotely is set to 1.0" and
/// profits reward popularity — two requests for the same stale object
/// outrank one request for an equally stale object of equal size.
#[test]
fn claim_popularity_breaks_ties() {
    let catalog = Catalog::from_sizes(&[3, 3]);
    let recency = [0.3, 0.3];
    let mut batch = RequestBatch::new();
    batch.push(basecache::net::ObjectId(0), 1.0);
    batch.push(basecache::net::ObjectId(1), 1.0);
    batch.push(basecache::net::ObjectId(1), 1.0);
    let plan = OnDemandPlanner::paper_default()
        .plan(&batch, &catalog, &recency, 3)
        .unwrap();
    assert_eq!(plan.downloads(), &[basecache::net::ObjectId(1)]);
}
