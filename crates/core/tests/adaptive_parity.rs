//! The adaptive reduction pipeline must be indistinguishable from the
//! paper's full-table DP: same chosen set, same profit bits, same
//! downstream station outcomes. These tests back the claim in
//! [`OnDemandPlanner::paper_default`]'s docs that switching the default
//! solve to [`SolverChoice::Adaptive`] changes nothing observable.
//!
//! "Identical" is always bit-for-bit, never tolerance: the adaptive
//! front-end either proves its answer matches the canonical DP
//! semantics (ascending-index profit fold, exclude-from-highest-index
//! tie-breaking) or falls back to the DP itself.

use basecache_core::planner::{OnDemandPlanner, SolverChoice};
use basecache_core::recency::ScoringFunction;
use basecache_core::scratch::PlannerScratch;
use basecache_core::{BaseStationSim, Policy, StationBuilder};
use basecache_net::{Catalog, CellId, ObjectId};
use basecache_obs::FlightRecorder;
use basecache_sim::{RngStreams, StreamRng};
use basecache_workload::{
    ClusterWorkload, GeneratedRequest, MobilityModel, Popularity, TargetRecency,
};

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

/// Every random round, under every scoring function, plans identically
/// through the exact DP and through the adaptive pipeline. Both
/// scratches persist across rounds, so buffers and lazily grown DP
/// tables left by unrelated previous rounds must never change the
/// answer.
#[test]
fn adaptive_rounds_are_bit_identical_to_exact_dp() {
    for scoring in [
        ScoringFunction::InverseRatio,
        ScoringFunction::Exponential,
        ScoringFunction::Step,
    ] {
        let exact = OnDemandPlanner::new(scoring, SolverChoice::ExactDp);
        let adaptive = OnDemandPlanner::new(scoring, SolverChoice::Adaptive);
        let mut dp_scratch = PlannerScratch::new();
        let mut ad_scratch = PlannerScratch::new();
        let mut rng = RngStreams::new(0xADA_9001).stream("core/adaptive-parity");
        for round in 0..150 {
            let (catalog, recency, requests, budget) = random_round(&mut rng);
            exact.plan_requests_into(&requests, &catalog, &recency, budget, &mut dp_scratch);
            adaptive.plan_requests_into(&requests, &catalog, &recency, budget, &mut ad_scratch);
            assert_eq!(
                ad_scratch.downloads(),
                dp_scratch.downloads(),
                "round {round} {scoring:?}: chosen set diverges"
            );
            assert_eq!(ad_scratch.download_size(), dp_scratch.download_size());
            assert_eq!(
                ad_scratch.achieved_value().to_bits(),
                dp_scratch.achieved_value().to_bits(),
                "round {round} {scoring:?}: profit bits diverge"
            );
        }
    }
}

/// The `paper_default` planner must agree with the DP on consecutive
/// correlated rounds too — a station's steady state, where each round's
/// downloads turn fresh and leave the next round's instance, solved on
/// a scratch kept warm from round to round.
#[test]
fn warm_started_correlated_rounds_stay_bit_identical() {
    let n = 30usize;
    let sizes: Vec<u64> = (0..n as u64).map(|i| 1 + i % 7).collect();
    let catalog = Catalog::from_sizes(&sizes);
    let exact = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let adaptive = OnDemandPlanner::paper_default();
    assert_eq!(adaptive.scoring(), ScoringFunction::InverseRatio);
    let mut dp_scratch = PlannerScratch::new();
    let mut ad_scratch = PlannerScratch::new();
    let mut recency: Vec<f64> = vec![0.0; n];
    let mut rng = RngStreams::new(0xADA_9002).stream("core/adaptive-warm");
    for round in 0..120 {
        // Correlated demand: a stable popular core plus noise, so
        // consecutive instances overlap.
        let requests: Vec<GeneratedRequest> = (0..40)
            .map(|_| GeneratedRequest {
                object: ObjectId(rng.random_range(0..n as u32 / 2) * 2 % n as u32),
                target_recency: rng.random_range(0.3f64..=1.0),
            })
            .collect();
        let budget = rng.random_range(5u64..=25);
        exact.plan_requests_into(&requests, &catalog, &recency, budget, &mut dp_scratch);
        adaptive.plan_requests_into(&requests, &catalog, &recency, budget, &mut ad_scratch);
        assert_eq!(
            ad_scratch.downloads(),
            dp_scratch.downloads(),
            "round {round}: chosen set diverges"
        );
        assert_eq!(
            ad_scratch.achieved_value().to_bits(),
            dp_scratch.achieved_value().to_bits(),
            "round {round}: profit bits diverge"
        );
        // Evolve the cache like a station would: downloads become
        // fresh, everything else decays.
        for r in &mut recency {
            *r = (*r - 0.12).max(0.0);
        }
        for &o in dp_scratch.downloads() {
            recency[o.index()] = 1.0;
        }
    }
}

const OBJECTS: usize = 60;

fn station_catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 5).collect();
    Catalog::from_sizes(&sizes)
}

fn planner_station(policy: &str, solver: SolverChoice, budget: u64) -> BaseStationSim {
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, solver);
    let policy = match policy {
        "on_demand" => Policy::OnDemand {
            planner,
            budget_units: budget,
        },
        "hybrid" => Policy::Hybrid {
            planner,
            budget_units: budget,
        },
        other => panic!("unknown planner policy {other}"),
    };
    StationBuilder::new(station_catalog())
        .policy(policy)
        .recorder(Box::new(FlightRecorder::new(512, 64, 8)))
        .build()
        .expect("valid configuration")
}

fn station_workload(seed: u64) -> ClusterWorkload {
    ClusterWorkload::new(
        1,
        30,
        Popularity::Uniform,
        Popularity::ZIPF1.build(OBJECTS),
        TargetRecency::Uniform { lo: 0.4, hi: 1.0 },
        2,
        MobilityModel::Stationary,
        &RngStreams::new(seed),
    )
}

/// Round-series rows as raw bits: bit-identical NaN markers compare
/// equal, any payload difference compares unequal.
fn series_bits(sim: &BaseStationSim) -> Vec<[u64; 8]> {
    sim.recorder()
        .as_any()
        .downcast_ref::<FlightRecorder>()
        .expect("a FlightRecorder was installed")
        .series()
        .rows()
        .iter()
        .map(|r| {
            [
                r.tick,
                r.batch_size.to_bits(),
                r.mean_score.to_bits(),
                r.hit_ratio.to_bits(),
                r.downlink_util.to_bits(),
                r.units_fetched,
                r.plan_profit.to_bits(),
                r.profit_bound.to_bits(),
            ]
        })
        .collect()
}

/// Downstream station outcomes are bit-identical under either solver,
/// for every policy that routes its downloads through the planner's
/// configured solver, and the reduction only ever removes DP work.
/// (`OnDemandAdaptive` is excluded by construction: its knee selection
/// always reads the full DP trace, so the solver choice never reaches
/// it.)
#[test]
fn station_outcomes_match_exact_dp_for_every_planner_policy() {
    let total_size = station_catalog().total_size();
    for (policy, budget) in [
        ("on_demand", 20u64),
        ("hybrid", 20),
        ("on_demand", 60),
        ("hybrid", 60),
    ] {
        let mut dp = planner_station(policy, SolverChoice::ExactDp, budget);
        let mut ad = planner_station(policy, SolverChoice::Adaptive, budget);
        let mut wl_dp = station_workload(41);
        let mut wl_ad = station_workload(41);
        for tick in 0..50u64 {
            if tick % 5 == 0 {
                dp.apply_update_wave();
                ad.apply_update_wave();
            }
            wl_dp.advance();
            wl_ad.advance();
            let out_dp = dp.step(wl_dp.batch(CellId(0)));
            let out_ad = ad.step(wl_ad.batch(CellId(0)));
            // RoundOutcome holds f64 scores; equality here is exact.
            assert_eq!(
                out_dp, out_ad,
                "{policy}/{budget}: tick {tick} outcome diverges"
            );
            assert_eq!(
                dp.last_downloaded(),
                ad.last_downloaded(),
                "{policy}/{budget}: tick {tick} download set diverges"
            );
        }
        assert_eq!(
            dp.stats(),
            ad.stats(),
            "{policy}/{budget}: accumulated stats diverge"
        );
        // The per-round series (scores, profits, utilization as raw
        // bits) matches row for row.
        let rows_dp = series_bits(&dp);
        assert!(!rows_dp.is_empty());
        assert_eq!(
            rows_dp,
            series_bits(&ad),
            "{policy}/{budget}: round series diverges"
        );

        // Both solvers face identical instances, so the reduction can
        // only remove DP work; once the budget caches a real share of
        // the catalog, profits are continuous and it must bite hard. A
        // missing counter means no DP table was ever swept.
        let cells =
            |sim: &BaseStationSim| sim.obs_snapshot().counter("dp_cells_touched").unwrap_or(0);
        let (cells_dp, cells_ad) = (cells(&dp), cells(&ad));
        assert!(cells_dp > 0, "{policy}/{budget}: the DP does table work");
        assert!(
            cells_ad <= cells_dp,
            "{policy}/{budget}: adaptive {cells_ad} exceeds DP {cells_dp} cells"
        );
        if budget * 8 >= total_size {
            assert!(
                (cells_ad as f64) < 0.6 * cells_dp as f64,
                "{policy}/{budget}: reduction saved too little: \
                 adaptive {cells_ad} vs DP {cells_dp} cells"
            );
        }
    }
}
