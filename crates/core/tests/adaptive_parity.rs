//! The planner's solve must be indistinguishable from the paper's
//! full-table DP: every round it plans is checked against
//! [`DpByCapacity`] on the same instance, rebuilt outside the planner —
//! same chosen set, same download size, same profit bits — and the
//! reduction in front of the DP may only ever save DP cells.
//!
//! "Identical" is always bit-for-bit, never tolerance: the adaptive
//! solver either proves its answer matches the canonical DP semantics
//! (ascending-index profit fold, exclude-from-highest-index
//! tie-breaking) or runs the DP over the core its bounds leave.

mod common;

use basecache_core::planner::OnDemandPlanner;
use basecache_core::recency::ScoringFunction;
use basecache_core::scratch::PlannerScratch;
use basecache_core::{BaseStationSim, Policy, StationBuilder};
use basecache_net::{Catalog, CellId, ObjectId};
use basecache_sim::{RngStreams, StreamRng};
use basecache_workload::{
    ClusterWorkload, GeneratedRequest, MobilityModel, Popularity, TargetRecency,
};

use common::{exact_dp, last_solve, Exact, Instance, SolveProbe};

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

/// Plan one round on `scratch` and check it against the exact DP on
/// the instance rebuilt from the same requests. Returns the DP cells
/// the planner swept and the cells the full DP sweeps.
fn plan_and_check(
    planner: OnDemandPlanner,
    round: (&Catalog, &[f64], &[GeneratedRequest], u64),
    scratch: &mut PlannerScratch,
    label: &str,
) -> (u64, u64) {
    let (catalog, recency, requests, budget) = round;
    let probe = SolveProbe::default();
    planner
        .plan_requests_recorded(requests, catalog, recency, budget, scratch, &probe)
        .expect("a small table");
    let instance = Instance::of_batch(requests, catalog, recency, planner.scoring(), &[]);
    let exact = exact_dp(&instance, budget);
    assert_eq!(
        scratch.downloads(),
        exact.downloads,
        "{label}: chosen set diverges"
    );
    assert_eq!(scratch.download_size(), exact.size, "{label}: size");
    assert_eq!(
        scratch.achieved_value().to_bits(),
        exact.value.to_bits(),
        "{label}: profit bits diverge"
    );
    (probe.last().1, exact.cells)
}

/// Every random round, under every scoring function, plans what the
/// exact DP picks. The scratch persists across rounds, so buffers and
/// lazily grown DP tables left by unrelated previous rounds must never
/// change the answer.
#[test]
fn adaptive_rounds_are_bit_identical_to_exact_dp() {
    for scoring in [
        ScoringFunction::InverseRatio,
        ScoringFunction::Exponential,
        ScoringFunction::Step,
    ] {
        let planner = OnDemandPlanner::new(scoring);
        let mut scratch = PlannerScratch::new();
        let (mut cells, mut dp_cells) = (0, 0);
        let mut rng = RngStreams::new(0xADA_9001).stream("core/adaptive-parity");
        for round in 0..150 {
            let (catalog, recency, requests, budget) = random_round(&mut rng);
            let label = format!("round {round} {scoring:?}");
            let round = (&catalog, &recency[..], &requests[..], budget);
            let (c, d) = plan_and_check(planner, round, &mut scratch, &label);
            cells += c;
            dp_cells += d;
        }
        assert!(
            cells <= dp_cells,
            "{scoring:?}: the planner swept {cells} cells, the full DP {dp_cells}"
        );
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
    let planner = OnDemandPlanner::paper_default();
    assert_eq!(planner.scoring(), ScoringFunction::InverseRatio);
    let mut scratch = PlannerScratch::new();
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
        let label = format!("round {round}");
        plan_and_check(
            planner,
            (&catalog, &recency, &requests, budget),
            &mut scratch,
            &label,
        );
        // Evolve the cache like a station would: downloads become
        // fresh, everything else decays.
        for r in &mut recency {
            *r = (*r - 0.12).max(0.0);
        }
        for &o in scratch.downloads() {
            recency[o.index()] = 1.0;
        }
    }
}

/// Check the on-demand round `station` just stepped against `exact`:
/// the same downloads, units and value bits, and the cells its solve
/// swept. Returns those cells, for the caller to compare with
/// `exact.cells` over a run.
fn assert_round_is_exact(
    station: &BaseStationSim,
    units_downloaded: u64,
    exact: &Exact,
    label: &str,
) -> u64 {
    let (value, cells) = last_solve(station);
    assert_eq!(
        station.last_downloaded(),
        exact.downloads,
        "{label}: chosen set diverges from the exact DP"
    );
    assert_eq!(units_downloaded, exact.size, "{label}: download size");
    assert_eq!(
        value.to_bits(),
        exact.value.to_bits(),
        "{label}: value bits diverge from the exact DP"
    );
    cells
}

const OBJECTS: usize = 60;

fn station_catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 5).collect();
    Catalog::from_sizes(&sizes)
}

fn planner_station(policy: &str, budget: u64) -> BaseStationSim {
    let planner = OnDemandPlanner::paper_default();
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
        .recorder(Box::new(SolveProbe::default()))
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

/// Every round of a station running a policy that solves through the
/// planner plans what the exact DP picks on the instance rebuilt from
/// the round's requests — all of the on-demand round's downloads, the
/// pull half of the hybrid's — and the reduction only ever removes DP
/// work. (`OnDemandAdaptive` reads the DP's own trace; its knee is
/// `policy_parity.rs`'s.)
#[test]
fn station_outcomes_match_exact_dp_for_every_planner_policy() {
    let total_size = station_catalog().total_size();
    for (policy, budget) in [
        ("on_demand", 20u64),
        ("hybrid", 20),
        ("on_demand", 60),
        ("hybrid", 60),
    ] {
        let mut station = planner_station(policy, budget);
        let mut workload = station_workload(41);
        let (mut cells, mut dp_cells) = (0, 0);
        for tick in 0..50u64 {
            if tick % 5 == 0 {
                station.apply_update_wave();
            }
            workload.advance();
            let requests = workload.batch(CellId(0));
            let recency = station.estimated_recency_vec();
            let out = station.step(requests);
            let instance = Instance::of_batch(
                requests,
                station.catalog(),
                &recency,
                ScoringFunction::InverseRatio,
                &[],
            );
            let exact = exact_dp(&instance, budget);
            let label = format!("{policy}/{budget}: tick {tick}");
            cells += if policy == "on_demand" {
                assert_round_is_exact(&station, out.units_downloaded, &exact, &label)
            } else {
                // The hybrid pushes its leftover behind the pull half.
                let (value, cells) = last_solve(&station);
                assert_eq!(value.to_bits(), exact.value.to_bits(), "{label}");
                let pulled = exact
                    .downloads
                    .iter()
                    .all(|o| station.last_downloaded().binary_search(o).is_ok());
                assert!(pulled, "{label}: the pull half diverges");
                cells
            };
            dp_cells += exact.cells;
        }

        // The reduction can only remove DP work; once the budget caches
        // a real share of the catalog, profits are continuous and it
        // must bite hard.
        assert!(dp_cells > 0, "{policy}/{budget}: the DP does table work");
        assert!(
            cells <= dp_cells,
            "{policy}/{budget}: adaptive {cells} exceeds DP {dp_cells} cells"
        );
        if budget * 8 >= total_size {
            assert!(
                (cells as f64) < 0.6 * dp_cells as f64,
                "{policy}/{budget}: reduction saved too little: \
                 adaptive {cells} vs DP {dp_cells} cells"
            );
        }
    }
}
