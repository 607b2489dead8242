//! The station's recency column is maintained per change: the recency
//! stage recomputes only the objects the server updated or the station
//! wrote to its cache since the last round, and refills the whole
//! column only when the server reports "everything" (the first round,
//! an update wave) or an estimator needs it. The invariant is that the
//! maintained column equals a full recomputation, bit for bit, every
//! round; debug builds assert it inside the recency stage.
//!
//! These scripts drive every path that moves a copy's recency —
//! per-object updates (now and then more than a change list holds),
//! waves, batch and engine rounds on one station,
//! in-flight arrivals, an estimator station, and a cluster whose
//! regional L2 tier installs copies between rounds — so the debug
//! assertion sees each of them. Independently of it, every
//! instantaneous oracle round checks what its planner saw against a
//! full recomputation taken before the step: a batch round's downloads
//! against the exact DP over that recency, and an engine round's
//! observed column slot by slot.

mod common;

use basecache_cluster::{ClusterSim, L2Config};
use basecache_core::engine::RoundEngine;
use basecache_core::estimator::TtlEstimator;
use basecache_core::planner::OnDemandPlanner;
use basecache_core::recency::ScoringFunction;
use basecache_core::{BaseStationSim, StationBuilder};
use basecache_net::{ArbiterPolicy, BackhaulArbiter, Catalog, InFlightConfig, ObjectId};
use basecache_sim::check::run_cases;
use basecache_sim::{RngStreams, SimTime, StreamRng};
use basecache_workload::{
    ClusterWorkload, GeneratedRequest, MobilityModel, Popularity, TargetRecency,
};

use common::{exact_dp, Instance};

const OBJECTS: usize = 40;

fn catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 5).collect();
    Catalog::from_sizes(&sizes)
}

/// The three kinds of station a script runs.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    /// Oracle recency, instantaneous transfers: batch and engine
    /// rounds, each checked against a full recomputation.
    Instant,
    /// Oracle recency, multi-round transfers: arrivals write the cache
    /// at the head of the round, before the recency stage.
    InFlight,
    /// A TTL estimator plans: the column is refilled every round.
    Estimator,
}

fn build(kind: Kind, budget: u64, rng: &mut StreamRng) -> BaseStationSim {
    let builder =
        StationBuilder::new(catalog()).on_demand(OnDemandPlanner::paper_default(), budget);
    match kind {
        Kind::Instant => builder,
        Kind::InFlight => builder.in_flight(InFlightConfig::coalescing(rng.random_range(1..=4))),
        Kind::Estimator => builder.estimator(Box::new(TtlEstimator::new(rng.random_range(2..=6)))),
    }
    .build()
    .expect("valid configuration")
}

fn arb_batch(rng: &mut StreamRng) -> Vec<GeneratedRequest> {
    (0..rng.random_range(0..=50u32))
        .map(|_| GeneratedRequest {
            object: ObjectId(rng.random_range(0..OBJECTS as u32)),
            target_recency: rng.random_range(0.05f64..=1.0),
        })
        .collect()
}

/// What a script exercised, summed over its cases.
#[derive(Debug, Default)]
struct Coverage {
    engine_after_batch: usize,
    quiet_updated_rounds: usize,
    arrivals: usize,
}

/// One station under a random script of per-object updates, waves,
/// engine churn, and batch and engine rounds in random order.
fn run_station(kind: Kind, rng: &mut StreamRng, cover: &mut Coverage) {
    let budget = rng.random_range(3..=14);
    let mut station = build(kind, budget, rng);
    let mut engine = RoundEngine::new(station.catalog(), ScoringFunction::InverseRatio);
    for _ in 0..rng.random_range(20..=120u32) {
        engine.push_request(
            ObjectId(rng.random_range(0..OBJECTS as u32)),
            rng.random_range(0.05f64..=1.0),
        );
    }
    let mut last_was_batch = false;
    for round in 0..rng.random_range(12..=30u32) {
        let wave = rng.random_range(0..6u32) == 0;
        if wave {
            station.apply_update_wave();
        }
        // Now and then more updates than the catalog has objects: the
        // change lists run out of room and report "everything".
        let updates = if rng.random_range(0..8u32) == 0 {
            rng.random_range(25..=60u32)
        } else {
            rng.random_range(0..=5u32)
        };
        for _ in 0..updates {
            let now = SimTime::from_ticks(station.tick());
            let object = ObjectId(rng.random_range(0..OBJECTS as u32));
            station.server_mut().apply_update(object, now);
        }
        cover.quiet_updated_rounds += usize::from(!wave && updates > 0);
        for _ in 0..rng.random_range(0..=3u32) {
            engine.retarget(
                ObjectId(rng.random_range(0..OBJECTS as u32)),
                rng.next_u64(),
                rng.random_range(0.05f64..=1.0),
            );
        }
        // The recency the round's planner must see, recomputed whole.
        let truth = station.recency_vec();
        let engine_round = kind != Kind::Estimator && rng.random_range(0..3u32) != 0;
        let out = if engine_round {
            cover.engine_after_batch += usize::from(last_was_batch);
            let out = station.step_engine(&mut engine);
            if kind == Kind::Instant {
                engine.for_each_active(|a| {
                    assert_eq!(
                        a.recency.to_bits(),
                        truth[a.object.index()].to_bits(),
                        "round {round}: the engine observed a stale slot of {}",
                        a.object
                    );
                });
                let exact = exact_dp(&Instance::of_engine(&engine), budget);
                assert_eq!(station.last_downloaded(), exact.downloads, "round {round}");
            }
            out
        } else {
            let requests = arb_batch(rng);
            let out = station.step(&requests);
            if kind == Kind::Instant {
                let scoring = ScoringFunction::InverseRatio;
                let instance =
                    Instance::of_batch(&requests, station.catalog(), &truth, scoring, &[]);
                let exact = exact_dp(&instance, budget);
                assert_eq!(station.last_downloaded(), exact.downloads, "round {round}");
            }
            out
        };
        last_was_batch = !engine_round;
        cover.arrivals += usize::from(kind == Kind::InFlight && out.objects_downloaded > 0);
    }
}

#[test]
fn the_column_tracks_every_change_on_every_kind_of_station() {
    let mut cover = Coverage::default();
    run_cases("recency_column/station", 36, |case, rng| {
        let kind = [Kind::Instant, Kind::InFlight, Kind::Estimator][case as usize % 3];
        run_station(kind, rng, &mut cover);
    });
    assert!(cover.engine_after_batch > 0, "{cover:?}");
    assert!(cover.quiet_updated_rounds > 0, "{cover:?}");
    assert!(cover.arrivals > 0, "{cover:?}");
}

#[test]
fn the_column_tracks_l2_installs_between_cluster_rounds() {
    let mut quiet_installs = 0;
    run_cases("recency_column/cluster", 6, |_, rng| {
        let cells = rng.random_range(2..=5u32);
        let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 4).collect();
        let stations = (0..cells)
            .map(|_| {
                StationBuilder::new(Catalog::from_sizes(&sizes))
                    .on_demand(OnDemandPlanner::paper_default(), 0)
                    .build()
                    .expect("valid configuration")
            })
            .collect();
        let workload = ClusterWorkload::new(
            cells,
            12 * cells,
            Popularity::Uniform,
            Popularity::ZIPF1.build(OBJECTS),
            TargetRecency::Uniform { lo: 0.4, hi: 1.0 },
            2,
            MobilityModel::MarkovRing { move_prob: 0.2 },
            &RngStreams::new(rng.next_u64()),
        );
        let arbiter = BackhaulArbiter::new(
            ArbiterPolicy::ProportionalToDemand,
            rng.random_range(4..=30u64) * u64::from(cells),
        );
        let mut cluster = ClusterSim::new(stations, workload, arbiter)
            .expect("one station per cell")
            .with_l2(L2Config {
                intercell_units_per_round: rng.random_range(4..=40),
            });
        for _ in 0..40 {
            let wave = rng.random_range(0..4u32) == 0;
            if wave {
                cluster.apply_update_wave();
            }
            let outcome = cluster.step();
            quiet_installs += usize::from(!wave && outcome.l2_transfers > 0);
        }
    });
    assert!(
        quiet_installs > 0,
        "no L2 install landed on a round without a wave"
    );
}
