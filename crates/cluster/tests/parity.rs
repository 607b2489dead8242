//! The cluster's load-bearing guarantees, proved bit-for-bit:
//!
//! 1. Two clusters built from the same seed run identically — outcomes,
//!    per-cell stats, per-cell and cluster-level recorder state — so no
//!    hidden nondeterminism leaks into a round.
//! 2. An N=1 cluster with the full backhaul budget is identical to a
//!    bare `BaseStationSim` fed the same batches.
//! 3. A zero-budget cluster serves cache-only: no downlink deliveries,
//!    ever.
//!
//! "Identical" always means the deterministic observables: outcomes,
//! scores, counters, samples, attributions and round series. Span
//! *timings* are wall-clock and excluded by construction (the station
//! comparisons below strip them before asserting equality).

use basecache_cluster::{run_rounds, ClusterSim, DriveConfig};
use basecache_core::planner::{OnDemandPlanner, SolverChoice};
use basecache_core::recency::ScoringFunction;
use basecache_core::{BaseStationSim, StationBuilder};
use basecache_net::{ArbiterPolicy, BackhaulArbiter, Catalog, CellId};
use basecache_obs::{FlightRecorder, Snapshot};
use basecache_sim::RngStreams;
use basecache_workload::{ClusterWorkload, MobilityModel, Popularity, TargetRecency};

const OBJECTS: usize = 60;

fn catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 5).collect();
    Catalog::from_sizes(&sizes)
}

fn station(flight: bool) -> BaseStationSim {
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let builder = StationBuilder::new(catalog()).on_demand(planner, 0);
    let builder = if flight {
        builder.recorder(Box::new(FlightRecorder::new(512, 64, 8)))
    } else {
        builder
    };
    builder.build().expect("valid configuration")
}

fn workload(cells: u32, seed: u64) -> ClusterWorkload {
    ClusterWorkload::new(
        cells,
        25 * cells,
        Popularity::Uniform,
        Popularity::ZIPF1.build(OBJECTS),
        TargetRecency::Uniform { lo: 0.4, hi: 1.0 },
        2,
        MobilityModel::MarkovRing { move_prob: 0.2 },
        &RngStreams::new(seed),
    )
}

fn cluster(cells: u32, seed: u64, policy: ArbiterPolicy, budget: u64, flight: bool) -> ClusterSim {
    let stations: Vec<BaseStationSim> = (0..cells).map(|_| station(flight)).collect();
    let sim = ClusterSim::new(
        stations,
        workload(cells, seed),
        BackhaulArbiter::new(policy, budget),
    )
    .expect("cell counts match");
    if flight {
        sim.with_recorder(Box::new(FlightRecorder::new(512, 64, 8)))
    } else {
        sim
    }
}

/// A snapshot with the wall-clock span timings stripped: everything
/// left is deterministic and must match bit-for-bit across runs.
fn deterministic(snapshot: &Snapshot) -> Snapshot {
    let mut s = snapshot.clone();
    s.spans.clear();
    s
}

fn flight_of(recorder: &dyn basecache_obs::Recorder) -> &FlightRecorder {
    recorder
        .as_any()
        .downcast_ref::<FlightRecorder>()
        .expect("a FlightRecorder was installed")
}

/// Round-series rows as raw bits, so that bit-identical NaNs (the
/// series' "not sampled" marker) compare equal and any payload
/// difference — even in the last mantissa bit — compares unequal.
fn series_bits(recorder: &dyn basecache_obs::Recorder) -> Vec<[u64; 8]> {
    flight_of(recorder)
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

#[test]
fn identically_seeded_clusters_are_bit_identical() {
    for policy in [
        ArbiterPolicy::Static,
        ArbiterPolicy::ProportionalToDemand,
        ArbiterPolicy::WaterFilling,
    ] {
        let mut first = cluster(16, 99, policy, 300, true);
        let mut second = cluster(16, 99, policy, 300, true);

        let config = DriveConfig {
            rounds: 30,
            wave_every: Some(5),
        };
        let a = run_rounds(&mut first, config);
        let b = run_rounds(&mut second, config);
        assert_eq!(a, b, "{policy:?}: aggregate outcomes diverge");
        assert_eq!(
            first.last_outcomes(),
            second.last_outcomes(),
            "{policy:?}: per-cell outcomes diverge"
        );
        assert_eq!(first.last_budgets(), second.last_budgets());
        assert_eq!(first.last_demands(), second.last_demands());
        for i in 0..16 {
            let cell = CellId(i);
            assert_eq!(
                first.station(cell).stats(),
                second.station(cell).stats(),
                "{policy:?}: cell {i} stats diverge"
            );
            // Per-cell flight recorders: deterministic sections match.
            assert_eq!(
                deterministic(&first.station(cell).obs_snapshot()),
                deterministic(&second.station(cell).obs_snapshot()),
                "{policy:?}: cell {i} snapshot diverges"
            );
        }
        // Cluster-level flight recorders: full snapshot (no spans are
        // ever recorded at cluster level) plus the round series.
        assert_eq!(first.obs_snapshot(), second.obs_snapshot());
        let first_rows = series_bits(first.recorder());
        let second_rows = series_bits(second.recorder());
        assert!(!first_rows.is_empty());
        assert_eq!(first_rows, second_rows, "{policy:?}: round series diverges");
    }
}

#[test]
fn single_cell_cluster_with_full_budget_matches_bare_station() {
    let budget = 40u64;
    let rounds = 40u64;
    let wave_every = 5u64;

    let bare_workload = workload(1, 7);
    let mut bare = station(true);
    bare.set_download_budget(budget)
        .expect("a small plan table");

    let mut cluster = ClusterSim::new(
        vec![station(true)],
        workload(1, 7),
        BackhaulArbiter::new(ArbiterPolicy::Static, budget),
    )
    .expect("one station, one cell");

    // Drive the bare station through the identical schedule: wave
    // before the round at every multiple of `wave_every` (as
    // `run_rounds` does), identical batches from a cloned workload.
    let mut bare_workload = bare_workload;
    for tick in 0..rounds {
        if tick > 0 && tick % wave_every == 0 {
            bare.apply_update_wave();
            cluster.apply_update_wave();
        }
        bare_workload.advance();
        let bare_outcome = bare.step(bare_workload.batch(CellId(0)));
        let aggregate = cluster.step();
        // The cell's RoundOutcome is the same physical struct the bare
        // station returned: bit-identical, scores included.
        assert_eq!(bare_outcome, cluster.last_outcomes()[0], "tick {tick}");
        assert_eq!(aggregate.served, bare_outcome.served);
        assert_eq!(aggregate.cache_hits, bare_outcome.cache_hits);
        assert_eq!(aggregate.units_downloaded, bare_outcome.units_downloaded);
        assert_eq!(
            cluster.last_budgets(),
            &[budget],
            "static split gives the lone cell everything"
        );
    }
    assert_eq!(bare.stats(), cluster.station(CellId(0)).stats());
    // The cell's flight recorder saw exactly what the bare station's
    // did (modulo wall-clock span timings).
    assert_eq!(
        deterministic(&bare.obs_snapshot()),
        deterministic(&cluster.station(CellId(0)).obs_snapshot())
    );
    let bare_rows = series_bits(bare.recorder());
    let cell_rows = series_bits(cluster.station(CellId(0)).recorder());
    assert!(!bare_rows.is_empty());
    assert_eq!(bare_rows, cell_rows);
}

#[test]
fn zero_budget_cluster_serves_cache_only() {
    let mut sim = cluster(4, 21, ArbiterPolicy::WaterFilling, 0, false);
    let outcomes = run_rounds(
        &mut sim,
        DriveConfig {
            rounds: 20,
            wave_every: Some(4),
        },
    );
    for out in &outcomes {
        assert!(out.served > 0, "clients kept requesting");
        assert_eq!(out.units_downloaded, 0, "no downlink deliveries");
        assert_eq!(out.objects_downloaded, 0);
        assert_eq!(out.budget_units, 0);
        assert_eq!(
            out.cache_hits, out.served,
            "every serve came from the (empty or stale) cache"
        );
        assert!(out.average_score < 1.0, "staleness is honestly scored");
    }
    for i in 0..4 {
        let st = sim.station(CellId(i));
        assert_eq!(st.stats().units_downloaded, 0);
        assert_eq!(st.cache().len(), 0, "nothing was ever cached");
    }
}

#[test]
fn mismatched_cell_count_is_rejected() {
    let err = ClusterSim::new(
        vec![station(false)],
        workload(2, 1),
        BackhaulArbiter::new(ArbiterPolicy::Static, 10),
    )
    .unwrap_err();
    assert_eq!(
        err,
        basecache_cluster::ClusterError::CellCountMismatch {
            stations: 1,
            cells: 2
        }
    );
}

#[test]
fn workload_over_more_objects_than_a_catalog_is_rejected() {
    // Cell 1's station holds 60 objects; the workload draws from 61. A
    // round would index past the station's per-object tables.
    let wide = ClusterWorkload::new(
        2,
        50,
        Popularity::Uniform,
        Popularity::ZIPF1.build(OBJECTS + 1),
        TargetRecency::AlwaysFresh,
        2,
        MobilityModel::Stationary,
        &RngStreams::new(3),
    );
    let roomy = StationBuilder::new(Catalog::from_sizes(&[1; OBJECTS + 1]))
        .on_demand(OnDemandPlanner::paper_default(), 0)
        .build()
        .expect("valid configuration");
    let err = ClusterSim::new(
        vec![roomy, station(false)],
        wide,
        BackhaulArbiter::new(ArbiterPolicy::Static, 10),
    )
    .unwrap_err();
    assert_eq!(
        err,
        basecache_cluster::ClusterError::CatalogTooSmall {
            cell: 1,
            catalog: OBJECTS,
            requested: OBJECTS + 1
        }
    );
    assert!(err.to_string().contains("cell 1"), "{err}");
}

#[test]
fn a_backhaul_budget_past_a_cells_plan_table_bound_is_rejected() {
    // Any cell may be handed the whole budget: at 1.2·10¹⁰ units cell
    // 1's catalog of ~10⁹-unit objects needs a ~90 GB plan table.
    let huge: Vec<u64> = (0..OBJECTS as u64).map(|i| 1_000_000_000 + i).collect();
    let heavy = StationBuilder::new(Catalog::from_sizes(&huge))
        .on_demand(OnDemandPlanner::paper_default(), 0)
        .build()
        .expect("a zero budget plans nothing");
    let err = ClusterSim::new(
        vec![station(false), heavy],
        workload(2, 1),
        BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, 12_000_000_000),
    )
    .unwrap_err();
    assert_eq!(
        err,
        basecache_cluster::ClusterError::BudgetRefused {
            cell: 1,
            error: basecache_core::Error::Config(basecache_core::ConfigError::PlanTableTooLarge {
                items: OBJECTS,
                capacity: 12_000_000_000,
            }),
        }
    );
    assert!(err.to_string().contains("cell 1"), "{err}");
}

#[test]
fn arbitration_steers_budget_toward_demand() {
    // Skewed placement concentrates clients (hence demand) in low
    // cells; proportional arbitration must allocate them more budget
    // than the static split does.
    let make = |policy| {
        let stations: Vec<BaseStationSim> = (0..4).map(|_| station(false)).collect();
        let wl = ClusterWorkload::new(
            4,
            200,
            Popularity::ZIPF1,
            Popularity::ZIPF1.build(OBJECTS),
            TargetRecency::AlwaysFresh,
            2,
            MobilityModel::Stationary,
            &RngStreams::new(13),
        );
        ClusterSim::new(stations, wl, BackhaulArbiter::new(policy, 60)).unwrap()
    };
    let mut prop = make(ArbiterPolicy::ProportionalToDemand);
    let config = DriveConfig {
        rounds: 12,
        wave_every: Some(3),
    };
    run_rounds(&mut prop, config);
    let budgets = prop.last_budgets();
    let demands = prop.last_demands();
    assert!(
        demands[0] > demands[3],
        "zipf placement concentrates demand: {demands:?}"
    );
    assert!(
        budgets[0] > budgets[3],
        "proportional arbitration follows demand: {budgets:?}"
    );

    let mut stat = make(ArbiterPolicy::Static);
    run_rounds(&mut stat, config);
    let even = stat.last_budgets();
    assert_eq!(even.iter().max(), even.iter().min(), "static stays even");
}
