//! Observation must never perturb the simulation: a station running
//! with a live [`StatsRecorder`] — or the full [`FlightRecorder`]
//! composition (stats + trace ring + round series + top-K attribution
//! behind a [`basecache_obs::Tee`]) — has to produce bit-identical
//! plans, downloads and scores to an uninstrumented station driven by
//! the same demand. The recorders only *read* the request path — any
//! divergence here means instrumentation leaked into the physics.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::recency::ScoringFunction;
use basecache_core::{Policy, StationBuilder};
use basecache_net::{Catalog, InFlightConfig, ObjectId};
use basecache_obs::{CausalConfig, CausalRecorder, FlightRecorder, Recorder, StatsRecorder};
use basecache_sim::RngStreams;
use basecache_workload::GeneratedRequest;

fn planner() -> OnDemandPlanner {
    OnDemandPlanner::new(ScoringFunction::InverseRatio)
}

#[test]
fn instrumented_runs_are_bit_identical_to_uninstrumented_ones() {
    let num_objects = 80u32;
    let mut rng = RngStreams::new(0x0B5).stream("obs/parity");
    let sizes: Vec<u64> = (0..num_objects)
        .map(|_| rng.random_range(1u64..=6))
        .collect();

    let mut plain = StationBuilder::new(Catalog::from_sizes(&sizes))
        .on_demand(planner(), 40)
        .build()
        .unwrap();
    let mut observed = StationBuilder::new(Catalog::from_sizes(&sizes))
        .on_demand(planner(), 40)
        .recorder(Box::new(StatsRecorder::new()))
        .build()
        .unwrap();
    // The full flight recorder: Tee(Stats, Tee(Trace, Tee(Series, TopK))).
    let mut flighted = StationBuilder::new(Catalog::from_sizes(&sizes))
        .on_demand(planner(), 40)
        .recorder(Box::new(FlightRecorder::new(1024, 16, 4)))
        .build()
        .unwrap();

    for t in 0..40u64 {
        if t % 4 == 0 {
            plain.apply_update_wave();
            observed.apply_update_wave();
            flighted.apply_update_wave();
        }
        let requests: Vec<GeneratedRequest> = (0..60)
            .map(|_| GeneratedRequest {
                object: ObjectId(rng.random_range(0..num_objects)),
                target_recency: rng.random_range(0.1f64..=1.0),
            })
            .collect();
        let a = plain.step(&requests);
        let b = observed.step(&requests);
        let c = flighted.step(&requests);
        assert_eq!(a, b, "tick {t}: outcomes diverged under observation");
        assert_eq!(
            a, c,
            "tick {t}: outcomes diverged under the flight recorder"
        );
        assert_eq!(
            plain.last_downloaded(),
            observed.last_downloaded(),
            "tick {t}: download plans diverged under observation"
        );
        assert_eq!(
            plain.last_downloaded(),
            flighted.last_downloaded(),
            "tick {t}: download plans diverged under the flight recorder"
        );
    }

    // Aggregate statistics agree to the last bit.
    for station in [&observed, &flighted] {
        assert_eq!(
            plain.stats().units_downloaded,
            station.stats().units_downloaded
        );
        assert_eq!(
            plain.stats().score.mean().map(f64::to_bits),
            station.stats().score.mean().map(f64::to_bits)
        );
    }

    // And the recorders actually saw the run: every stage of the round
    // is timed and the reduction's footprint is sampled.
    let snapshot = observed.obs_snapshot();
    assert_eq!(snapshot.counter("rounds"), Some(40));
    for stage in ["step", "recency", "plan", "solve", "refresh", "serve"] {
        assert!(snapshot.span(stage).is_some(), "no {stage} span");
    }
    for sample in ["solver_chosen", "items_fixed", "core_size"] {
        assert!(snapshot.sample(sample).is_some(), "no {sample}");
    }
    assert!(
        plain.obs_snapshot().is_empty(),
        "NullRecorder records nothing"
    );

    // Every planner-carrying policy solves on the kernel's scratch, so
    // its rounds report the same solve span and knapsack counters.
    let (hybrid, knee) = (
        Policy::Hybrid {
            planner: planner(),
            budget_units: 40,
        },
        Policy::OnDemandAdaptive {
            planner: planner(),
            max_budget: 40,
            window: 4,
            threshold: 0.01,
        },
    );
    for policy in [hybrid, knee] {
        let mut station = StationBuilder::new(Catalog::from_sizes(&sizes))
            .policy(policy)
            .recorder(Box::new(StatsRecorder::new()))
            .build()
            .unwrap();
        let requests: Vec<GeneratedRequest> = (0..num_objects)
            .map(|o| GeneratedRequest {
                object: ObjectId(o),
                target_recency: 1.0,
            })
            .collect();
        station.step(&requests);
        let seen = station.obs_snapshot();
        assert!(
            seen.span("solve").is_some()
                && seen.counter("knapsack_items") == Some(u64::from(num_objects))
                && seen.counter("dp_cells_touched") > Some(0),
            "{policy:?}: {:?}",
            seen.counters
        );
    }

    // The flight recorder saw the same aggregates *and* populated its
    // side channels: trace ring, round series, and top-K attribution.
    let fsnap = flighted.obs_snapshot();
    assert_eq!(fsnap.counter("rounds"), snapshot.counter("rounds"));
    assert_eq!(
        fsnap.counter("units_downloaded"),
        snapshot.counter("units_downloaded"),
        "the Stats leg of the Tee matches the standalone StatsRecorder"
    );
    assert!(
        !fsnap.attrs.is_empty(),
        "top-K attribution flowed through the Tee"
    );
    let flight = flighted
        .recorder()
        .as_any()
        .downcast_ref::<FlightRecorder>()
        .expect("built with a FlightRecorder");
    assert_eq!(flight.series().rounds_seen(), 40);
    assert!(!flight.trace().is_empty());
    let trace_json = flight.trace().to_chrome_trace();
    assert!(
        basecache_obs::json::parse(&trace_json).is_ok(),
        "exported trace is valid JSON"
    );
}

/// The causal composition (flight + lifecycle spans + AoI + invariant
/// monitor) on the multi-round transfer path, where lifecycle events
/// actually fire: still bit-identical outcomes, and a *correct* run
/// must leave every invariant check silent.
#[test]
fn causal_recorder_is_inert_on_the_flight_path_and_monitor_stays_clean() {
    let num_objects = 60u32;
    let budget = 30u64;
    let mut rng = RngStreams::new(0xCA5).stream("obs/causal_parity");
    let sizes: Vec<u64> = (0..num_objects)
        .map(|_| rng.random_range(1u64..=5))
        .collect();

    let build = |recorder: Option<Box<CausalRecorder>>| {
        let mut b = StationBuilder::new(Catalog::from_sizes(&sizes))
            .on_demand(planner(), budget)
            .in_flight(InFlightConfig::coalescing(budget / 2));
        if let Some(rec) = recorder {
            b = b.recorder(rec);
        }
        b.build().unwrap()
    };
    let mut plain = build(None);
    let mut causal = build(Some(Box::new(CausalRecorder::new(CausalConfig {
        num_objects: num_objects as usize,
        budget_units: Some(budget),
        ..CausalConfig::default()
    }))));

    for t in 0..50u64 {
        if t % 3 == 0 {
            plain.apply_update_wave();
            causal.apply_update_wave();
        }
        let requests: Vec<GeneratedRequest> = (0..50)
            .map(|_| GeneratedRequest {
                object: ObjectId(rng.random_range(0..num_objects)),
                target_recency: rng.random_range(0.1f64..=1.0),
            })
            .collect();
        let a = plain.step(&requests);
        let b = causal.step(&requests);
        assert_eq!(a, b, "tick {t}: outcomes diverged under CausalRecorder");
        assert_eq!(
            plain.last_downloaded(),
            causal.last_downloaded(),
            "tick {t}: download plans diverged under CausalRecorder"
        );
    }

    let rec = causal
        .recorder()
        .as_any()
        .downcast_ref::<CausalRecorder>()
        .expect("built with a CausalRecorder");
    // The lifecycle sink tracked real transfer spans...
    let spans = rec.lifecycle_spans().spans();
    assert!(!spans.is_empty(), "transfer spans were recorded");
    assert!(
        spans.iter().any(|s| s.served > 0),
        "some span served requests"
    );
    // ...the AoI sink saw serves against cached copies...
    let aoi_snapshot = rec.aoi().snapshot();
    assert!(
        aoi_snapshot.sample("aoi_at_serve").is_some(),
        "ages were observed at serve time"
    );
    // ...and a correct, instrumented run trips zero invariants — the
    // same checks the fault-injection suite proves *do* fire on seeded
    // bugs.
    assert!(
        rec.monitor().is_clean(),
        "clean run flagged violations: {:?}",
        rec.monitor().snapshot().counters
    );
}
