//! The planner benchmark suite: the full per-round pipeline (batch →
//! profit mapping → knapsack → plan) across scales, against the paper's
//! full-table DP on the same mapping, plus the profit-mapping and
//! budget-bound stages in isolation — and the observability layer's
//! overhead, measured both ways (no-op recorder vs a live
//! [`StatsRecorder`]).
//!
//! The headline comparison is the Table-1-scale planning round (500
//! objects, budget 5000 data units, 5000 client requests) two ways: the
//! allocating batch API, and the allocation-free `plan_requests_into`
//! path on a persistent [`PlannerScratch`]. The measured medians, the
//! recorder overhead ratios and a per-stage breakdown of the
//! instrumented round are written to `BENCH_planner.json` at the repo
//! root.
//!
//! Shared by `benches/planner.rs` (`cargo bench`) and the
//! `basecache-bench` binary (`cargo run -p basecache-bench --release`).

use std::hint::black_box;

use basecache_core::bound::{budget_for_fraction, knee_budget};
use basecache_core::planner::{LowestRecencyFirst, OnDemandPlanner};
use basecache_core::profit::build_instance;
use basecache_core::recency::ScoringFunction;
use basecache_core::request::RequestBatch;
use basecache_core::scratch::PlannerScratch;
use basecache_core::{Policy, StationBuilder};
use basecache_experiments::ext_flash_crowd;
use basecache_knapsack::{DpByCapacity, Solver};
use basecache_net::InFlightConfig;
use basecache_obs::{
    AoiRecorder, CausalConfig, CausalRecorder, LifecycleEvent, LifecycleRecorder, Recorder,
    Snapshot, StatsRecorder, Transition,
};

use crate::harness::{bench, bench_n, Measurement};
use crate::{planning_requests, planning_round};

/// Table-1 scale for the headline round comparison.
const OBJECTS: usize = 500;
const REQUESTS: usize = 5000;
const BUDGET: u64 = 5000;

fn bench_round_paths(results: &mut Vec<Measurement>) -> (f64, f64) {
    let (generated, catalog, recency) = planning_requests(OBJECTS, REQUESTS, 77);
    let planner = OnDemandPlanner::paper_default();

    // The allocating batch API.
    let batch_path = bench("planner/round/batch_alloc", || {
        let batch = RequestBatch::from_generated(&generated);
        black_box(planner.plan(&batch, &catalog, &recency, BUDGET))
    });

    // The allocation-free path: persistent scratch, aggregated items,
    // reusable solver tables. `plan_requests_into` routes through the
    // recorded path with the no-op recorder, so this measurement IS the
    // instrumentation-off cost.
    let mut scratch = PlannerScratch::new();
    scratch.reserve(catalog.len(), BUDGET);
    let adaptive_path = bench("planner/round/adaptive", || {
        let planned =
            planner.plan_requests_into(&generated, &catalog, &recency, BUDGET, &mut scratch);
        black_box((planned, scratch.achieved_value()))
    });

    // The same round with a live StatsRecorder: counters, distributions
    // and span clocks all on.
    let recorder = StatsRecorder::new();
    let observed_path = bench("planner/round/scratch_reuse_observed", || {
        let planned = planner.plan_requests_recorded(
            &generated,
            &catalog,
            &recency,
            BUDGET,
            &mut scratch,
            &recorder,
        );
        black_box((planned, scratch.achieved_value()))
    });

    // And with the full flight recorder — stats + trace ring + round
    // series + top-K attribution behind the Tee — to show the whole
    // composition stays in the same cost class as the stats sink alone.
    let flight = basecache_obs::FlightRecorder::new(4096, 64, 8);
    let flight_path = bench("planner/round/scratch_reuse_flight", || {
        let planned = planner.plan_requests_recorded(
            &generated,
            &catalog,
            &recency,
            BUDGET,
            &mut scratch,
            &flight,
        );
        black_box((planned, scratch.achieved_value()))
    });

    // The same round under the full causal composition — flight
    // recorder + lifecycle spans + AoI telemetry + invariant monitor,
    // all teed behind the `Recorder` seam. Against the NullRecorder
    // round above this ratio is the `lifecycle_recorder_overhead`
    // headline (`scripts/check.sh` gates it at 1.25x).
    let causal = CausalRecorder::new(CausalConfig::default());
    let mut causal_scratch = PlannerScratch::new();
    causal_scratch.reserve(catalog.len(), BUDGET);
    let lifecycle_path = bench("planner/round/adaptive_lifecycle", || {
        let planned = planner.plan_requests_recorded(
            &generated,
            &catalog,
            &recency,
            BUDGET,
            &mut causal_scratch,
            &causal,
        );
        black_box((planned, causal_scratch.achieved_value()))
    });

    let observed_overhead = observed_path.median_ns() / adaptive_path.median_ns();
    let lifecycle_overhead = lifecycle_path.median_ns() / adaptive_path.median_ns();
    results.push(batch_path);
    results.push(observed_path);
    results.push(flight_path);
    results.push(adaptive_path);
    results.push(lifecycle_path);
    (observed_overhead, lifecycle_overhead)
}

/// The two policies whose round is a knapsack plus something — the
/// hybrid's leftover-budget background refresh, the adaptive budget's
/// knee off the solution-space trace — as whole station rounds (update
/// wave, plan, refresh, serve) at the scale of `planner/round/adaptive`.
fn bench_policy_rounds(results: &mut Vec<Measurement>) {
    let (generated, catalog, _) = planning_requests(OBJECTS, REQUESTS, 77);
    let planner = OnDemandPlanner::paper_default();
    let policies = [
        (
            "planner/round/hybrid",
            Policy::Hybrid {
                planner,
                budget_units: BUDGET,
            },
        ),
        (
            "planner/round/on_demand_adaptive",
            Policy::OnDemandAdaptive {
                planner,
                max_budget: BUDGET,
                window: 25,
                threshold: 0.01,
            },
        ),
    ];
    for (name, policy) in policies {
        let mut station = StationBuilder::new(catalog.clone())
            .policy(policy)
            .build()
            .expect("valid configuration");
        results.push(bench(name, || {
            station.apply_update_wave();
            black_box(station.step(&generated))
        }));
    }
}

/// The two lifecycle hot-path notifications in isolation: one
/// [`LifecycleEvent`] through the span table (open + update on an
/// existing span) and one through the AoI age tables (a serve charging
/// the distribution and the top-K sketch). Nanoseconds per event — the
/// unit cost every instrumented transition pays.
fn bench_obs_events(results: &mut Vec<Measurement>) {
    let spans = LifecycleRecorder::new(256, 1024);
    let mut tick = 0u64;
    results.push(bench("planner/obs/lifecycle_event", || {
        // Cycle over 64 keys so the linear-scan table stays at its
        // steady-state occupancy instead of degenerating to one span.
        let object = (tick % 64) as u32;
        spans.lifecycle(LifecycleEvent::new(Transition::Served, object, 1, tick).times(2));
        tick += 1;
        black_box(tick)
    }));
    let aoi = AoiRecorder::new(256, 64, 8);
    // Seed every origin: a serve against an unknown origin returns
    // early, which would measure the miss path instead of the age math.
    for object in 0..256u32 {
        aoi.lifecycle(LifecycleEvent::new(Transition::Arrived, object, 1, 0).at_launch(0));
    }
    let mut aoi_tick = 1u64;
    results.push(bench("planner/obs/aoi_event", || {
        let object = (aoi_tick % 256) as u32;
        aoi.lifecycle(LifecycleEvent::new(Transition::Served, object, 1, aoi_tick).times(2));
        aoi_tick += 1;
        black_box(aoi_tick)
    }));
}

/// Rounds sampled for the per-stage breakdown.
const BREAKDOWN_ROUNDS: u64 = 50;

/// Run a handful of instrumented rounds and snapshot the recorder: the
/// per-stage wall-clock breakdown and per-round knapsack shape that the
/// span benches above cannot show. Solved at half the headline budget —
/// at the full 5000 every requested item fits and the DP short-circuits
/// without sweeping any cells.
fn stage_breakdown() -> Snapshot {
    let (generated, catalog, recency) = planning_requests(OBJECTS, REQUESTS, 77);
    let planner = OnDemandPlanner::paper_default();
    let mut scratch = PlannerScratch::new();
    scratch.reserve(catalog.len(), BUDGET);
    let recorder = StatsRecorder::new();
    for _ in 0..BREAKDOWN_ROUNDS {
        // The whole-round span the station would normally provide, so
        // plan-minus-solve exposes the aggregation cost.
        let round = basecache_obs::Span::enter(&recorder, basecache_obs::Stage::Plan);
        planner
            .plan_requests_recorded(
                &generated,
                &catalog,
                &recency,
                BUDGET / 2,
                &mut scratch,
                &recorder,
            )
            .expect("a Table-1 plan table is small");
        drop(round);
    }
    recorder.snapshot()
}

fn bench_trace_vs_trace_into(results: &mut Vec<Measurement>) {
    let (generated, catalog, recency) = planning_requests(OBJECTS, REQUESTS, 77);
    let batch = RequestBatch::from_generated(&generated);
    let mapped = build_instance(&batch, &catalog, &recency, ScoringFunction::InverseRatio);
    results.push(bench("planner/trace/solve_trace", || {
        black_box(DpByCapacity.solve_trace(mapped.instance(), BUDGET))
    }));
    let mut scratch = basecache_knapsack::DpScratch::new();
    // Pre-warm: the first solve grows every table to its steady-state
    // footprint, so the warmup/calibration phase never times a
    // first-touch call.
    DpByCapacity.solve_trace_into(mapped.instance().items(), BUDGET, &mut scratch);
    results.push(bench("planner/trace/solve_trace_into", || {
        DpByCapacity.solve_trace_into(mapped.instance().items(), BUDGET, &mut scratch);
        black_box(scratch.value())
    }));
}

/// The planner's round against the paper's full-table DP on the same
/// mapping ([`build_instance`] + [`DpByCapacity`]), at a binding budget.
fn bench_plan_solvers(results: &mut Vec<Measurement>) {
    let (batch, catalog, recency) = planning_round(OBJECTS, REQUESTS, 77);
    let budget = catalog.total_size() / 2;
    let planner = OnDemandPlanner::paper_default();
    results.push(bench("planner/solvers/exact_dp", || {
        let mapped = build_instance(&batch, &catalog, &recency, planner.scoring());
        black_box(DpByCapacity.solve(mapped.instance(), budget))
    }));
    results.push(bench("planner/solvers/adaptive", || {
        black_box(planner.plan(&batch, &catalog, &recency, budget))
    }));
}

fn bench_plan_scale(results: &mut Vec<Measurement>) {
    let planner = OnDemandPlanner::paper_default();
    for &(objects, requests) in &[(100usize, 1000usize), (500, 5000), (2000, 20000)] {
        let (batch, catalog, recency) = planning_round(objects, requests, 78);
        let budget = catalog.total_size() / 2;
        results.push(bench_n(
            &format!("planner/scale/exact_dp/{objects}"),
            10,
            || {
                let mapped = build_instance(&batch, &catalog, &recency, planner.scoring());
                black_box(DpByCapacity.solve(mapped.instance(), budget))
            },
        ));
        // Same instance, same binding budget, through the planner — the
        // apples-to-apples cost of certifying the same optimum after
        // fixing most variables.
        results.push(bench_n(
            &format!("planner/scale/adaptive/{objects}"),
            10,
            || black_box(planner.plan(&batch, &catalog, &recency, budget)),
        ));
    }
}

fn bench_profit_mapping(results: &mut Vec<Measurement>) {
    let (batch, catalog, recency) = planning_round(OBJECTS, REQUESTS, 79);
    results.push(bench("planner/profit_mapping", || {
        black_box(build_instance(
            &batch,
            &catalog,
            &recency,
            ScoringFunction::InverseRatio,
        ))
    }));
}

fn bench_budget_bound_selection(results: &mut Vec<Measurement>) {
    let (batch, catalog, recency) = planning_round(OBJECTS, REQUESTS, 80);
    let planner = OnDemandPlanner::paper_default();
    let (_, trace) = planner
        .plan_with_trace(&batch, &catalog, &recency, catalog.total_size())
        .expect("a Table-1 plan table is small");
    results.push(bench("planner/budget_bound_selection", || {
        (
            black_box(knee_budget(trace.values(), 25, 0.01)),
            black_box(budget_for_fraction(trace.values(), 0.95)),
        )
    }));
}

fn bench_lowest_recency_first(results: &mut Vec<Measurement>) {
    let (batch, _catalog, recency) = planning_round(OBJECTS, REQUESTS, 81);
    results.push(bench("planner/lowest_recency_first", || {
        black_box(LowestRecencyFirst.select(&batch, &recency, 100))
    }));
}

/// The in-flight ledger on the hot path: the Table-1-scale round with
/// multi-round transfers under both ledger modes (pump, partition,
/// commitment-aware solve, launch, join), and the quick flash-crowd
/// scenario end to end. Returns the coalesced-fetch ratio of the
/// flash-crowd run at its top spike intensity — the headline share of
/// fetch demand absorbed by joining transfers already on the wire.
fn bench_inflight(results: &mut Vec<Measurement>) -> f64 {
    for (name, coalesce) in [("coalesce", true), ("naive", false)] {
        let (generated, catalog, _) = planning_requests(OBJECTS, REQUESTS, 82);
        let planner = OnDemandPlanner::paper_default();
        let config = if coalesce {
            InFlightConfig::coalescing(BUDGET / 2)
        } else {
            InFlightConfig::naive(BUDGET / 2)
        };
        let mut station = basecache_core::StationBuilder::new(catalog)
            .on_demand(planner, BUDGET)
            .in_flight(config)
            .build()
            .expect("valid configuration");
        // Warm to steady state: buffers, ledger ring and waiter pool at
        // their peak for the wave-every-other-round cadence.
        for w in 0..8u64 {
            if w.is_multiple_of(2) {
                station.apply_update_wave();
            }
            station.step(&generated);
        }
        let mut round = 0u64;
        results.push(bench(&format!("planner/inflight/{name}"), || {
            round += 1;
            if round.is_multiple_of(2) {
                station.apply_update_wave();
            }
            black_box(station.step(&generated).served)
        }));
    }
    let params = ext_flash_crowd::Params::quick();
    let spike = *params.spike_rates.last().expect("non-empty sweep");
    let coalescing = InFlightConfig::coalescing(params.bandwidth);
    results.push(bench_n("planner/inflight/flash_crowd", 5, || {
        black_box(ext_flash_crowd::run_point(&params, spike, coalescing).score)
    }));
    ext_flash_crowd::run_point(&params, spike, coalescing).coalesced_fetch_ratio
}

/// The suite's headline figures, one per top-level JSON key.
struct Headlines {
    observed_overhead: f64,
    lifecycle_overhead: f64,
    coalesced_fetch_ratio: f64,
    massive: crate::massive_suite::MassiveReport,
}

fn write_json(results: &[Measurement], headlines: &Headlines, stages: &Snapshot) {
    let Headlines {
        observed_overhead,
        lifecycle_overhead,
        coalesced_fetch_ratio,
        ref massive,
    } = *headlines;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_planner.json");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"planner\",\n");
    out.push_str(&format!(
        "  \"scale\": {{\"objects\": {OBJECTS}, \"requests\": {REQUESTS}, \"budget\": {BUDGET}}},\n"
    ));
    out.push_str(&format!(
        "  \"stats_recorder_overhead\": {observed_overhead:.3},\n"
    ));
    // The adaptive round under the full causal composition (flight +
    // lifecycle spans + AoI + invariant monitor) vs the NullRecorder
    // adaptive round. `scripts/check.sh` gates this at 1.25x.
    out.push_str(&format!(
        "  \"lifecycle_recorder_overhead\": {lifecycle_overhead:.3},\n"
    ));
    // Share of flash-crowd fetch demand served by joining a transfer
    // already on the wire (quick preset, top spike intensity).
    out.push_str(&format!(
        "  \"coalesced_fetch_ratio\": {coalesced_fetch_ratio:.3},\n"
    ));
    // Headlines from the massive round-engine suite
    // (`planner/massive/*`): standing requests served per second of
    // round time, and what dirty-set tracking buys over rebuilding the
    // whole instance every round.
    out.push_str(&format!(
        "  \"requests_per_second\": {:.0},\n",
        massive.requests_per_second
    ));
    out.push_str(&format!(
        "  \"incremental_build_speedup\": {:.2},\n",
        massive.incremental_build_speedup
    ));
    out.push_str("  \"results\": [\n");
    out.push_str(&crate::harness::results_json(results));
    out.push_str("\n  ],\n");
    // Per-stage breakdown of the instrumented round (span clocks) and
    // per-round knapsack shape, averaged over the sampled rounds (solved
    // at half the headline budget so the DP actually sweeps).
    out.push_str(&format!("  \"stage_breakdown_budget\": {},\n", BUDGET / 2));
    out.push_str("  \"stages\": [\n");
    for (i, s) in stages.spans.iter().enumerate() {
        let comma = if i + 1 < stages.spans.len() { "," } else { "" };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"count\": {}, \"mean_ns\": {:.1}, \"p95_ns\": {:.1}}}{comma}\n",
            s.name, s.count, s.mean_ns, s.p95_ns
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"per_round\": {");
    let mut first = true;
    for c in &stages.counters {
        let comma = if first { "" } else { "," };
        first = false;
        out.push_str(&format!(
            "{comma}\n    \"{}\": {:.1}",
            c.name,
            c.value as f64 / BREAKDOWN_ROUNDS as f64
        ));
    }
    if !first {
        out.push_str("\n  ");
    }
    out.push_str("}\n}\n");
    std::fs::write(path, out).expect("write BENCH_planner.json");
    println!("\nwrote {path}");
}

/// Run the whole suite and write `BENCH_planner.json`.
pub fn run() {
    let mut results = Vec::new();
    let (observed_overhead, lifecycle_overhead) = bench_round_paths(&mut results);
    println!("stats-recorder overhead on the round: {observed_overhead:.3}x");
    println!(
        "causal lifecycle-recorder overhead on the adaptive round: {lifecycle_overhead:.3}x\n"
    );
    bench_policy_rounds(&mut results);
    bench_obs_events(&mut results);
    bench_trace_vs_trace_into(&mut results);
    bench_plan_solvers(&mut results);
    bench_plan_scale(&mut results);
    bench_profit_mapping(&mut results);
    bench_budget_bound_selection(&mut results);
    bench_lowest_recency_first(&mut results);
    let coalesced_fetch_ratio = bench_inflight(&mut results);
    println!("flash-crowd coalesced fetch ratio at top spike: {coalesced_fetch_ratio:.3}\n");
    let massive = crate::massive_suite::bench_massive(&crate::massive_suite::FULL, &mut results);
    println!(
        "massive round engine: {:.2e} requests/s, incremental build {:.2}x faster than full rebuild\n",
        massive.requests_per_second, massive.incremental_build_speedup
    );
    let stages = stage_breakdown();
    write_json(
        &results,
        &Headlines {
            observed_overhead,
            lifecycle_overhead,
            coalesced_fetch_ratio,
            massive,
        },
        &stages,
    );
}
