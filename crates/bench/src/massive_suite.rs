//! Massive-scale round-engine benches: 100k objects, 1M standing client
//! requests, a 2000-unit downlink — the scale the struct-of-arrays
//! [`RoundEngine`] exists for, far past the paper's Table-1 regime.
//!
//! Measurements, written as `planner/massive/*`:
//!
//! - `build_full_rebuild` — the pinned reference build: mark the whole
//!   table dirty, fold every one of the million targets, assemble the
//!   knapsack instance. This is what every round would cost without
//!   dirty-set tracking.
//! - `build_incremental` — the same build after realistic churn (~500
//!   retargets, ≤1% of the table): only dirty objects are rescored,
//!   untouched entries carry forward unchanged.
//! - `observe/{full,changed}` — one round's recency observation and the
//!   rescore it triggers, when the recency of 6% of the objects moved
//!   (the share the benchmark's `engine-massive` workload updates a
//!   round): `full` reads the whole vector
//!   ([`RoundEngine::observe_recency`], what a station round does when
//!   it resyncs), `changed` reads the list of moved slots
//!   ([`RoundEngine::observe_changed`], what a station's consecutive
//!   rounds do). The rows differ by the scan of the unchanged slots.
//! - `round_incremental` — the headline: a complete
//!   [`BaseStationSim::step_engine`] round (churn, server updates,
//!   recency observation, incremental rescore, adaptive solve, refresh,
//!   columnar serve), from which the `requests_per_second` figure in
//!   `BENCH_planner.json` is derived. Timed on a fixed schedule of
//!   rounds (the same ones on every build), each sample the mean of
//!   `ROUNDS_PER_SAMPLE` consecutive rounds. The round's solve is in
//!   it; a traced benchmark run reports it alone
//!   (`knapsack.solve_us_mean`).
//!
//! The `--smoke` variant runs the identical pipeline at 1/50 scale so
//! `scripts/check.sh` can execute it on every run.
//!
//! [`RoundEngine`]: basecache_core::engine::RoundEngine
//! [`RoundEngine::observe_recency`]: basecache_core::engine::RoundEngine::observe_recency
//! [`RoundEngine::observe_changed`]: basecache_core::engine::RoundEngine::observe_changed
//! [`BaseStationSim::step_engine`]: basecache_core::station::BaseStationSim::step_engine

use std::hint::black_box;

use basecache_core::engine::RoundEngine;
use basecache_core::planner::OnDemandPlanner;
use basecache_core::recency::ScoringFunction;
use basecache_core::scratch::PlannerScratch;
use basecache_core::{BaseStationSim, RoundOutcome, StationBuilder};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::{RngStreams, SimTime, StreamRng};
use basecache_workload::{ChurnOp, Popularity, StandingWorkload, TargetRecency};

use crate::harness::{bench_n, bench_schedule, Measurement};

/// One massive-bench configuration.
pub struct MassiveScale {
    /// Catalog size (objects, sizes `U[1, 8]`).
    pub objects: usize,
    /// Standing client requests aggregated into the engine.
    pub requests: usize,
    /// Download budget per round, data units.
    pub budget: u64,
    /// Retargets applied per iteration (the dirty set's main source).
    pub churn: usize,
    /// Timed samples per measurement (these are whole-round benches).
    pub samples: usize,
}

/// The headline scale: 100k objects, 1M requests, 0.5% churn.
pub const FULL: MassiveScale = MassiveScale {
    objects: 100_000,
    requests: 1_000_000,
    budget: 2000,
    churn: 500,
    samples: 5,
};

/// Reduced scale for `scripts/check.sh` (`massive --smoke`): the same
/// pipeline, cheap enough to run on every check.
pub const SMOKE: MassiveScale = MassiveScale {
    objects: 2_000,
    requests: 20_000,
    budget: 200,
    churn: 10,
    samples: 3,
};

/// The headline figures derived from the massive benches.
pub struct MassiveReport {
    /// Standing requests served per second of round time
    /// (`requests * 1e9 / round_median_ns`).
    pub requests_per_second: f64,
    /// Full-rebuild median over incremental-build median at the
    /// configured churn.
    pub incremental_build_speedup: f64,
}

/// Deterministic catalog + standing population + cache recency for a
/// scale.
fn fixture(scale: &MassiveScale) -> (Catalog, StandingWorkload, Vec<ObjectId>, Vec<f64>, Vec<f64>) {
    let streams = RngStreams::new(0x3A55);
    let sizes: Vec<u64> = {
        let mut rng = streams.stream("massive/sizes");
        (0..scale.objects)
            .map(|_| rng.random_range(1..=8))
            .collect()
    };
    let catalog = Catalog::from_sizes(&sizes);
    let recency: Vec<f64> = {
        let mut rng = streams.stream("massive/recency");
        (0..scale.objects)
            .map(|_| rng.random_range(0.1..=1.0))
            .collect()
    };
    let workload = StandingWorkload::new(
        Popularity::ZIPF1.build(scale.objects),
        scale.requests,
        TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
    );
    let (objects, targets) = workload.generate_columns(&mut streams.stream("massive/requests"));
    (catalog, workload, objects, targets, recency)
}

/// A warm engine holding the standing population.
fn build_engine(catalog: &Catalog, objects: &[ObjectId], targets: &[f64]) -> RoundEngine {
    let mut engine = RoundEngine::new(catalog, ScoringFunction::InverseRatio);
    engine.push_columns(objects, targets);
    engine
}

/// A cycling pool of precomputed popularity-weighted churn ops, so the
/// timed loops apply realistic retargets without paying generation
/// cost in-loop. Zipf-weighted: popular objects churn most, so each op
/// dirties a request-heavy object.
fn churn_pool(scale: &MassiveScale, workload: &StandingWorkload) -> Vec<ChurnOp> {
    let mut rng = RngStreams::new(0x3A55).stream("massive/churn");
    let mut ops = Vec::new();
    workload.churn_into(scale.churn * 64, &mut rng, &mut ops);
    ops
}

/// Rounds a fresh station has run before `round_incremental` starts
/// timing.
const SOLVE_AFTER_ROUNDS: usize = 32;
/// Consecutive rounds in one `round_incremental` sample: enough to span
/// a wave of stale popular objects and the calm after it.
const ROUNDS_PER_SAMPLE: u64 = 20;

/// A station and its engine, stepped round by round as
/// `round_incremental` times them.
struct Rounds {
    station: BaseStationSim,
    engine: RoundEngine,
    updates: StreamRng,
    cursor: usize,
}

impl Rounds {
    fn new(scale: &MassiveScale, catalog: &Catalog, objects: &[ObjectId], targets: &[f64]) -> Self {
        Rounds {
            station: StationBuilder::new(catalog.clone())
                .on_demand(OnDemandPlanner::paper_default(), scale.budget)
                .build()
                .expect("valid configuration"),
            engine: build_engine(catalog, objects, targets),
            updates: RngStreams::new(0x3A55).stream("massive/updates"),
            cursor: 0,
        }
    }

    /// The pool's next `churn` retargets, a fifth as many server-side
    /// updates, then the station's engine round.
    fn next(&mut self, scale: &MassiveScale, ops: &[ChurnOp]) -> RoundOutcome {
        for op in &ops[self.cursor..self.cursor + scale.churn] {
            self.engine.retarget(op.object, op.slot_seed, op.target);
        }
        self.cursor = (self.cursor + scale.churn) % (ops.len() - scale.churn);
        let now = SimTime::from_ticks(self.station.tick());
        for _ in 0..scale.churn / 5 {
            let object = ObjectId(self.updates.random_range(0..scale.objects as u32));
            self.station.server_mut().apply_update(object, now);
        }
        self.station.step_engine(&mut self.engine)
    }
}

/// Uniform churn ops: each op retargets a uniformly random object, so
/// `churn` ops dirty ~`churn` objects and a proportional share of
/// requests — the "round touching ≤1% of the table" regime the
/// incremental-build speedup is quoted for.
fn uniform_churn_pool(scale: &MassiveScale) -> Vec<ChurnOp> {
    let mut rng = RngStreams::new(0x3A55).stream("massive/churn_uniform");
    (0..scale.churn * 64)
        .map(|_| ChurnOp {
            object: ObjectId(rng.random_range(0..scale.objects as u32)),
            slot_seed: rng.next_u64(),
            target: rng.random_range(0.3..=1.0),
        })
        .collect()
}

/// Run the massive suite at `scale`, pushing `planner/massive/*`
/// measurements and returning the headline figures.
pub fn bench_massive(scale: &MassiveScale, results: &mut Vec<Measurement>) -> MassiveReport {
    let (catalog, workload, objects, targets, recency) = fixture(scale);
    let ops = churn_pool(scale, &workload);

    // --- build_full_rebuild: the pinned reference, every round from
    // scratch. One scratch per engine so instance assembly is warm too.
    let mut engine = build_engine(&catalog, &objects, &targets);
    let mut scratch = PlannerScratch::new();
    scratch.reserve(catalog.len(), scale.budget);
    let full = bench_n(
        &format!("planner/massive/build_full_rebuild/{}", scale.objects),
        scale.samples,
        || {
            engine.mark_all_dirty();
            engine.observe_recency(&recency);
            engine.rescore();
            engine.assemble_into(&mut scratch);
            black_box(scratch.items().len())
        },
    );

    // --- build_incremental: same engine shape, but only churn dirties
    // the table. The cursor walks the precomputed op pool so every
    // iteration retargets a fresh slice of the population. Measured
    // twice: uniform churn (`churn` ops ≈ `churn` objects ≈ ≤1% of the
    // table — the regime the headline speedup is quoted for) and
    // Zipf-weighted churn (popular objects churn most, so 0.5% of
    // *objects* drags in a far larger share of *requests* — the honest
    // hard case).
    let bench_incremental = |name: &str, ops: &[ChurnOp], scratch: &mut PlannerScratch| {
        let mut engine = build_engine(&catalog, &objects, &targets);
        engine.observe_recency(&recency);
        engine.rescore(); // settle: from here on, only churn is dirty
        let mut cursor = 0usize;
        bench_n(
            &format!("planner/massive/{name}/{}", scale.objects),
            scale.samples,
            || {
                for op in &ops[cursor..cursor + scale.churn] {
                    engine.retarget(op.object, op.slot_seed, op.target);
                }
                cursor = (cursor + scale.churn) % (ops.len() - scale.churn);
                engine.observe_recency(&recency);
                engine.rescore();
                engine.assemble_into(scratch);
                black_box(scratch.items().len())
            },
        )
    };
    let uniform_ops = uniform_churn_pool(scale);
    let incr = bench_incremental("build_incremental", &uniform_ops, &mut scratch);
    let incr_zipf = bench_incremental("build_incremental_zipf", &ops, &mut scratch);
    let incremental_build_speedup = full.median_ns() / incr.median_ns();

    // --- observe/{full,changed}: the same 6% of the objects move their
    // recency every iteration (back and forth between two vectors, so
    // their bits always differ from the stored column), then the dirty
    // ones are rescored. Only how the movement is found differs.
    let changed: Vec<ObjectId> = {
        let mut rng = RngStreams::new(0x3A55).stream("massive/observe");
        (0..scale.objects * 6 / 100)
            .map(|_| ObjectId(rng.random_range(0..scale.objects as u32)))
            .collect()
    };
    let mut moved = recency.clone();
    for &object in &changed {
        moved[object.index()] *= 0.5;
    }
    let bench_observe = |name: &str, listed: bool| {
        let mut engine = build_engine(&catalog, &objects, &targets);
        engine.observe_recency(&recency);
        engine.rescore();
        let mut flip = false;
        bench_n(
            &format!("planner/massive/observe/{name}/{}", scale.objects),
            scale.samples,
            || {
                flip = !flip;
                let now = if flip { &moved } else { &recency };
                if listed {
                    engine.observe_changed(now, &changed);
                } else {
                    engine.observe_recency(now);
                }
                engine.rescore();
                black_box(engine.dirty_objects())
            },
        )
    };
    let observe_full = bench_observe("full", false);
    let observe_changed = bench_observe("changed", true);

    // --- round_incremental: the complete station round — churn, a
    // handful of server-side updates, the oracle recency of the objects
    // they and the last round's downloads changed, incremental rescore, adaptive solve, refresh and columnar serve
    // of the whole standing population. Rounds differ several-fold in
    // cost (a wave of stale popular objects makes a hard solve), so
    // every build times the same ones.
    let mut rounds = Rounds::new(scale, &catalog, &objects, &targets);
    let round = bench_schedule(
        &format!("planner/massive/round_incremental/{}", scale.objects),
        SOLVE_AFTER_ROUNDS,
        scale.samples,
        ROUNDS_PER_SAMPLE,
        || black_box(rounds.next(scale, &ops)),
    );
    let requests_per_second = scale.requests as f64 * 1e9 / round.median_ns();

    results.push(full);
    results.push(incr);
    results.push(incr_zipf);
    results.push(observe_full);
    results.push(observe_changed);
    results.push(round);
    MassiveReport {
        requests_per_second,
        incremental_build_speedup,
    }
}

/// Entry point for `basecache-bench massive [--smoke]`: run the suite
/// standalone and print the headline figures without touching
/// `BENCH_planner.json`.
pub fn run_standalone(smoke: bool) {
    let scale = if smoke { &SMOKE } else { &FULL };
    let mut results = Vec::new();
    let report = bench_massive(scale, &mut results);
    println!(
        "\nmassive round engine at {} objects / {} requests: \
         {:.2e} requests/s, incremental build {:.2}x faster than full rebuild",
        scale.objects, scale.requests, report.requests_per_second, report.incremental_build_speedup
    );
}
