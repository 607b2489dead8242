//! The round engine's load-bearing guarantees, proved bit-for-bit:
//!
//! 1. Incremental rounds (dirty-set rescoring only) are identical to
//!    the pinned full-rebuild reference (`mark_all_dirty` before every
//!    round) — outcomes, downloads, stats, recorder snapshots and the
//!    flight-recorder round series, under zero churn, single-object
//!    churn and 100% churn alike.
//! 2. The dirty set actually shrinks the work: low-churn rounds rescore
//!    a small fraction of the table.
//! 3. Every round plans what the paper's full-table DP picks: the
//!    instance the engine holds after a step, read back through
//!    `for_each_active`, solved by `DpByCapacity`, gives the station's
//!    downloads, units and plan value bit for bit.
//! 4. The engine reads only the recency slots its station changed
//!    exactly when that is safe: engine rounds interleaved with batch
//!    rounds, and one engine stepped by two stations in turn, match the
//!    reference round for round. (The reference's `mark_all_dirty` also
//!    makes its engine read the whole recency vector, so a slot the
//!    incremental rig's list misses cannot go unnoticed on both sides.)
//! 5. The engine's running serve totals are its table's: after every
//!    round, `serve_totals` equals the tallies of a `for_each_active`
//!    walk that serves each object as the round did, and an unobserved
//!    station, which serves off the totals, returns the same outcomes
//!    and stats as an observed one, which walks.
//!
//! "Identical" means the deterministic observables; wall-clock span
//! timings are stripped before comparison.

mod common;

use basecache_core::engine::{RoundEngine, ServeTotals};
use basecache_core::planner::OnDemandPlanner;
use basecache_core::recency::ScoringFunction;
use basecache_core::station::BaseStationSim;
use basecache_core::RoundOutcome;
use basecache_core::StationBuilder;
use basecache_net::{Catalog, ObjectId};
use basecache_obs::{FlightRecorder, NullRecorder, Recorder, Snapshot};
use basecache_sim::metrics::{to_steps, Sums, STEPS};
use basecache_sim::{RngStreams, SimTime};
use basecache_workload::{ChurnOp, GeneratedRequest, Popularity, StandingWorkload, TargetRecency};

use common::{exact_dp, Instance, SolveProbe};

const OBJECTS: usize = 48;
const BUDGET: u64 = 14;
const SEED_REQUESTS: u32 = 200;

fn catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 5).collect();
    Catalog::from_sizes(&sizes)
}

/// A station + engine pair; `full_rebuild` rigs degrade the engine to
/// the reference path by marking everything dirty before each round.
/// Every step's serve totals are checked against a table walk, and an
/// observed rig's step against the exact DP; `dp_cells` sums the cells
/// its full solves swept.
struct Rig {
    station: BaseStationSim,
    engine: RoundEngine,
    full_rebuild: bool,
    dp_cells: u64,
}

impl Rig {
    fn new(full_rebuild: bool, recorder: Box<dyn Recorder>) -> Rig {
        let station = StationBuilder::new(catalog())
            .on_demand(OnDemandPlanner::paper_default(), BUDGET)
            .recorder(recorder)
            .build()
            .expect("valid configuration");
        let mut engine = RoundEngine::new(&catalog(), ScoringFunction::InverseRatio);
        seed_population(&mut engine);
        Rig {
            station,
            engine,
            full_rebuild,
            dp_cells: 0,
        }
    }

    fn flight_recorder() -> Box<dyn Recorder> {
        Box::new(FlightRecorder::new(512, 64, 8))
    }

    fn incremental() -> Rig {
        Rig::new(false, Rig::flight_recorder())
    }

    fn reference() -> Rig {
        Rig::new(true, Rig::flight_recorder())
    }

    /// An incremental rig whose recorder is disabled: its rounds serve
    /// off the engine's totals.
    fn unobserved() -> Rig {
        Rig::new(false, Box::new(NullRecorder))
    }

    fn step(&mut self) -> RoundOutcome {
        if self.full_rebuild {
            self.engine.mark_all_dirty();
        }
        let out = self.station.step_engine(&mut self.engine);
        assert_serve_totals_match_a_walk(&self.station, &self.engine, &out);
        if self.station.recorder().enabled() {
            self.dp_cells +=
                assert_engine_round_is_exact(&self.station, &self.engine, &out, BUDGET);
        }
        out
    }
}

/// The round `station` just stepped on `engine`, served again by a walk
/// of the engine's table: each active object's requests at its recency,
/// or at 1.0 when the round downloaded it. The engine's totals and the
/// round's outcome must both be the walk's.
fn assert_serve_totals_match_a_walk(
    station: &BaseStationSim,
    engine: &RoundEngine,
    out: &RoundOutcome,
) {
    let downloaded = station.last_downloaded();
    let mut walk = ServeTotals {
        recency: Sums::new(),
        score: Sums::new(),
        fetched: 0,
    };
    engine.for_each_active(|a| {
        let n = a.scores.count;
        if downloaded.contains(&a.object) {
            walk.recency.push_n(STEPS, n);
            walk.score.push_n(STEPS, n);
            walk.fetched += n;
        } else {
            walk.recency.push_n(to_steps(a.recency), n);
            walk.score.add(&a.scores);
        }
    });
    let tick = out.tick;
    assert_eq!(
        engine.serve_totals(downloaded),
        walk,
        "round {tick}: serve totals"
    );
    let served = walk.score.count as usize;
    assert_eq!(
        (out.served, out.served_immediately, out.cache_hits),
        (served, served, served - walk.fetched as usize),
        "round {tick}: served and hits"
    );
    let mean = |tally: Sums| tally.mean().unwrap_or(1.0).to_bits();
    assert_eq!(
        (out.average_recency.to_bits(), out.average_score.to_bits()),
        (mean(walk.recency), mean(walk.score)),
        "round {tick}: means"
    );
}

/// The round `station` just stepped on `engine` against the exact DP
/// on the instance the engine holds after the step: the same downloads,
/// units and plan value (the last flight-recorder row's). Returns the
/// cells the full DP swept.
fn assert_engine_round_is_exact(
    station: &BaseStationSim,
    engine: &RoundEngine,
    out: &RoundOutcome,
    budget: u64,
) -> u64 {
    let instance = Instance::of_engine(engine);
    let exact = exact_dp(&instance, budget);
    let tick = out.tick;
    assert_eq!(
        station.last_downloaded(),
        exact.downloads,
        "round {tick}: chosen set diverges from the exact DP"
    );
    assert_eq!(out.units_downloaded, exact.size, "round {tick}: size");
    let row = *station
        .recorder()
        .as_any()
        .downcast_ref::<FlightRecorder>()
        .expect("a FlightRecorder was installed")
        .series()
        .rows()
        .last()
        .expect("the round was recorded");
    assert_eq!(row.tick, tick, "the series keeps every round");
    assert_eq!(
        row.plan_profit.to_bits(),
        exact.value.to_bits(),
        "round {tick}: value bits diverge from the exact DP"
    );
    // The round solved only its candidates, but the profit bound it
    // reports is the whole instance's, folded in object order.
    let mut bound = 0.0;
    for item in &instance.items {
        bound += item.profit();
    }
    assert_eq!(
        row.profit_bound.to_bits(),
        bound.to_bits(),
        "round {tick}: the profit bound is not the whole instance's"
    );
    exact.cells
}

/// The DP cells `station`'s solves swept, against `dp_cells` the full
/// DP swept on the same instances: the reduction only removes work.
fn assert_reduction_saves_cells(station: &BaseStationSim, dp_cells: u64, label: &str) {
    let cells = station
        .obs_snapshot()
        .counter("dp_cells_touched")
        .unwrap_or(0);
    assert!(
        cells <= dp_cells,
        "{label}: the planner swept {cells} cells, the full DP {dp_cells}"
    );
}

fn seed_population(engine: &mut RoundEngine) {
    for k in 0..SEED_REQUESTS {
        engine.push_request(
            ObjectId(k * 13 % OBJECTS as u32),
            [1.0, 0.8, 0.6, 0.4][k as usize % 4],
        );
    }
}

/// Drive `rounds` rounds, applying the (pure) per-round mutation before
/// each step. The same `mutate` applied to two rigs produces identical
/// input sequences, so any output divergence is the engine's fault.
fn drive(rig: &mut Rig, rounds: u64, mutate: fn(u64, &mut Rig)) -> Vec<RoundOutcome> {
    (0..rounds)
        .map(|r| {
            mutate(r, rig);
            rig.step()
        })
        .collect()
}

/// Strip the observables that are *supposed* to differ between the two
/// paths: wall-clock span timings, and the dirty-set work-accounting
/// samples (`dirty_objects`, `rescored_requests`) — the full-rebuild
/// reference reports the whole table as dirty every round, which is
/// precisely the work the incremental path exists to avoid. Everything
/// else must match bit-for-bit.
fn deterministic(snapshot: &Snapshot) -> Snapshot {
    let mut s = snapshot.clone();
    s.spans.clear();
    s.samples
        .retain(|sample| sample.name != "dirty_objects" && sample.name != "rescored_requests");
    s
}

/// Round-series rows as raw bits: bit-identical NaN markers compare
/// equal, any payload difference — last mantissa bit included —
/// compares unequal.
fn series_bits(station: &BaseStationSim) -> Vec<[u64; 8]> {
    station
        .recorder()
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

fn assert_rigs_match(a: &Rig, b: &Rig, label: &str) {
    assert_eq!(
        a.station.last_downloaded(),
        b.station.last_downloaded(),
        "{label}: chosen sets diverge"
    );
    assert_eq!(
        a.station.stats(),
        b.station.stats(),
        "{label}: stats diverge"
    );
    assert_eq!(
        deterministic(&a.station.obs_snapshot()),
        deterministic(&b.station.obs_snapshot()),
        "{label}: recorder snapshots diverge"
    );
    let rows = series_bits(&a.station);
    assert!(!rows.is_empty(), "{label}: no rounds recorded");
    assert_eq!(
        rows,
        series_bits(&b.station),
        "{label}: round series diverges"
    );
}

fn run_parity(rounds: u64, mutate: fn(u64, &mut Rig), label: &str) {
    let mut incremental = Rig::incremental();
    let mut reference = Rig::reference();
    let a = drive(&mut incremental, rounds, mutate);
    let b = drive(&mut reference, rounds, mutate);
    assert_eq!(a, b, "{label}: outcomes diverge");
    assert_rigs_match(&incremental, &reference, label);
    assert_reduction_saves_cells(&incremental.station, incremental.dp_cells, label);
}

/// Recency moves only through cache refreshes and server updates; the
/// request set never changes.
fn zero_churn(round: u64, rig: &mut Rig) {
    if round % 3 == 2 {
        rig.station.apply_update_wave();
    }
    if round % 5 == 1 {
        let now = SimTime::from_ticks(rig.station.tick());
        rig.station
            .server_mut()
            .apply_update(ObjectId((round * 11 % OBJECTS as u64) as u32), now);
    }
}

/// One retarget per round on a rotating object, plus occasional waves.
fn single_object_churn(round: u64, rig: &mut Rig) {
    zero_churn(round, rig);
    rig.engine.retarget(
        ObjectId((round * 7 % OBJECTS as u64) as u32),
        round * 31 + 5,
        [0.9, 0.7, 0.5, 0.3][round as usize % 4],
    );
}

/// 100% churn: every request replaced every round (round-varied
/// targets so the rebuilt population actually differs).
fn full_churn(round: u64, rig: &mut Rig) {
    zero_churn(round, rig);
    rig.engine.clear_requests();
    for k in 0..SEED_REQUESTS {
        rig.engine.push_request(
            ObjectId((k * 13 + round as u32) % OBJECTS as u32),
            [1.0, 0.8, 0.6, 0.4][(k as u64 + round) as usize % 4],
        );
    }
}

/// A churn script and its name.
type Script = (&'static str, fn(u64, &mut Rig));

/// The churn scripts above, for the checks that run every one.
const SCRIPTS: [Script; 3] = [
    ("zero churn", zero_churn),
    ("single-object churn", single_object_churn),
    ("full churn", full_churn),
];

/// The serve's two paths: one churn script steps a station that observes
/// its rounds (and walks the table) and one that does not (and serves
/// off the engine's totals). Every outcome and the stats must agree.
#[test]
fn observed_and_unobserved_engine_rounds_serve_alike() {
    for (label, mutate) in SCRIPTS {
        let mut observed = Rig::incremental();
        let mut unobserved = Rig::unobserved();
        for round in 0..30 {
            mutate(round, &mut observed);
            mutate(round, &mut unobserved);
            let (a, b) = (observed.step(), unobserved.step());
            assert_eq!(a, b, "{label} round {round}: outcomes diverge");
            assert_eq!(
                observed.station.stats(),
                unobserved.station.stats(),
                "{label} round {round}: stats diverge"
            );
        }
        assert!(
            unobserved.station.stats().objects_downloaded > 0,
            "{label}: nothing was downloaded"
        );
    }
}

#[test]
fn zero_churn_rounds_match_full_rebuild() {
    run_parity(30, zero_churn, "zero churn");
}

#[test]
fn single_object_churn_matches_full_rebuild() {
    run_parity(30, single_object_churn, "single-object churn");
}

#[test]
fn full_churn_matches_full_rebuild() {
    run_parity(20, full_churn, "full churn");
}

/// A batch round on the rig's station: a few requests on rotating
/// objects.
fn batch_round(round: u64, rig: &mut Rig) -> RoundOutcome {
    let requests: Vec<GeneratedRequest> = (0..6u64)
        .map(|k| GeneratedRequest {
            object: ObjectId(((round * 5 + k * 7) % OBJECTS as u64) as u32),
            target_recency: [1.0, 0.7, 0.4][k as usize % 3],
        })
        .collect();
    rig.station.step(&requests)
}

/// An engine first stepped after several batch rounds, then interleaved
/// with more: every engine round after a batch round must read the
/// whole recency vector, since the batch round's changes never reached
/// the engine.
#[test]
fn engine_rounds_between_batch_rounds_match_full_rebuild() {
    let mut incremental = Rig::incremental();
    let mut reference = Rig::reference();
    for round in 0..30u64 {
        // Batch rounds fall just before rounds without a wave, so the
        // engine round after one has a list to (mis)trust.
        let engine_round = round >= 4 && round % 3 != 0;
        let mut outcomes = Vec::new();
        for rig in [&mut incremental, &mut reference] {
            single_object_churn(round, rig);
            let out = if engine_round {
                rig.step()
            } else {
                batch_round(round, rig)
            };
            outcomes.push(out);
        }
        assert_eq!(outcomes[0], outcomes[1], "round {round}: outcomes diverge");
    }
    assert_rigs_match(&incremental, &reference, "batch and engine rounds");
}

/// The two request sources serve alike: a batch round and an engine
/// round holding the same requests — pushed in reverse batch order into
/// an engine cleared before every round, since no tally depends on the
/// order — on twin on-demand oracle stations plan the same downloads
/// and report the same outcome, means bit for bit, round after round of
/// random batches, update waves and per-object updates.
#[test]
fn a_batch_round_and_an_engine_round_of_the_same_requests_serve_alike() {
    let station = || {
        StationBuilder::new(catalog())
            .on_demand(OnDemandPlanner::paper_default(), BUDGET)
            .build()
            .expect("valid configuration")
    };
    let (mut batch, mut standing) = (station(), station());
    let mut engine = RoundEngine::new(&catalog(), ScoringFunction::InverseRatio);
    let mut rng = RngStreams::new(0xBA7C).stream("engine_parity/batch_vs_engine");
    for round in 0..120u64 {
        if round % 4 == 1 {
            batch.apply_update_wave();
            standing.apply_update_wave();
        }
        for _ in 0..rng.random_range(0..4u32) {
            let object = ObjectId(rng.random_range(0..OBJECTS as u32));
            let now = SimTime::from_ticks(round);
            batch.server_mut().apply_update(object, now);
            standing.server_mut().apply_update(object, now);
        }
        let requests: Vec<GeneratedRequest> = (0..rng.random_range(0..=90usize))
            .map(|_| GeneratedRequest {
                object: ObjectId(rng.random_range(0..OBJECTS as u32)),
                target_recency: rng.random_range(0.05f64..=1.0),
            })
            .collect();
        engine.clear_requests();
        for r in requests.iter().rev() {
            engine.push_request(r.object, r.target_recency);
        }
        let from_batch = batch.step(&requests);
        let from_engine = standing.step_engine(&mut engine);
        let what = format!("round {round}, {} requests", requests.len());
        assert_eq!(
            batch.last_downloaded(),
            standing.last_downloaded(),
            "{what}"
        );
        // The means are non-negative, so equal values are equal bits.
        assert_eq!(from_batch, from_engine, "{what}");
    }
    assert_eq!(batch.stats(), standing.stats());
}

/// One engine stepped by two stations in turn, against a reference
/// pair whose engine reads the whole vector every round. The second
/// station starts a round later, so its rounds never share a tick with
/// the first's — only the station identity tells them apart.
#[test]
fn one_engine_alternating_between_two_stations_matches_full_rebuild() {
    let mut rigs = [Rig::incremental(), Rig::reference()];
    let mut others: Vec<BaseStationSim> = rigs
        .iter()
        .map(|_| {
            StationBuilder::new(catalog())
                .on_demand(OnDemandPlanner::paper_default(), BUDGET / 2)
                .build()
                .expect("valid configuration")
        })
        .collect();
    for other in &mut others {
        other.step(&[]);
    }
    for round in 0..30u64 {
        let mut outcomes = Vec::new();
        for (rig, other) in rigs.iter_mut().zip(&mut others) {
            zero_churn(round, rig);
            let object = ObjectId(((round * 7 + 3) % OBJECTS as u64) as u32);
            let now = SimTime::from_ticks(other.tick());
            other.server_mut().apply_update(object, now);
            let first = rig.step();
            if rig.full_rebuild {
                rig.engine.mark_all_dirty();
            }
            let second = other.step_engine(&mut rig.engine);
            assert_engine_round_is_exact_unrecorded(other, &rig.engine, BUDGET / 2);
            outcomes.push((first, second));
        }
        assert_eq!(outcomes[0], outcomes[1], "round {round}: outcomes diverge");
    }
    assert_rigs_match(&rigs[0], &rigs[1], "two stations, one engine");
    assert_eq!(others[0].stats(), others[1].stats());
}

/// [`assert_engine_round_is_exact`]'s download check for a station
/// without a flight recorder.
fn assert_engine_round_is_exact_unrecorded(
    station: &BaseStationSim,
    engine: &RoundEngine,
    budget: u64,
) {
    let exact = exact_dp(&Instance::of_engine(engine), budget);
    assert_eq!(station.last_downloaded(), exact.downloads);
}

#[test]
fn dirty_set_shrinks_low_churn_work() {
    let mut rig = Rig::incremental();
    // Warm up: first rounds see the whole seed population as dirty.
    rig.step();
    assert_eq!(
        rig.engine.rescored_requests(),
        SEED_REQUESTS as u64,
        "round 0 rescored the whole population"
    );
    // Low-churn steady state: one server update per round, no waves (a
    // wave moves every cached object's recency, which *is* global
    // churn). Dirty objects are then only the updated object plus
    // whatever the previous round's downloads refreshed — both bounded
    // by the budget, far below the table size.
    for round in 0..10u64 {
        let now = SimTime::from_ticks(rig.station.tick());
        rig.station
            .server_mut()
            .apply_update(ObjectId((round * 11 % OBJECTS as u64) as u32), now);
        rig.step();
        assert!(
            rig.engine.dirty_objects() <= BUDGET + 2,
            "round {round}: dirty {} objects on a low-churn round",
            rig.engine.dirty_objects()
        );
        assert!(
            rig.engine.rescored_requests() < SEED_REQUESTS as u64 / 2,
            "round {round}: incremental build rescored too much"
        );
    }
}

#[test]
fn engine_round_downloads_uncached_requested_objects() {
    // Semantics smoke mirroring station::tests: a fresh engine round
    // downloads what the budget allows and scores downloads at 1.0.
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
    let mut station = StationBuilder::new(Catalog::uniform_unit(10))
        .on_demand(planner, 100)
        .build()
        .expect("valid configuration");
    let mut engine = RoundEngine::new(station.catalog(), ScoringFunction::InverseRatio);
    engine.push_columns(&[ObjectId(0), ObjectId(1), ObjectId(1)], &[1.0, 1.0, 1.0]);
    let out = station.step_engine(&mut engine);
    assert_eq!(station.last_downloaded(), &[ObjectId(0), ObjectId(1)]);
    assert_eq!(out.objects_downloaded, 2);
    assert_eq!(out.units_downloaded, 2);
    assert_eq!(out.average_score, 1.0);
    assert_eq!(out.average_recency, 1.0);
    assert_eq!(out.served, 3);
    assert_eq!(out.cache_hits, 0);
    // Nothing changed: the next round is all cache hits, still fresh.
    let out = station.step_engine(&mut engine);
    assert!(station.last_downloaded().is_empty());
    assert_eq!(out.cache_hits, 3);
    assert_eq!(out.average_score, 1.0);
}

#[test]
fn engine_rounds_honour_plan_exclusions() {
    // The region-wide single-flight contract (`set_plan_exclusions`)
    // holds whichever request source the round runs on: an excluded
    // object is never origin-fetched, however stale and however wanted.
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
    let mut station = StationBuilder::new(Catalog::from_sizes(&[3, 2, 1]))
        .on_demand(planner, 100)
        .build()
        .expect("valid configuration");
    let mut engine = RoundEngine::new(station.catalog(), ScoringFunction::InverseRatio);
    engine.push_columns(&[ObjectId(0), ObjectId(0), ObjectId(1)], &[1.0, 1.0, 1.0]);
    station.step_engine(&mut engine);
    assert_eq!(station.last_downloaded(), &[ObjectId(0), ObjectId(1)]);

    // Both cached copies go stale; the region is already fetching 0.
    station.apply_update_wave();
    station.set_plan_exclusions(&[ObjectId(0)]);
    let out = station.step_engine(&mut engine);
    assert_eq!(station.last_downloaded(), &[ObjectId(1)]);
    assert_eq!(out.units_downloaded, 2, "object 0's 3 units stay unspent");
    assert!(out.average_score < 1.0, "object 0 is served stale");

    station.clear_plan_exclusions();
    let out = station.step_engine(&mut engine);
    assert_eq!(station.last_downloaded(), &[ObjectId(0)]);
    assert_eq!(out.units_downloaded, 3);
    assert_eq!(out.average_score, 1.0);
}

/// The adaptive solver's reduction must be invisible at 100k-object
/// scale under real churn: every round of a station + engine pair on the
/// production solve downloads exactly what the paper's full-table DP
/// picks on the instance the engine holds (every active object with
/// positive profit), with the same units and plan-value bits, and the
/// DP cells the reduction leaves are fewer than the full DP sweeps.
///
/// This is the massive-bench fixture scaled down in requests and
/// budget only (the object count — the axis the reduction's claim is
/// about — stays at 100k) so the reference's full DP stays affordable
/// in debug builds.
#[test]
fn massive_round_is_bit_identical_to_the_exact_dp_station() {
    const MASSIVE_OBJECTS: usize = 100_000;
    const REQUESTS: usize = 150_000;
    const MASSIVE_BUDGET: u64 = 600;
    const CHURN: usize = 500;
    const ROUNDS: usize = 3;

    let streams = RngStreams::new(0x03A5_50FF);
    let sizes: Vec<u64> = {
        let mut rng = streams.stream("massive/sizes");
        (0..MASSIVE_OBJECTS)
            .map(|_| rng.random_range(1..=8))
            .collect()
    };
    let catalog = Catalog::from_sizes(&sizes);
    let workload = StandingWorkload::new(
        Popularity::ZIPF1.build(MASSIVE_OBJECTS),
        REQUESTS,
        TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
    );
    let (objs, targets) = workload.generate_columns(&mut streams.stream("massive/requests"));
    let mut ops: Vec<ChurnOp> = Vec::new();
    workload.churn_into(
        CHURN * ROUNDS,
        &mut streams.stream("massive/churn"),
        &mut ops,
    );
    let updates: Vec<ObjectId> = {
        let mut rng = streams.stream("massive/updates");
        (0..ROUNDS * (CHURN / 5))
            .map(|_| ObjectId(rng.random_range(0..MASSIVE_OBJECTS as u32)))
            .collect()
    };

    let mut station = StationBuilder::new(catalog.clone())
        .on_demand(OnDemandPlanner::paper_default(), MASSIVE_BUDGET)
        .recorder(Box::new(FlightRecorder::new(512, 64, 8)))
        .build()
        .expect("valid configuration");
    let mut engine = RoundEngine::new(&catalog, ScoringFunction::InverseRatio);
    engine.push_columns(&objs, &targets);

    let mut dp_cells = 0;
    for round in 0..ROUNDS {
        for op in &ops[round * CHURN..(round + 1) * CHURN] {
            engine.retarget(op.object, op.slot_seed, op.target);
        }
        for &object in &updates[round * (CHURN / 5)..(round + 1) * (CHURN / 5)] {
            let now = SimTime::from_ticks(station.tick());
            station.server_mut().apply_update(object, now);
        }
        let out = station.step_engine(&mut engine);
        assert!(out.objects_downloaded > 0, "round {round} downloads");
        dp_cells += assert_engine_round_is_exact(&station, &engine, &out, MASSIVE_BUDGET);
    }
    assert_reduction_saves_cells(&station, dp_cells, "massive");
}

/// Engine rounds plan only the objects above a density cut, and the
/// adaptive solver certifies the rest out before its DP — or refuses,
/// and the round re-plans at the lower cut the certificate asked for,
/// then at cut 0, the whole instance. A churn script at the benchmark's
/// `engine-massive` shape (scaled down: 3 000 objects of size 1–8,
/// 30 000 standing requests, a 60-unit budget) reaches all three
/// outcomes; with it go a round under plan exclusions and a round of a
/// second station. Every round plans what the full-table DP picks on
/// the whole instance — every active object with positive profit, less
/// the exclusions — with the same units and value bits.
#[test]
fn engine_rounds_plan_the_whole_instance_whichever_cut_they_took() {
    const OBJECTS: usize = 3_000;
    const BUDGET: u64 = 60;
    const ROUNDS: u64 = 90;
    let streams = RngStreams::new(0x0C07);
    let sizes: Vec<u64> = {
        let mut rng = streams.stream("cut/sizes");
        (0..OBJECTS).map(|_| rng.random_range(1..=8)).collect()
    };
    let catalog = Catalog::from_sizes(&sizes);
    let workload = StandingWorkload::new(
        Popularity::ZIPF1.build(OBJECTS),
        30_000,
        TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
    );
    let (objs, targets) = workload.generate_columns(&mut streams.stream("cut/requests"));
    let mut ops: Vec<ChurnOp> = Vec::new();
    workload.churn_into(
        15 * ROUNDS as usize,
        &mut streams.stream("cut/churn"),
        &mut ops,
    );
    let mut updates = streams.stream("cut/updates");

    let build = || {
        StationBuilder::new(catalog.clone())
            .on_demand(OnDemandPlanner::paper_default(), BUDGET)
            .recorder(Box::new(SolveProbe::default()))
            .build()
            .expect("valid configuration")
    };
    let mut station = build();
    let mut second = build();
    let mut engine = RoundEngine::new(&catalog, ScoringFunction::InverseRatio);
    engine.push_columns(&objs, &targets);

    let mut reached = [0u32; 3];
    let mut left_out_total = 0u64;
    for round in 0..ROUNDS {
        for op in &ops[round as usize * 15..(round as usize + 1) * 15] {
            engine.retarget(op.object, op.slot_seed, op.target);
        }
        for _ in 0..180 {
            let object = ObjectId(updates.random_range(0..OBJECTS as u32));
            let now = SimTime::from_ticks(station.tick());
            station.server_mut().apply_update(object, now);
        }
        // Round 40 plans under exclusions: three of the objects the
        // previous round downloaded (stale again by now or not) and the
        // ten densest-looking head objects.
        let excluded: Vec<ObjectId> = if round == 40 {
            let mut e: Vec<ObjectId> = station.last_downloaded().iter().take(3).copied().collect();
            e.extend((0..10).map(ObjectId));
            e.sort_unstable();
            e.dedup();
            e
        } else {
            Vec::new()
        };
        station.set_plan_exclusions(&excluded);
        // Round 60 is the second station's.
        let stepping = if round == 60 {
            &mut second
        } else {
            &mut station
        };
        let out = stepping.step_engine(&mut engine);
        let mut whole = Instance::of_engine(&engine);
        let kept: Vec<bool> = whole
            .objects
            .iter()
            .map(|o| excluded.binary_search(o).is_err())
            .collect();
        let mut keep = kept.iter();
        whole.items.retain(|_| *keep.next().unwrap());
        whole.objects.retain(|o| excluded.binary_search(o).is_err());
        let exact = exact_dp(&whole, BUDGET);
        assert_eq!(
            stepping.last_downloaded(),
            exact.downloads,
            "round {round}: chosen set"
        );
        assert_eq!(out.units_downloaded, exact.size, "round {round}: size");
        let (value, _) = common::last_solve(stepping);
        assert_eq!(
            value.to_bits(),
            exact.value.to_bits(),
            "round {round}: value bits"
        );
        let (left_out, certificate) = common::solve_probe(stepping).last_cut();
        reached[certificate as usize] += 1;
        left_out_total += left_out;
    }
    station.clear_plan_exclusions();
    assert!(left_out_total > 0, "no round left anything out");
    assert!(
        reached.iter().all(|&n| n > 0),
        "outcomes reached: {reached:?}"
    );
}

/// The engine's derived columns against an independent recomputation.
/// The parity arms above compare the engine with its own
/// `mark_all_dirty` path, which runs the same fold, so a wrong shortcut
/// in that fold would pass them. Here, after every round of each churn
/// script, each active object's request count, score tally and profit —
/// and the assembled instance — are re-derived from `targets_for` and
/// the recency the round observed with plain per-target
/// [`ScoringFunction::score_steps`] sums, taken backwards (an integer
/// sum is the same in any order), and compared exactly.
mod independent {
    use super::*;
    use basecache_core::scratch::PlannerScratch;
    use basecache_sim::metrics::{from_steps, Sums, STEPS};

    /// Objects topped up to a fixed request count before every round:
    /// one fills a 64-target chunk exactly, one spills a target into the
    /// next, one spans more than two.
    const HEAVY: [(u32, usize); 3] = [(7, 64), (19, 65), (30, 150)];
    /// The heavy objects' targets. An oracle station observes the
    /// harmonic recencies `1/(lag + 1)`, so 1/2, 1/3 and 1/4 are hit
    /// exactly by a copy one, two or three updates behind.
    const HEAVY_TARGETS: [f64; 6] = [1.0, 0.5, 1.0 / 3.0, 0.25, 0.8, 0.45];

    fn rig(scoring: ScoringFunction) -> Rig {
        let planner = OnDemandPlanner::new(scoring);
        let station = StationBuilder::new(catalog())
            .on_demand(planner, BUDGET)
            .recorder(Box::new(FlightRecorder::new(512, 64, 8)))
            .build()
            .expect("valid configuration");
        let mut engine = RoundEngine::new(&catalog(), scoring);
        seed_population(&mut engine);
        Rig {
            station,
            engine,
            full_rebuild: false,
            dp_cells: 0,
        }
    }

    fn top_up_heavy(engine: &mut RoundEngine) {
        for (object, n) in HEAVY {
            let have = engine.targets_for(ObjectId(object)).len();
            for k in have..n {
                engine.push_request(ObjectId(object), HEAVY_TARGETS[k % HEAVY_TARGETS.len()]);
            }
        }
    }

    /// How often the rounds exercised the cases a shortcut could get
    /// wrong: a heavy object scored against a stale copy, and a stale
    /// copy whose recency equals one of its targets.
    #[derive(Default)]
    struct Coverage {
        heavy_stale: usize,
        recency_on_target: usize,
    }

    /// Bit-compare the engine's view of the round just stepped with the
    /// plain recomputation at the recency it observed.
    fn check_round(rig: &Rig, scoring: ScoringFunction, recency: &[f64], cover: &mut Coverage) {
        let engine = &rig.engine;
        let mut expected = Vec::new();
        let mut expected_items = Vec::new();
        for (o, &x) in recency.iter().enumerate() {
            let object = ObjectId(o as u32);
            let targets = engine.targets_for(object);
            if targets.is_empty() {
                continue;
            }
            let steps = |t: &f64| scoring.score_steps(x, *t);
            let sum: u64 = targets.iter().rev().map(steps).sum();
            let profit = from_steps(targets.iter().rev().map(|t| STEPS - steps(t)).sum());
            let size = rig.station.catalog().size_of(object);
            let count = targets.len() as u64;
            let tally = Sums {
                count,
                sum: sum.into(),
            };
            expected.push((object, x.to_bits(), tally, profit.to_bits(), size));
            if profit > 0.0 {
                expected_items.push((size, profit.to_bits()));
            }
            if x < 1.0 {
                cover.heavy_stale += usize::from(HEAVY.iter().any(|&(h, _)| h == object.0));
                cover.recency_on_target += usize::from(targets.contains(&x));
            }
        }
        let mut active = Vec::new();
        engine.for_each_active(|a| {
            let recency = a.recency.to_bits();
            active.push((a.object, recency, a.scores, a.profit.to_bits(), a.size));
        });
        assert_eq!(active, expected, "for_each_active diverges");
        let mut scratch = PlannerScratch::new();
        engine.assemble_into(&mut scratch);
        let items: Vec<_> = scratch
            .items()
            .iter()
            .map(|i| (i.size(), i.profit().to_bits()))
            .collect();
        assert_eq!(items, expected_items, "assembled instance diverges");
    }

    #[test]
    fn engine_sums_match_a_plain_score_loop_under_every_churn_script() {
        for scoring in [
            ScoringFunction::InverseRatio,
            ScoringFunction::Exponential,
            ScoringFunction::Step,
        ] {
            for (label, mutate) in SCRIPTS {
                let mut rig = rig(scoring);
                let mut cover = Coverage::default();
                for round in 0..24 {
                    mutate(round, &mut rig);
                    top_up_heavy(&mut rig.engine);
                    let recency = rig.station.estimated_recency_vec();
                    rig.step();
                    check_round(&rig, scoring, &recency, &mut cover);
                }
                assert!(
                    cover.heavy_stale > 0,
                    "{scoring:?}, {label}: no stale heavy object"
                );
                assert!(
                    cover.recency_on_target > 0,
                    "{scoring:?}, {label}: no recency on a target"
                );
            }
        }
    }
}

/// Property test: random round scripts with adversarial churn levels
/// (none, single-object, total) interleaved with waves and per-object
/// updates; every script must leave the incremental and full-rebuild
/// rigs bit-identical.
mod properties {
    use super::*;
    use basecache_sim::check::run_cases;
    use basecache_sim::StreamRng;

    /// One scripted action; a script is replayed identically against
    /// both rigs, so the rounds consume identical inputs.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Wave,
        Update(u32),
        Retarget(u32, u64, f64),
        ClearAll,
        Push(u32, f64),
        EndRound,
    }

    fn arb_script(rng: &mut StreamRng) -> Vec<Op> {
        let rounds = rng.random_range(3..=12u32);
        let mut ops = Vec::new();
        for _ in 0..rounds {
            // Adversarial churn level for this round: quiet rounds
            // exercise carry-forward, single-op rounds the minimal
            // dirty set, total rounds a 100% rebuild.
            match rng.random_range(0u32..4) {
                0 => {}
                1 => {
                    let n = rng.random_range(1..=3u32);
                    for _ in 0..n {
                        ops.push(Op::Retarget(
                            rng.random_range(0..OBJECTS as u32),
                            rng.next_u64(),
                            rng.random_range(0.05f64..=1.0),
                        ));
                    }
                }
                2 => {
                    ops.push(Op::ClearAll);
                    let n = rng.random_range(0..=120u32);
                    for _ in 0..n {
                        ops.push(Op::Push(
                            rng.random_range(0..OBJECTS as u32),
                            rng.random_range(0.05f64..=1.0),
                        ));
                    }
                }
                _ => {
                    let n = rng.random_range(1..=20u32);
                    for _ in 0..n {
                        ops.push(Op::Push(
                            rng.random_range(0..OBJECTS as u32),
                            rng.random_range(0.05f64..=1.0),
                        ));
                    }
                }
            }
            if rng.random_range(0u32..3) == 0 {
                ops.push(Op::Wave);
            }
            for _ in 0..rng.random_range(0..=4u32) {
                ops.push(Op::Update(rng.random_range(0..OBJECTS as u32)));
            }
            ops.push(Op::EndRound);
        }
        ops
    }

    fn replay(rig: &mut Rig, script: &[Op]) -> Vec<RoundOutcome> {
        let mut outcomes = Vec::new();
        for &op in script {
            match op {
                Op::Wave => rig.station.apply_update_wave(),
                Op::Update(o) => {
                    let now = SimTime::from_ticks(rig.station.tick());
                    rig.station.server_mut().apply_update(ObjectId(o), now);
                }
                Op::Retarget(o, seed, t) => {
                    rig.engine.retarget(ObjectId(o), seed, t);
                }
                Op::ClearAll => rig.engine.clear_requests(),
                Op::Push(o, t) => rig.engine.push_request(ObjectId(o), t),
                Op::EndRound => outcomes.push(rig.step()),
            }
        }
        outcomes
    }

    #[test]
    fn random_churn_scripts_never_diverge_from_full_rebuild() {
        run_cases("engine_incremental_parity", 48, |i, rng| {
            let script = arb_script(rng);
            let mut incremental = Rig::incremental();
            let mut reference = Rig::reference();
            let mut unobserved = Rig::unobserved();
            let a = replay(&mut incremental, &script);
            let b = replay(&mut reference, &script);
            assert_eq!(a, b, "case {i}: outcomes diverge");
            assert_rigs_match(&incremental, &reference, &format!("case {i}"));
            let c = replay(&mut unobserved, &script);
            assert_eq!(a, c, "case {i}: the unobserved rig's outcomes diverge");
            assert_eq!(
                incremental.station.stats(),
                unobserved.station.stats(),
                "case {i}: the unobserved rig's stats diverge"
            );
        });
    }
}
