//! `engine-massive`: a standing population of half a million requests
//! over 50 000 objects in a 16-shard `RoundEngine`, churned a little and
//! updated a lot every round, stepped with `step_engine` on one thread.
//! Memory-bound and solve-dominated; it bypasses the per-request serve
//! loop entirely. Updating 6 % of the objects a round is what makes it
//! stationary within 80 warm-up rounds, and what keeps the solver's work
//! the same from seed to seed (see the README).

use std::time::Instant;

use basecache_core::planner::OnDemandPlanner;
use basecache_core::{BaseStationSim, RoundEngine, ScoringFunction, StationBuilder};
use basecache_knapsack::{DpByCapacity, DpScratch, Item};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::{RngStreams, SimTime};
use basecache_workload::{ChurnOp, Popularity, StandingWorkload, TargetRecency};

use crate::metrics::{ratio, Metrics};
use crate::sim::{monitor_violations, Observe, RoundFacts, Sim, Tape};

/// Sizes of one engine run; `smoke` is the same pipeline at 1/50.
#[derive(Debug, Clone, Copy)]
pub struct EngineScale {
    pub objects: usize,
    pub requests: usize,
    pub budget: u64,
    pub churn: usize,
    pub updates: usize,
    pub shards: usize,
}

pub const FULL: EngineScale = EngineScale {
    objects: 50_000,
    requests: 500_000,
    budget: 1_000,
    churn: 250,
    updates: 3_000,
    shards: 16,
};

pub const SMOKE: EngineScale = EngineScale {
    objects: 1_000,
    requests: 10_000,
    budget: 20,
    churn: 5,
    updates: 60,
    shards: 4,
};

/// Rounds of churn in the pre-generated pool, cycled.
const CHURN_POOL_ROUNDS: usize = 64;
/// The verify pass re-solves every this-many-th round with the exact DP.
const CHECK_EVERY: usize = 10;

pub struct Engine {
    scale: EngineScale,
    station: BaseStationSim,
    engine: RoundEngine,
    sizes: Vec<u64>,
    churn: Vec<ChurnOp>,
    updates: Vec<ObjectId>,
    columns_gen_s: f64,
    churn_gen_us: f64,
    time_layers: bool,
    ingest_ns: u64,
    update_ns: u64,
    layer_rounds: u64,
}

impl Engine {
    pub fn build(seed: u64, scale: EngineScale, rounds: usize, observe: &Observe) -> Self {
        let streams = RngStreams::new(seed);
        let sizes: Vec<u64> = {
            let mut rng = streams.stream("sizes");
            (0..scale.objects)
                .map(|_| rng.random_range(1..=8))
                .collect()
        };
        let catalog = Catalog::from_sizes(&sizes);
        let population = StandingWorkload::new(
            Popularity::ZIPF1.build(scale.objects),
            scale.requests,
            TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
        );

        let started = Instant::now();
        let (objects, targets) = population.generate_columns(&mut streams.stream("requests"));
        let columns_gen_s = started.elapsed().as_secs_f64();

        let started = Instant::now();
        let mut churn = Vec::new();
        population.churn_into(
            scale.churn * CHURN_POOL_ROUNDS,
            &mut streams.stream("churn"),
            &mut churn,
        );
        let churn_gen_us = started.elapsed().as_secs_f64() * 1e6;

        let mut rng = streams.stream("updates");
        let updates = (0..rounds * scale.updates)
            .map(|_| ObjectId(rng.random_range(0..scale.objects as u32)))
            .collect();

        let mut engine =
            RoundEngine::new(&catalog, ScoringFunction::InverseRatio).with_shards(scale.shards);
        engine.push_columns(&objects, &targets);
        let builder =
            StationBuilder::new(catalog).on_demand(OnDemandPlanner::paper_default(), scale.budget);
        let station = observe
            .install(builder, 0)
            .build()
            .expect("valid configuration");
        Self {
            scale,
            station,
            engine,
            sizes,
            churn,
            updates,
            columns_gen_s,
            churn_gen_us,
            time_layers: observe.times_layers(),
            ingest_ns: 0,
            update_ns: 0,
            layer_rounds: 0,
        }
    }

    /// Where round `i`'s retargets sit in the cycled churn pool.
    fn churn_of(&self, i: usize) -> std::ops::Range<usize> {
        let at = i % CHURN_POOL_ROUNDS * self.scale.churn;
        at..at + self.scale.churn
    }
}

impl Sim for Engine {
    fn round(&mut self, i: usize) -> RoundFacts {
        let started = self.time_layers.then(Instant::now);
        let churn = self.churn_of(i);
        for op in &self.churn[churn] {
            self.engine.retarget(op.object, op.slot_seed, op.target);
        }
        let ingested = self.time_layers.then(Instant::now);
        let now = SimTime::from_ticks(self.station.tick());
        let server = self.station.server_mut();
        for &object in &self.updates[i * self.scale.updates..(i + 1) * self.scale.updates] {
            server.apply_update(object, now);
        }
        if let (Some(started), Some(ingested)) = (started, ingested) {
            self.ingest_ns += (ingested - started).as_nanos() as u64;
            self.update_ns += ingested.elapsed().as_nanos() as u64;
            self.layer_rounds += 1;
        }
        let out = self.station.step_engine(&mut self.engine);
        RoundFacts::from_outcome(&out, self.scale.requests as u64)
    }

    /// On every `CHECK_EVERY`-th round: the instance the engine holds
    /// after the step is the one the station just solved; the downloads
    /// it chose must be worth exactly what the exact DP gets from it.
    fn checked_round(&mut self, i: usize) -> Result<RoundFacts, String> {
        let facts = self.round(i);
        if !i.is_multiple_of(CHECK_EVERY) {
            return Ok(facts);
        }
        let chosen = self.station.last_downloaded();
        let mut items = Vec::new();
        let mut achieved = 0.0;
        self.engine.for_each_active(|a| {
            if a.profit > 0.0 {
                items.push(Item::new(a.size, a.profit));
                if chosen.binary_search(&a.object).is_ok() {
                    achieved += a.profit;
                }
            }
        });
        let exact = DpByCapacity.solve_into(&items, self.scale.budget, &mut DpScratch::new());
        if (achieved - exact).abs() > 1e-9 * exact.abs().max(1.0) {
            return Err(format!(
                "round {i}: downloads worth {achieved}, exact DP gets {exact}"
            ));
        }
        Ok(facts)
    }

    fn unit_cap(&self) -> Option<u64> {
        Some(self.scale.budget)
    }

    fn monitor_violations(&self) -> u64 {
        monitor_violations(&self.station)
    }

    fn record(&mut self, i: usize, tape: &mut Tape) {
        if tape.request_sets.is_empty() {
            tape.sizes.clone_from(&self.sizes);
            tape.request_sets = (0..CHURN_POOL_ROUNDS)
                .map(|r| {
                    self.churn[self.churn_of(r)]
                        .iter()
                        .map(|op| op.object)
                        .collect()
                })
                .collect();
        }
        tape.round_set.push(i % CHURN_POOL_ROUNDS);
        tape.push_downloads(&self.station);
    }

    fn layer_metrics(&self, _rounds: usize, m: &mut Metrics) {
        let rounds = self.layer_rounds as f64;
        m.set(
            "core.engine.ingest_us_mean",
            ratio(self.ingest_ns as f64 / 1e3, rounds),
        );
        m.set(
            "net.server_update_ns",
            ratio(self.update_ns as f64, rounds * self.scale.updates as f64),
        );
        m.set("workload.columns_gen_s", self.columns_gen_s);
        m.set("workload.churn_gen_us", self.churn_gen_us);
        m.set("cache.cached_units_end", self.station.cached_units() as f64);
    }
}
