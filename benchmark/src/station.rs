//! `station-paper` and `station-inflight`: the paper's own regime — one
//! base station, 500 objects, 5 000 requests a round — with instant
//! transfers, or with every download a multi-round transfer that later
//! requests join.

use std::time::Instant;

use basecache_core::planner::OnDemandPlanner;
use basecache_core::profit::build_instance;
use basecache_core::{BaseStationSim, RequestBatch, RoundOutcome, ScoringFunction, StationBuilder};
use basecache_knapsack::{DpByCapacity, Solver};
use basecache_net::{Catalog, InFlightConfig, ObjectId};
use basecache_sim::{RngStreams, SimTime};
use basecache_workload::{GeneratedRequest, Popularity, RequestGenerator, TargetRecency};

use crate::metrics::{ratio, Metrics};
use crate::sim::{monitor_violations, Observe, RoundFacts, Sim, Tape};

const OBJECTS: usize = 500;
const BATCHES: usize = 64;
const BATCH_REQUESTS: usize = 5_000;
const UPDATES_PER_ROUND: usize = 150;
/// The verify pass re-plans every this-many-th round with the exact DP.
const CHECK_EVERY: usize = 50;

pub struct Station {
    station: BaseStationSim,
    catalog: Catalog,
    budget: u64,
    in_flight: bool,
    batches: Vec<Vec<GeneratedRequest>>,
    /// `UPDATES_PER_ROUND` uniformly drawn update targets per round.
    updates: Vec<ObjectId>,
    last: RoundOutcome,
    batch_gen_us: f64,
    time_layers: bool,
    update_ns: u64,
    update_calls: u64,
    // In-flight gauges, summed over the recorded rounds.
    launched: u64,
    joined: u64,
    active_transfers: u64,
    waiting: u64,
}

impl Station {
    /// Generate the fixture from `seed` and build the station. `rounds`
    /// is how many rounds the pass will step (update targets are drawn
    /// for exactly that many).
    pub fn build(seed: u64, in_flight: bool, rounds: usize, observe: &Observe) -> Self {
        let streams = RngStreams::new(seed);
        let sizes: Vec<u64> = {
            let mut rng = streams.stream("sizes");
            (0..OBJECTS).map(|_| rng.random_range(1..=20)).collect()
        };
        let catalog = Catalog::from_sizes(&sizes);
        let budget = catalog.total_size() / 8;

        let generator = RequestGenerator::new(
            Popularity::ZIPF1.build(OBJECTS),
            BATCH_REQUESTS,
            TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
        );
        let mut rng = streams.stream("requests");
        let started = Instant::now();
        let batches: Vec<_> = (0..BATCHES).map(|_| generator.batch(&mut rng)).collect();
        let batch_gen_us = started.elapsed().as_secs_f64() * 1e6 / BATCHES as f64;

        let mut rng = streams.stream("updates");
        let updates = (0..rounds * UPDATES_PER_ROUND)
            .map(|_| ObjectId(rng.random_range(0..OBJECTS as u32)))
            .collect();

        let mut builder = StationBuilder::new(catalog.clone())
            .on_demand(OnDemandPlanner::paper_default(), budget);
        if in_flight {
            builder = builder.in_flight(InFlightConfig::coalescing(budget * 3 / 4));
        }
        let station = observe
            .install(builder, 0)
            .build()
            .expect("valid configuration");
        Self {
            station,
            catalog,
            budget,
            in_flight,
            batches,
            updates,
            last: RoundOutcome::default(),
            batch_gen_us,
            time_layers: observe.times_layers(),
            update_ns: 0,
            update_calls: 0,
            launched: 0,
            joined: 0,
            active_transfers: 0,
            waiting: 0,
        }
    }

    fn apply_updates(&mut self, i: usize) {
        let now = SimTime::from_ticks(self.station.tick());
        let targets = &self.updates[i * UPDATES_PER_ROUND..(i + 1) * UPDATES_PER_ROUND];
        let started = self.time_layers.then(Instant::now);
        let server = self.station.server_mut();
        for &object in targets {
            server.apply_update(object, now);
        }
        if let Some(started) = started {
            self.update_ns += started.elapsed().as_nanos() as u64;
            self.update_calls += targets.len() as u64;
        }
    }

    fn step(&mut self, i: usize) -> RoundFacts {
        let batch = &self.batches[i % BATCHES];
        let out = self.station.step(batch);
        self.last = out;
        RoundFacts::from_outcome(&out, batch.len() as u64)
    }
}

impl Sim for Station {
    fn round(&mut self, i: usize) -> RoundFacts {
        self.apply_updates(i);
        self.step(i)
    }

    /// On every `CHECK_EVERY`-th instant-transfer round: the downloads
    /// the station chose must be worth exactly what the exact DP gets
    /// from the same requests, recency and budget.
    fn checked_round(&mut self, i: usize) -> Result<RoundFacts, String> {
        if self.in_flight || !i.is_multiple_of(CHECK_EVERY) {
            return Ok(self.round(i));
        }
        self.apply_updates(i);
        let recency = self.station.recency_vec();
        let facts = self.step(i);
        let batch = RequestBatch::from_generated(&self.batches[i % BATCHES]);
        let mapped = build_instance(
            &batch,
            &self.catalog,
            &recency,
            ScoringFunction::InverseRatio,
        );
        let exact = DpByCapacity
            .solve(mapped.instance(), self.budget)
            .total_profit();
        let chosen = self.station.last_downloaded();
        let achieved: f64 = mapped
            .objects()
            .iter()
            .zip(mapped.instance().items())
            .filter(|(object, _)| chosen.binary_search(object).is_ok())
            .map(|(_, item)| item.profit())
            .sum();
        if (achieved - exact).abs() > 1e-9 * exact.abs().max(1.0) {
            return Err(format!(
                "round {i}: downloads worth {achieved}, exact DP gets {exact}"
            ));
        }
        Ok(facts)
    }

    fn unit_cap(&self) -> Option<u64> {
        (!self.in_flight).then_some(self.budget)
    }

    fn wait_ticks(&self) -> f64 {
        let waits = &self.station.stats().wait_ticks;
        waits.mean().unwrap_or(0.0) * waits.count() as f64
    }

    fn monitor_violations(&self) -> u64 {
        monitor_violations(&self.station)
    }

    fn record(&mut self, i: usize, tape: &mut Tape) {
        if tape.request_sets.is_empty() {
            tape.sizes = self
                .catalog
                .ids()
                .map(|id| self.catalog.size_of(id))
                .collect();
            tape.request_sets = self
                .batches
                .iter()
                .map(|batch| batch.iter().map(|r| r.object).collect())
                .collect();
        }
        tape.round_set.push(i % BATCHES);
        tape.push_downloads(&self.station);
        tape.parked
            .push((BATCH_REQUESTS - self.last.served_immediately) as u64);

        if let Some(ledger) = self.station.flight_ledger() {
            tape.flight = Some(ledger.config());
            self.launched += self.last.launched as u64;
            self.joined += self.last.joined as u64;
            self.active_transfers += ledger.active_transfers() as u64;
            self.waiting += ledger.waiting();
        }
    }

    fn layer_metrics(&self, rounds: usize, m: &mut Metrics) {
        let rounds = rounds as f64;
        m.set(
            "net.server_update_ns",
            ratio(self.update_ns as f64, self.update_calls as f64),
        );
        m.set("workload.batch_gen_us", self.batch_gen_us);
        m.set("cache.cached_units_end", self.station.cached_units() as f64);
        if let Some(ledger) = self.station.flight_ledger() {
            let (launched, joined) = (self.launched as f64, self.joined as f64);
            m.set("net.inflight.launched_per_round", launched / rounds);
            m.set("net.inflight.joined_per_round", joined / rounds);
            m.set(
                "net.inflight.coalesced_fetch_ratio",
                ratio(joined, joined + launched),
            );
            m.set(
                "net.inflight.active_transfers_mean",
                self.active_transfers as f64 / rounds,
            );
            m.set("net.inflight.waiting_mean", self.waiting as f64 / rounds);
            m.set("net.inflight.waiting_end", ledger.waiting() as f64);
        }
    }
}
