//! The time-stepped base-station simulation.
//!
//! [`BaseStationSim`] glues the substrates together exactly as the
//! paper's analyses do: a versioned [`RemoteServer`], the base-station
//! [`CacheStore`], a download [`Policy`], and per-tick client requests.
//! Each simulated time unit is one pass through a single round kernel
//! whose stages run once each, in order:
//!
//! 1. land the transfers that arrive this round (in-flight mode only);
//! 2. bring the recency column up to date — under the oracle only the
//!    slots whose copy or server version changed since the last round
//!    (see below), under an estimator every slot;
//! 3. plan: assemble the knapsack instance (an engine observes the
//!    same changed slots), adjust it, solve it;
//! 4. launch the chosen downloads and refresh the cache;
//! 5. serve every requested object, recording the recency and score
//!    delivered to its clients.
//!
//! The oracle's recency of a copy, `1/(1 + lag)`, moves only when the
//! server updates the object or the station writes its cache. So the
//! station keeps its recency column across rounds and a [`ChangeSet`]
//! of the objects to recompute: both cache-write sites note their
//! object, and stage 2 drains the server's own change set into it.
//! When that reports "everything" — the first round, an update wave, or
//! more notes than a list has room for — stage 2 refills the whole
//! column instead. Either way the column
//! equals a full recomputation bit for bit, which debug builds assert
//! every round.
//!
//! Two things vary a round, and only where they must. The *request
//! source* — a flat batch ([`BaseStationSim::step`]) or a
//! [`RoundEngine`]'s standing tables ([`BaseStationSim::step_engine`])
//! — decides how the requests are aggregated per object and assembled
//! into the instance. Both feed one serve, per object, since every
//! request a round gets for an object is answered from the same copy.
//! The *transfer model* — instantaneous (the paper's), or an in-flight
//! ledger with real durations and single-flight coalescing
//! ([`crate::builder::StationBuilder::in_flight`]) — is an
//! `Option<FlightState>` the shared stages read.
//!
//! The driver (experiment harness or example) owns the clock: it calls
//! [`BaseStationSim::apply_update_wave`] (or per-object updates) whenever
//! the remote objects change, and steps once per time unit.

use std::sync::atomic::{AtomicU64, Ordering};

use basecache_cache::CacheStore;
use basecache_knapsack::Item;
use basecache_net::{
    Arrived, Catalog, ChangeSet, InFlightConfig, InFlightLedger, InvalidationReport, ObjectId,
    ParkedWaiter, RemoteServer, Version,
};
use basecache_obs::{
    Attr, Event, LifecycleEvent, NullRecorder, Recorder, Sample, Snapshot, Span, Stage, Transition,
};
use basecache_sim::metrics::{Sums, Welford};
use basecache_sim::SimTime;
use basecache_workload::GeneratedRequest;

use crate::asynch::AsyncRefresher;
use crate::engine::RoundEngine;
use crate::error::Error;
use crate::estimator::RecencyEstimator;
use crate::outcome::RoundOutcome;
use crate::policy::PlanView;
pub use crate::policy::Policy;
use crate::recency::{recency_for_lag, ScoringFunction};
use crate::scratch::{check_plan_table, PlannerScratch};

/// How the station learns the recency of its cached copies when making
/// download decisions. Delivered-quality *measurements* always use the
/// true staleness, so estimator error shows up as policy degradation —
/// exactly what the estimator experiments quantify.
#[derive(Debug)]
pub enum Estimation {
    /// The paper's assumption: the station knows the exact version lag.
    Oracle,
    /// A pluggable estimator (TTL aging, invalidation reports, …).
    Estimator(Box<dyn RecencyEstimator + Send>),
}

/// Accumulated measurements since construction or the last
/// [`BaseStationSim::reset_stats`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StationStats {
    /// Total data units downloaded from remote servers.
    pub units_downloaded: u64,
    /// Total objects downloaded (downloads of the same object on
    /// different ticks count separately).
    pub objects_downloaded: u64,
    /// Total client requests served.
    pub requests_served: u64,
    /// Per-request delivered recency, as plain sums. A round sums what
    /// it serves and adds the sums in once, as it closes.
    pub recency: Sums,
    /// Per-request delivered score, added in the same way.
    pub score: Sums,
    /// Distribution of waiting times (in rounds) of requests answered on
    /// arrival of the transfer they rode (in-flight mode only; empty on
    /// the instantaneous path).
    pub wait_ticks: Welford,
    /// Requests answered after waiting on an in-flight transfer.
    pub waited: u64,
    /// Requests that rode a transfer launched in an earlier round
    /// instead of triggering their own fetch (single-flight coalescing).
    pub joined: u64,
}

/// In-flight download state: the ledger plus the reusable buffers the
/// round needs beside it, so steady-state rounds stay off the heap.
#[derive(Debug)]
struct FlightState {
    ledger: InFlightLedger,
    /// Waiters drained from arriving transfers, rebuilt per arrival.
    waiters: Vec<ParkedWaiter>,
    /// `(object, launched_at)` of the transfers that landed at the start
    /// of this round — an engine round's serve merges them in.
    arrived: Vec<(ObjectId, u64)>,
}

/// Where a round's requests come from. Only the assemble half of the
/// plan stage and the serve stage's feed look inside.
enum Source<'a> {
    /// A flat per-tick batch ([`BaseStationSim::step`]).
    Batch(&'a [GeneratedRequest]),
    /// A standing request population
    /// ([`BaseStationSim::step_engine`]).
    Engine(&'a mut RoundEngine),
}

/// One round's recorder, clock and running tallies, threaded through
/// the kernel's stages and closed by [`BaseStationSim::finish_round`].
struct Round<'r> {
    recorder: &'r dyn Recorder,
    /// `recorder.enabled()`, read once: gates every event only an
    /// observer pays for.
    observing: bool,
    tick: u64,
    /// The round's delivered recency and score as plain sums: the
    /// outcome reports their means, and [`BaseStationSim::finish_round`]
    /// folds them into the station-lifetime [`StationStats`] once.
    recency: Sums,
    score: Sums,
    /// The outcome under construction: the stages count arrivals,
    /// launches, joins, hits, serves and waits straight into it.
    out: RoundOutcome,
}

impl Round<'_> {
    /// A lifecycle event of this round.
    fn event(&self, transition: Transition, object: ObjectId, version: u64) -> LifecycleEvent {
        LifecycleEvent::new(transition, object.0, version, self.tick)
    }

    /// Pop the next transfer landing this round off `flight`'s ledger,
    /// appending the requests parked on it to its `waiters`; an
    /// observed round also sees the arrival's lifecycle event.
    fn pop_arrival(&self, flight: &mut FlightState) -> Option<Arrived> {
        let a = flight.ledger.pop_arrival(self.tick, &mut flight.waiters)?;
        if self.observing {
            let arrived = self.event(Transition::Arrived, a.object, a.version.0);
            self.recorder.lifecycle(arrived.at_launch(a.launched_at));
        }
        Some(a)
    }

    /// Charge the staleness an object's clients were served at, in
    /// thousandths per request: a request served at recency 0.4 adds
    /// 600 to its object's tally.
    fn attribute_staleness(&self, object: ObjectId, recency: f64, requests: u64) {
        let staleness = ((1.0 - recency) * 1_000.0).round() as u64;
        if staleness > 0 {
            self.recorder
                .attribute(Attr::ServeStalenessByObject, object.0, staleness * requests);
        }
    }
}

/// Identities handed to stations as they are built, so an engine can
/// tell which station observed it last.
static NEXT_STATION_ID: AtomicU64 = AtomicU64::new(0);

/// The base-station simulation.
#[derive(Debug)]
pub struct BaseStationSim {
    /// This station's identity among all built in the process.
    id: u64,
    catalog: Catalog,
    server: RemoteServer,
    cache: CacheStore,
    policy: Policy,
    refresher: AsyncRefresher,
    scoring: ScoringFunction,
    estimation: Estimation,
    tick: u64,
    stats: StationStats,
    recorder: Box<dyn Recorder>,
    // Hot-path buffers, reused across ticks so a steady-state step
    // allocates nothing (see `tests/alloc_free.rs`).
    scratch: PlannerScratch,
    /// The recency column the planner reads: under the oracle kept
    /// across rounds and recomputed only at `changed` slots (see the
    /// module docs), under an estimator refilled every round.
    recency_buf: Vec<f64>,
    downloaded: Vec<ObjectId>,
    /// Per-object "requests park" mark, all false between rounds: a
    /// batch round's serve sets it, the park pass reads and clears it.
    /// A byte an object, not a bit: with a bitset here (or none) the
    /// benchmark's `station-paper` heap top steps ~1.7 MB at pass 36.
    parked: Vec<bool>,
    /// Objects the planner must not origin-fetch this round (sorted
    /// ascending): a regional L2 tier sets these when another cell
    /// already fetched — or is fetching — the current version, so the
    /// region-wide single-flight contract holds. Empty outside L2 mode,
    /// and the empty case takes the exact unfiltered planning path.
    plan_exclusions: Vec<ObjectId>,
    /// In-flight download mode (multi-round transfers + single-flight
    /// coalescing); `None` is the paper's instantaneous model.
    flight: Option<FlightState>,
    /// Objects whose recency may have moved since the recency stage last
    /// ran: the cache writes since then, and — drained in at that stage
    /// — the server's updates.
    changed: ChangeSet,
}

impl BaseStationSim {
    /// The one constructor, fed by [`crate::builder::StationBuilder`].
    /// The cache starts empty ("we started with an empty cache"); the
    /// server starts with every object at version 0. Served requests are
    /// scored with the planner's own scoring function, so the station
    /// measures what its planner optimizes (inverse-ratio for the
    /// policies without a planner).
    pub(crate) fn assemble(
        catalog: Catalog,
        policy: Policy,
        estimation: Estimation,
        recorder: Box<dyn Recorder>,
    ) -> Self {
        let scoring = policy
            .planner()
            .map_or(ScoringFunction::InverseRatio, |planner| planner.scoring());
        let server = RemoteServer::new(&catalog);
        let refresher = AsyncRefresher::new(&catalog);
        // Pre-size the planner scratch for the worst case the policy can
        // pose — a full-catalog instance at the full budget — so the
        // first round (and every solve path, including the adaptive
        // pipeline's full-DP fallback) stays off the heap. Budgets past
        // the catalog's total size are equivalent to it (the solvers
        // clamp the capacity), so the reserve clamps too. A policy
        // without a planner only aggregates its batches there.
        let mut scratch = PlannerScratch::new();
        match policy.unit_budget() {
            Some(budget) => scratch.reserve(catalog.len(), budget.min(catalog.total_size())),
            None => scratch.reserve_aggregation(catalog.len()),
        }
        // Everything per-object — the aggregation columns, the cache's
        // tables, the recency column, the download buffer, the change
        // set — is sized from the catalog here, once: no round grows any
        // of it, whichever object is first requested when.
        let objects = catalog.len();
        let mut cache = CacheStore::unbounded();
        cache.reserve_objects(objects);
        Self {
            id: NEXT_STATION_ID.fetch_add(1, Ordering::Relaxed),
            catalog,
            server,
            cache,
            policy,
            refresher,
            scoring,
            estimation,
            tick: 0,
            stats: StationStats::default(),
            recorder,
            scratch,
            recency_buf: vec![0.0; objects],
            downloaded: Vec::with_capacity(objects),
            parked: vec![false; objects],
            plan_exclusions: Vec::new(),
            flight: None,
            changed: ChangeSet::everything(objects),
        }
    }

    /// Switch the station into in-flight download mode (called by the
    /// builder, which validates that the policy is [`Policy::OnDemand`]).
    pub(crate) fn install_flight(&mut self, config: InFlightConfig) {
        let mut ledger = InFlightLedger::new(config, self.catalog.len());
        ledger.reserve(self.catalog.len(), 0);
        self.flight = Some(FlightState {
            ledger,
            waiters: Vec::new(),
            arrived: Vec::new(),
        });
    }

    /// The in-flight ledger, when the station runs in in-flight mode
    /// (see [`crate::builder::StationBuilder::in_flight`]).
    pub fn flight_ledger(&self) -> Option<&InFlightLedger> {
        self.flight.as_ref().map(|f| &f.ledger)
    }

    /// The current time unit (number of steps taken).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// The catalog the station serves.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The authoritative remote server (for drivers applying per-object
    /// updates).
    pub fn server_mut(&mut self) -> &mut RemoteServer {
        &mut self.server
    }

    /// The remote server (inspection — e.g. the regional L2 exchange
    /// asking which version is current before consulting its directory).
    pub fn server(&self) -> &RemoteServer {
        &self.server
    }

    /// The cache (inspection).
    pub fn cache(&self) -> &CacheStore {
        &self.cache
    }

    /// Data units currently resident in the cache — the gauge behind the
    /// [`Sample::CachedUnits`] channel and the invariant monitor's
    /// cache-accounting check.
    pub fn cached_units(&self) -> u64 {
        self.cache.used()
    }

    /// The version of the cached copy of `id` (falling back to the
    /// server's current version when nothing is cached) — the key
    /// lifecycle serve events correlate spans by.
    fn serve_version(cache: &CacheStore, server: &RemoteServer, id: ObjectId) -> u64 {
        match cache.peek(id) {
            Some(entry) => entry.version.0,
            None => server.version_of(id).0,
        }
    }

    /// Accumulated stats.
    pub fn stats(&self) -> &StationStats {
        &self.stats
    }

    /// The installed observability recorder.
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// Re-budget the policy for the next tick without rebuilding the
    /// station. A backhaul arbiter calls this every round to turn its
    /// global allocation into the cell's local knapsack capacity. The
    /// value is in data units for the budgeted policies and in objects
    /// for the `k`-object ones (identical on unit-size catalogs).
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError::PlanTableTooLarge`] when a knapsack policy's
    /// exact-DP tables at `budget` would pass
    /// [`crate::scratch::MAX_PLAN_TABLE_BYTES`] — the bound
    /// [`crate::builder::StationBuilder::build`] enforces. The station
    /// keeps its old budget.
    pub fn set_download_budget(&mut self, budget: u64) -> Result<(), Error> {
        if self.policy.unit_budget().is_some() {
            check_plan_table(&self.catalog, budget)?;
        }
        self.policy.set_budget(budget);
        Ok(())
    }

    /// Materialize everything the installed recorder observed (empty
    /// under the default [`NullRecorder`]). Allocates; call at report
    /// time.
    pub fn obs_snapshot(&self) -> Snapshot {
        self.recorder.snapshot()
    }

    /// Forget accumulated stats (end of warm-up: the paper warms the
    /// cache for 50–100 time units before measuring).
    pub fn reset_stats(&mut self) {
        self.stats = StationStats::default();
    }

    /// Update every remote object simultaneously (the paper's update
    /// waves at t = 0, 5, 10, …).
    pub fn apply_update_wave(&mut self) {
        self.server
            .apply_simultaneous_update(SimTime::from_ticks(self.tick));
    }

    /// True current recency of `id`'s cached copy: decayed once per
    /// missed server update; 0.0 when the object is not cached.
    #[inline]
    fn true_recency(&self, id: ObjectId) -> f64 {
        Self::recency_in(&self.cache, &self.server, id)
    }

    /// [`Self::true_recency`] over the two fields it reads, for the
    /// stages that borrow the station's other fields beside them.
    #[inline]
    fn recency_in(cache: &CacheStore, server: &RemoteServer, id: ObjectId) -> f64 {
        match cache.peek(id) {
            Some(entry) => recency_for_lag(entry.lag(server.version_of(id))),
            None => 0.0,
        }
    }

    /// True current recency of every object's cached copy: decayed once
    /// per missed server update; 0.0 when the object is not cached.
    pub fn recency_vec(&self) -> Vec<f64> {
        self.catalog.ids().map(|id| self.true_recency(id)).collect()
    }

    /// The recency vector the *planner* sees: the truth under
    /// [`Estimation::Oracle`], the estimator's belief otherwise.
    pub fn estimated_recency_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.estimated_recency_into(&mut out);
        out
    }

    /// Fill `out` with [`Self::estimated_recency_vec`] without
    /// allocating beyond `out`'s own capacity growth; the round kernel
    /// reuses one buffer across ticks.
    fn estimated_recency_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.catalog.ids().map(|id| self.estimated_recency_of(id)));
    }

    /// One slot of [`Self::estimated_recency_vec`], for callers — the
    /// cluster's demand probe — that ask about a round's requested
    /// objects only.
    pub fn estimated_recency_of(&self, id: ObjectId) -> f64 {
        match &self.estimation {
            Estimation::Oracle => self.true_recency(id),
            Estimation::Estimator(est) => match self.cache.peek(id) {
                Some(entry) => est.estimate(id, entry, SimTime::from_ticks(self.tick)),
                None => 0.0,
            },
        }
    }

    /// The objects the most recent round chose to download, ascending.
    /// Empty before the first step.
    pub fn last_downloaded(&self) -> &[ObjectId] {
        &self.downloaded
    }

    /// Forbid the next round's planner from origin-fetching `objects`
    /// (the regional L2 tier already holds — or is fetching — their
    /// current versions), whichever request source the round runs on.
    /// The list is copied, sorted and deduplicated into a reusable
    /// buffer; it stays in force until [`Self::clear_plan_exclusions`].
    /// With an empty list the planning path is exactly the unfiltered
    /// one, bit for bit.
    pub fn set_plan_exclusions(&mut self, objects: &[ObjectId]) {
        self.plan_exclusions.clear();
        self.plan_exclusions.extend_from_slice(objects);
        self.plan_exclusions.sort_unstable();
        self.plan_exclusions.dedup();
    }

    /// Drop every planner exclusion (see [`Self::set_plan_exclusions`]).
    pub fn clear_plan_exclusions(&mut self) {
        self.plan_exclusions.clear();
    }

    /// The version of the cached copy of `id`, if one is resident.
    pub fn cached_version_of(&self, id: ObjectId) -> Option<Version> {
        self.cache.peek(id).map(|entry| entry.version)
    }

    /// Install a copy of `id` obtained from a remote peer (an L2
    /// neighbor cell) at the version *the peer holds* — which may lag
    /// the origin. The copy lands in the cache exactly like a download,
    /// but the recency estimator is only told about a refresh when the
    /// installed version is the origin's current one; a stale L2 copy
    /// keeps its honest staleness. Returns the object's size in units
    /// (what the transfer cost the inter-cell link).
    pub fn install_remote_copy(&mut self, id: ObjectId, version: Version) -> u64 {
        let size = self.catalog.size_of(id);
        let now = SimTime::from_ticks(self.tick);
        self.cache
            .insert(id, size, version, now)
            .expect("unbounded cache never refuses");
        self.changed.note(id);
        if version == self.server.version_of(id) {
            if let Estimation::Estimator(est) = &mut self.estimation {
                est.on_refresh(id, now);
            }
        }
        size
    }

    /// Deliver a server invalidation report to the station's estimator
    /// (ignored under [`Estimation::Oracle`]).
    pub fn deliver_report(&mut self, report: &InvalidationReport) {
        if let Estimation::Estimator(est) = &mut self.estimation {
            est.ingest_report(report);
            self.recorder.incr(Event::ReportsIngested);
        }
    }

    /// Simulate one time unit over the given client requests.
    ///
    /// The round visits the requests once, aggregating them per object
    /// (count, knapsack profit, served score), and serves per object.
    /// Allocation-free in steady state under every policy: the recency
    /// vector, the aggregated requests, the DP tables, and the download
    /// list all live in buffers reused across ticks.
    ///
    /// In in-flight mode ([`crate::builder::StationBuilder::in_flight`])
    /// downloads are launched onto the ledger instead of landing at
    /// once, and a request whose object is on the wire at the current
    /// version parks on that transfer until it arrives. With
    /// `bandwidth_per_round == 0` every transfer lands inside its launch
    /// round and the round is bit-identical to the instantaneous one
    /// (pinned by `tests/inflight_invariants.rs`).
    pub fn step(&mut self, requests: &[GeneratedRequest]) -> RoundOutcome {
        self.round(Source::Batch(requests))
    }

    /// Simulate one time unit against a [`RoundEngine`]'s standing
    /// request tables instead of a flat per-tick batch — the
    /// million-request round. The driver mutates the engine between
    /// steps (pushes, retargets, clears) and the engine rescores only
    /// what changed; the serve stage, per object as on every round,
    /// adds the engine's per-object score sums.
    ///
    /// Runs the same round kernel as [`Self::step`] — same stages, same
    /// span/round/event/sample structure, so flight recordings of engine
    /// rounds are row-compatible with batch rounds. In in-flight mode
    /// the requests of an object on the wire count as waiting rather
    /// than being parked one by one: the population persists, so they
    /// re-serve columnar in the arrival round. Allocation-free in steady
    /// state (see `tests/alloc_free.rs`).
    ///
    /// # Panics
    ///
    /// Panics unless the station runs [`Policy::OnDemand`] under
    /// [`Estimation::Oracle`] — the engine's score sums are against the
    /// recency the planner observed, which must be the truth — and the
    /// engine's table matches the station's catalog and the planner's
    /// scoring function. The table's length is checked every round, its
    /// sizes on every round that observes the whole recency column (the
    /// first one with this station, and any after the engine saw
    /// another round).
    pub fn step_engine(&mut self, engine: &mut RoundEngine) -> RoundOutcome {
        assert!(
            matches!(self.policy, Policy::OnDemand { .. }),
            "step_engine requires Policy::OnDemand"
        );
        assert!(
            matches!(self.estimation, Estimation::Oracle),
            "step_engine requires Estimation::Oracle: the engine scores \
             against the recency the planner observed, which must be the truth"
        );
        assert_eq!(
            engine.num_objects(),
            self.catalog.len(),
            "engine table must cover the station's catalog"
        );
        self.round(Source::Engine(engine))
    }

    /// The round kernel: every stage of a scheduling round, once, in
    /// order. What varies is read where it matters — the request source
    /// in the plan stage's assemble half and in the serve stage, the
    /// transfer model (`self.flight`) inside the shared stages.
    ///
    /// A ledger only *carries* transfers across rounds when it has a
    /// bandwidth. An instant one (`bandwidth_per_round == 0`) lands
    /// every launch inside the refresh stage, so no arrival is pending
    /// at round start, no request is joinable, the budget loses nothing
    /// and no profit is amortized: each stage degenerates to the
    /// ledger-free round, the same float operations in the same order.
    fn round(&mut self, mut source: Source<'_>) -> RoundOutcome {
        // Lift the recorder, the flight state and the round's two
        // buffers out of `self` so the stages can borrow the station
        // mutably beside them. (A boxed `NullRecorder` is zero-sized:
        // the stand-in allocates nothing.)
        let recorder = std::mem::replace(&mut self.recorder, Box::new(NullRecorder));
        let mut flight = self.flight.take();
        let mut recency = std::mem::take(&mut self.recency_buf);
        let mut downloaded = std::mem::take(&mut self.downloaded);
        downloaded.clear();

        let mut round = Round {
            recorder: &*recorder,
            observing: recorder.enabled(),
            tick: self.tick,
            recency: Sums::new(),
            score: Sums::new(),
            out: RoundOutcome {
                tick: self.tick,
                ..RoundOutcome::default()
            },
        };
        let step_span = Span::enter(round.recorder, Stage::Step);
        recorder.begin_round(self.tick);
        recorder.incr(Event::Rounds);
        let batch_size = match &source {
            Source::Batch(requests) => requests.len() as u64,
            Source::Engine(engine) => engine.total_requests(),
        };
        recorder.sample(Sample::BatchSize, batch_size as f64);

        let mut carrying = flight.as_mut().filter(|f| !f.ledger.is_instant());
        if let Some(flight) = carrying.as_deref_mut() {
            self.land_arrivals(&mut round, flight);
        }
        self.update_recency(&round, &mut recency);
        let ledger = carrying.as_deref().map(|f| &f.ledger);
        self.plan(&round, &mut source, ledger, &recency, &mut downloaded);
        self.launch(&mut round, flight.as_mut(), &downloaded);
        let carrying = flight.as_mut().filter(|f| !f.ledger.is_instant());
        self.serve(&mut round, source, carrying, &recency, &downloaded);
        let outcome = self.finish_round(round);

        drop(step_span);
        self.recorder = recorder;
        self.flight = flight;
        self.recency_buf = recency;
        self.downloaded = downloaded;
        self.tick += 1;
        outcome
    }

    /// The round's single cache-insert site: a fresh copy of `id` lands
    /// — from a direct download or an arriving transfer alike — and is
    /// counted against the round.
    fn refresh_copy(&mut self, round: &mut Round<'_>, id: ObjectId, size: u64, version: Version) {
        let now = SimTime::from_ticks(round.tick);
        self.cache
            .insert(id, size, version, now)
            .expect("unbounded cache never refuses");
        self.changed.note(id);
        if let Estimation::Estimator(est) = &mut self.estimation {
            est.on_refresh(id, now);
        }
        round.out.units_downloaded += size;
        round.out.objects_downloaded += 1;
        if round.observing {
            round
                .recorder
                .attribute(Attr::DownlinkUnitsByObject, id.0, size);
        }
    }

    /// Stage 1 (carrying ledger only): land the transfers launched in
    /// earlier rounds — refresh the cache with what arrived, answer the
    /// requests parked on each transfer, and note the arrival for an
    /// engine round's serve (an engine round parks nobody: its standing
    /// requests re-serve off the rescored columns).
    fn land_arrivals(&mut self, round: &mut Round<'_>, flight: &mut FlightState) {
        let recorder = round.recorder;
        let _fetch_span = Span::enter(recorder, Stage::Fetch);
        flight.arrived.clear();
        loop {
            flight.waiters.clear();
            let Some(a) = round.pop_arrival(flight) else {
                break;
            };
            self.refresh_copy(round, a.object, a.size, a.version);
            flight.arrived.push((a.object, a.launched_at));
            if round.observing {
                if a.version != self.server.version_of(a.object) {
                    // The copy was invalidated while on the wire.
                    recorder.incr(Event::StaleArrivals);
                    let stale = round.event(Transition::InvalidatedStale, a.object, a.version.0);
                    recorder.lifecycle(stale.at_launch(a.launched_at));
                }
                if !flight.waiters.is_empty() {
                    let served = round.event(Transition::ServedFromWait, a.object, a.version.0);
                    let times = flight.waiters.len().min(u32::MAX as usize) as u32;
                    recorder.lifecycle(served.at_launch(a.launched_at).times(times));
                }
            }
            // Waiters are served at the landed copy's *true* recency:
            // if the version was invalidated while on the wire, they
            // get (and are scored on) what actually arrived.
            let x = self.true_recency(a.object);
            for w in &flight.waiters {
                let score = self.scoring.score(x, w.target_recency);
                round.recency.push(x);
                round.score.push(score);
                let wait = (round.tick - w.issued_at) as f64;
                self.stats.wait_ticks.push(wait);
                self.stats.waited += 1;
                round.out.served_after_wait += 1;
                recorder.sample(Sample::FetchLatencyTicks, wait);
                if round.observing {
                    // Decompose the wait: ticks spent before the
                    // transfer launched (queueing) vs. riding the
                    // wire; the serve itself is same-round (0 ticks),
                    // kept as a channel so the model stays explicit.
                    let queueing = a.launched_at.saturating_sub(w.issued_at);
                    let on_wire = round.tick - w.issued_at.max(a.launched_at);
                    recorder.sample(Sample::WaitQueueingTicks, queueing as f64);
                    recorder.sample(Sample::WaitOnWireTicks, on_wire as f64);
                    recorder.sample(Sample::WaitServeTicks, 0.0);
                    round.attribute_staleness(a.object, x, 1);
                }
            }
        }
    }

    /// Stage 2: bring the recency the planner sees up to date with the
    /// cache as the arrivals left it. Under the oracle the column is
    /// recomputed only at the changed slots — or refilled whole when the
    /// server reports that everything changed; an estimator's belief
    /// depends on the clock, so it is refilled every round.
    fn update_recency(&mut self, round: &Round<'_>, recency: &mut Vec<f64>) {
        let _recency_span = Span::enter(round.recorder, Stage::Recency);
        self.server.drain_changes_into(&mut self.changed);
        match (&self.estimation, self.changed.listed()) {
            (Estimation::Oracle, Some(changed)) => {
                for &id in changed {
                    recency[id.index()] = self.true_recency(id);
                }
            }
            _ => self.estimated_recency_into(recency),
        }
        if let Estimation::Oracle = self.estimation {
            debug_assert!(
                self.catalog
                    .ids()
                    .all(|id| recency[id.index()].to_bits() == self.true_recency(id).to_bits()),
                "round {}: the maintained recency column differs from a full fill",
                round.tick
            );
        }
    }

    /// Stage 3: choose this round's downloads into `downloaded`,
    /// ascending. What is the same for every policy happens here, once
    /// — aggregate a batch's requests per object, and for a
    /// planner-carrying policy assemble the knapsack instance from the
    /// request source and adjust it to what the round may fetch; what
    /// to fetch, given that, is the policy's answer ([`Policy::plan`]).
    fn plan(
        &mut self,
        round: &Round<'_>,
        source: &mut Source<'_>,
        ledger: Option<&InFlightLedger>,
        recency: &[f64],
        downloaded: &mut Vec<ObjectId>,
    ) {
        let recorder = round.recorder;
        let plan_span = Span::enter(recorder, Stage::Plan);
        let policy = self.policy;
        let mut budget = policy.budget();
        if let Source::Batch(requests) = source {
            // Served scores are the truth's: only an estimator station,
            // whose planner sees a belief, scores a second time.
            let (cache, server) = (&self.cache, &self.server);
            let truth = |id| Self::recency_in(cache, server, id);
            let estimator = matches!(self.estimation, Estimation::Estimator(_));
            let truth = estimator.then_some(&truth as &dyn Fn(ObjectId) -> f64);
            let profit = policy.planner().is_some();
            let (catalog, scoring) = (&self.catalog, self.scoring);
            self.scratch
                .aggregate(requests, catalog, scoring, recency, profit, truth);
        }
        if let Some(planner) = policy.planner() {
            match source {
                Source::Batch(_) => self.scratch.assemble_requested(&self.catalog),
                // The engine observes the slots the recency stage
                // recomputed — or the whole column when it did not see
                // this station's previous round — and arrivals dirty
                // themselves there (their bits moved), so the
                // incremental build pays only for what landed or the
                // caller touched. A carrying ledger amortizes profits
                // over arrival delays, so the engine's densities are
                // not that round's: it plans the whole instance.
                Source::Engine(engine) => {
                    let changed = self.changed.listed();
                    engine.observe_round(recency, changed, &self.catalog, self.id, round.tick);
                    let cut_for = ledger.is_none().then_some(budget);
                    planner.assemble_engine_into(engine, cut_for, &mut self.scratch, recorder)
                }
            }
            budget = self.adjust_instance(round, ledger, budget);
        }
        let engine = match source {
            Source::Batch(_) => None,
            Source::Engine(engine) => ledger.is_none().then_some(&**engine),
        };
        let view = PlanView {
            engine,
            catalog: &self.catalog,
            recency,
            budget,
            exclusions: &self.plan_exclusions,
            scratch: &mut self.scratch,
            refresher: &mut self.refresher,
        };
        policy.plan(view, recorder, downloaded);
        debug_assert!(
            downloaded.windows(2).all(|w| w[0] < w[1]),
            "a round's downloads are distinct and ascending"
        );
        if let Source::Engine(engine) = source {
            // What the round left out of its knapsack and how its
            // certificate went (0: at its first cut, 1: at the lowered
            // one, 2: the whole instance after a refusal); the edge it
            // would have certified is the next round's hint.
            let cut = self.scratch.cut;
            recorder.sample(Sample::LeftOutObjects, engine.left_out_objects(cut) as f64);
            recorder.sample(Sample::CutCertificate, f64::from(self.scratch.certificate));
            if ledger.is_none() {
                engine.note_needed_edge(self.scratch.adaptive.needed_edge());
            }
        }
        // The column and the engine are current: from here on the
        // change set collects the next round's slots.
        self.changed.clear();
        drop(plan_span);
        if round.observing {
            for &id in downloaded.iter() {
                let version = self.server.version_of(id).0;
                recorder.lifecycle(round.event(Transition::Planned, id, version));
            }
        }
    }

    /// Fit the assembled instance to what this round may actually
    /// fetch, and return the budget left to fetch it with. Each step is
    /// skipped when it has nothing to do, so a ledger-free round with no
    /// exclusions solves exactly the instance it assembled.
    ///
    /// * Single-flight: an object on the wire at the current version
    ///   leaves the instance — its requests ride that transfer. (It can
    ///   reach the instance even as a zero-profit item, fresh cache and
    ///   redundant transfer active; dropping it keeps the contract no
    ///   matter how the solver tie-breaks zero profit.)
    /// * Regional single-flight: so does an L2-excluded object — the
    ///   region already holds, or is fetching, its current version, so
    ///   this cell must not pay origin for it.
    /// * Commitment: the budget loses what the link already promised to
    ///   earlier transfers this round.
    /// * Amortization: a candidate that would land `d > 1` rounds away
    ///   has its profit divided by `d`.
    fn adjust_instance(
        &mut self,
        round: &Round<'_>,
        ledger: Option<&InFlightLedger>,
        budget_units: u64,
    ) -> u64 {
        let single_flight = ledger.filter(|l| l.coalesce());
        if single_flight.is_some() || !self.plan_exclusions.is_empty() {
            let server = &self.server;
            self.scratch.retain_objects(&self.plan_exclusions, |o| {
                !single_flight.is_some_and(|l| l.joinable(o, server.version_of(o)))
            });
        }
        let Some(ledger) = ledger else {
            return budget_units;
        };
        let committed = ledger.committed_at(round.tick);
        if round.observing {
            round
                .recorder
                .sample(Sample::CommittedUnits, committed as f64);
        }
        for item in &mut self.scratch.items {
            let delay = ledger.arrival_delay(item.size(), round.tick);
            if delay > 1 {
                *item = Item::new(item.size(), item.profit() / delay as f64);
            }
        }
        budget_units.saturating_sub(committed)
    }

    /// Stage 4: fetch what the plan chose. Without a ledger a download
    /// lands in the round that chose it (the paper's model); with one
    /// it is launched onto the wire, and an instant ledger pops it
    /// straight back in launch (= ascending object) order, replaying the
    /// direct loop exactly.
    fn launch(
        &mut self,
        round: &mut Round<'_>,
        flight: Option<&mut FlightState>,
        downloaded: &[ObjectId],
    ) {
        let recorder = round.recorder;
        let refresh_span = Span::enter(recorder, Stage::Refresh);
        round.out.launched = downloaded.len();
        match flight {
            None => {
                for &id in downloaded {
                    let version = self.server.version_of(id);
                    self.refresh_copy(round, id, self.catalog.size_of(id), version);
                    if round.observing {
                        // The transfer launches and lands in one tick.
                        let arrived = round.event(Transition::Arrived, id, version.0);
                        recorder.lifecycle(arrived.at_launch(round.tick));
                    }
                }
            }
            Some(flight) => {
                for &id in downloaded {
                    if flight.ledger.is_object_active(id) {
                        recorder.incr(Event::DuplicateFetches);
                    }
                    let version = self.server.version_of(id);
                    let size = self.catalog.size_of(id);
                    flight.ledger.launch(id, version, size, round.tick);
                    if round.observing {
                        let launched = round.event(Transition::Launched, id, version.0);
                        recorder.lifecycle(launched.at_launch(round.tick));
                    }
                }
                recorder.add(Event::FetchesIssued, downloaded.len() as u64);
                if flight.ledger.is_instant() {
                    while let Some(a) = round.pop_arrival(flight) {
                        self.refresh_copy(round, a.object, a.size, a.version);
                    }
                    debug_assert!(
                        flight.waiters.is_empty(),
                        "instant transfers never park waiters"
                    );
                }
            }
        }
        drop(refresh_span);
        let units = round.out.units_downloaded;
        recorder.add(
            Event::ObjectsDownloaded,
            round.out.objects_downloaded as u64,
        );
        recorder.add(Event::UnitsDownloaded, units);
        if round.observing {
            if let Some(budget) = self.policy.unit_budget().filter(|&b| b > 0) {
                recorder.sample(Sample::DownlinkUtilization, units as f64 / budget as f64);
            }
        }
    }

    /// Stage 5: answer the round's requests from the (possibly just
    /// refreshed) cache, one visit per requested object, ascending:
    /// every request a round gets for an object is answered from the
    /// same copy. An engine feeds its standing tables
    /// ([`RoundEngine::for_each_active`]), a batch the rows its plan
    /// stage aggregated: an object's request count, the recency it is
    /// served at (the truth) and its requests' Σ score there. Merge
    /// cursors walk the round's downloads and, for an engine under a
    /// carrying ledger, its arrivals. All of an object's requests are
    /// * downloaded and landed — served at 1.0;
    /// * waiting on a transfer launched this round or earlier (then
    ///   coalesced) — the one arm that depends on the source: a
    ///   standing population counts them as waiting, a one-shot batch
    ///   parks each of them ([`Self::park`]) when its copy is stale; an
    ///   estimator may launch a current copy, whose requests a batch
    ///   serves at once, not as hits;
    /// * or served at their recency: after their wait when an engine
    ///   object's transfer landed this round, else as hits.
    ///
    /// Each object adds `n · x` and its Σ score to the round's tallies:
    /// the tally's one definition, whichever the source.
    fn serve(
        &mut self,
        round: &mut Round<'_>,
        source: Source<'_>,
        carrying: Option<&mut FlightState>,
        recency: &[f64],
        downloaded: &[ObjectId],
    ) {
        let recorder = round.recorder;
        let _serve_span = Span::enter(recorder, Stage::Serve);
        let (ledger, arrived) = match carrying {
            Some(flight) => (Some(&mut flight.ledger), &mut flight.arrived[..]),
            None => (None, &mut [][..]),
        };
        let arrived: &[(ObjectId, u64)] = match source {
            Source::Engine(_) => {
                // Pop order is launch order; the merge needs object order.
                arrived.sort_unstable();
                arrived
            }
            Source::Batch(_) => &[],
        };
        let park = matches!(source, Source::Batch(_)) && ledger.is_some();
        let stats = &mut self.stats;
        let (cache, server) = (&self.cache, &self.server);
        let (observing, tick) = (round.observing, round.tick);
        let flight = ledger.as_deref();
        let (mut dl, mut ar) = (0usize, 0usize);
        // Serve one object's requests; true when they are a batch's to
        // park.
        let mut visit = |object: ObjectId, x: f64, scores: Sums| -> bool {
            while dl < downloaded.len() && downloaded[dl] < object {
                dl += 1;
            }
            let downloaded_now = dl < downloaded.len() && downloaded[dl] == object;
            while ar < arrived.len() && arrived[ar].0 < object {
                ar += 1;
            }
            let mut launched_at = None;
            while ar < arrived.len() && arrived[ar].0 == object {
                launched_at = launched_at.max(Some(arrived[ar].1));
                ar += 1;
            }
            let (n, count) = (scores.count, scores.count as usize);
            let observed = observing && n > 0;
            let event = |transition, version: u64| {
                LifecycleEvent::new(transition, object.0, version, tick)
                    .times(n.min(u64::from(u32::MAX)) as u32)
            };
            let cached_version = || Self::serve_version(cache, server, object);
            let joins =
                x < 1.0 && flight.is_some_and(|l| l.joinable(object, server.version_of(object)));
            if downloaded_now && flight.is_none() {
                round.recency.push_n(1.0, n);
                round.score.push_n(1.0, n);
                round.out.served_immediately += count;
                if observed {
                    recorder.lifecycle(event(Transition::Served, cached_version()));
                }
            } else if joins || downloaded_now && !park {
                if park {
                    return true;
                }
                round.out.still_waiting += count;
                let version = server.version_of(object).0;
                if downloaded_now {
                    if observed {
                        recorder.lifecycle(event(Transition::Requested, version));
                    }
                } else {
                    recorder.add(Event::FetchesCoalesced, n);
                    round.out.joined += count;
                    if observed {
                        recorder.lifecycle(event(Transition::Joined, version));
                    }
                }
            } else {
                round.recency.push_n(x, n);
                round.score.add(&scores);
                if let Some(launched_at) = launched_at {
                    let wait = (tick - launched_at) as f64;
                    stats.wait_ticks.push_n(wait, n);
                    stats.waited += n;
                    round.out.served_after_wait += count;
                    recorder.sample(Sample::FetchLatencyTicks, wait);
                    if observed {
                        // Standing requests wait from the launch round,
                        // so the whole wait rides the wire; the serve is
                        // same-round.
                        recorder.sample(Sample::WaitQueueingTicks, 0.0);
                        recorder.sample(Sample::WaitOnWireTicks, wait);
                        recorder.sample(Sample::WaitServeTicks, 0.0);
                        let served = event(Transition::ServedFromWait, cached_version());
                        recorder.lifecycle(served.at_launch(launched_at));
                    }
                } else {
                    // A batch object launched this round whose copy was
                    // current anyway is served at once, but not a hit.
                    if !downloaded_now {
                        round.out.cache_hits += count;
                    }
                    round.out.served_immediately += count;
                    if observed {
                        recorder.lifecycle(event(Transition::Served, cached_version()));
                    }
                }
                if observing {
                    round.attribute_staleness(object, x, n);
                }
            }
            false
        };
        match source {
            Source::Engine(engine) => engine.for_each_active(|a| {
                visit(a.object, a.recency, a.scores);
            }),
            Source::Batch(requests) => {
                let oracle = matches!(self.estimation, Estimation::Oracle);
                let parked = &mut self.parked;
                self.scratch.drain_requested(|object, count, sum| {
                    // The oracle's column is the truth everywhere the
                    // serve reads it (a download's slot is not read).
                    let x = if oracle {
                        recency[object.index()]
                    } else {
                        Self::recency_in(cache, server, object)
                    };
                    parked[object.index()] = visit(object, x, Sums { count, sum });
                });
                if let Some(ledger) = ledger.filter(|_| park) {
                    self.park(round, requests, ledger);
                }
            }
        }
    }

    /// The park pass of a batch round under a carrying ledger: one walk
    /// of the requests, in request order, parking each whose object the
    /// serve left marked on the object's newest transfer (so waiters
    /// queue in the order their requests came), then clearing the marks.
    fn park(
        &mut self,
        round: &mut Round<'_>,
        requests: &[GeneratedRequest],
        ledger: &mut InFlightLedger,
    ) {
        let tick = round.tick;
        let mut joined = 0usize;
        for r in requests.iter().filter(|r| self.parked[r.object.index()]) {
            let launched_at = ledger.join(r.object, r.target_recency, tick);
            if round.observing {
                // The serve's `joinable` matched the server's version.
                let version = self.server.version_of(r.object).0;
                let joined = round.event(Transition::Joined, r.object, version);
                round.recorder.lifecycle(joined.at_launch(launched_at));
            }
            joined += usize::from(launched_at < tick);
        }
        self.parked.fill(false);
        round.recorder.add(Event::FetchesCoalesced, joined as u64);
        round.out.joined += joined;
        round.out.still_waiting = ledger.waiting() as usize;
    }

    /// Close the round: derive the served total and the means (`Σ /
    /// count`, `1.0` when nothing was served), fold the outcome and the
    /// round's sums into [`StationStats`], and emit the closing samples.
    fn finish_round(&mut self, round: Round<'_>) -> RoundOutcome {
        let recorder = round.recorder;
        let mut outcome = round.out;
        outcome.served = outcome.served_immediately + outcome.served_after_wait;
        outcome.average_recency = round.recency.mean().unwrap_or(1.0);
        outcome.average_score = round.score.mean().unwrap_or(1.0);
        self.stats.recency.add(&round.recency);
        self.stats.score.add(&round.score);
        recorder.add(Event::RequestsServed, outcome.served as u64);
        if round.observing && outcome.served > 0 {
            let hit_ratio = outcome.cache_hits as f64 / outcome.served as f64;
            recorder.sample(Sample::CacheHitRatio, hit_ratio);
        }

        self.stats.units_downloaded += outcome.units_downloaded;
        self.stats.objects_downloaded += outcome.objects_downloaded as u64;
        self.stats.requests_served += outcome.served as u64;
        self.stats.joined += outcome.joined as u64;

        recorder.sample(Sample::AverageRecency, outcome.average_recency);
        recorder.sample(Sample::AverageScore, outcome.average_score);
        if round.observing {
            recorder.sample(Sample::CachedUnits, self.cache.used() as f64);
        }
        recorder.end_round(round.tick);
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::StationBuilder;
    use crate::planner::OnDemandPlanner;

    fn req(id: u32) -> GeneratedRequest {
        GeneratedRequest {
            object: ObjectId(id),
            target_recency: 1.0,
        }
    }

    fn station(catalog: Catalog, policy: Policy) -> BaseStationSim {
        StationBuilder::new(catalog)
            .policy(policy)
            .build()
            .expect("test configurations are valid")
    }

    fn on_demand_station(n: usize, budget: u64) -> BaseStationSim {
        station(
            Catalog::uniform_unit(n),
            Policy::OnDemand {
                planner: OnDemandPlanner::new(ScoringFunction::InverseRatio),
                budget_units: budget,
            },
        )
    }

    #[test]
    fn uncached_requested_objects_are_downloaded_and_score_one() {
        let mut s = on_demand_station(10, 100);
        let out = s.step(&[req(0), req(1), req(1)]);
        assert_eq!(s.last_downloaded(), &[ObjectId(0), ObjectId(1)]);
        assert_eq!(out.objects_downloaded, 2);
        assert_eq!(out.units_downloaded, 2);
        assert_eq!(out.average_score, 1.0);
        assert_eq!(out.average_recency, 1.0);
        assert_eq!(out.served, 3);
    }

    #[test]
    fn fresh_cached_objects_are_not_redownloaded() {
        let mut s = on_demand_station(5, 100);
        s.step(&[req(2)]);
        let out = s.step(&[req(2)]);
        assert!(
            s.last_downloaded().is_empty(),
            "no update happened: cache copy is fresh"
        );
        assert_eq!(out.objects_downloaded, 0);
        assert_eq!(out.average_score, 1.0);
    }

    #[test]
    fn update_wave_makes_copies_stale_and_triggers_redownload() {
        let mut s = on_demand_station(5, 100);
        s.step(&[req(2)]);
        s.apply_update_wave();
        let recency = s.recency_vec();
        assert!((recency[2] - 0.5).abs() < 1e-12, "one missed update → 1/2");
        assert_eq!(recency[0], 0.0, "never cached");
        let out = s.step(&[req(2)]);
        assert_eq!(s.last_downloaded(), &[ObjectId(2)]);
        assert_eq!(out.average_score, 1.0);
    }

    #[test]
    fn zero_budget_serves_stale_data() {
        let mut s = on_demand_station(5, 0);
        // Nothing can ever be downloaded: scores reflect pure staleness.
        let out = s.step(&[req(0)]);
        assert!(s.last_downloaded().is_empty());
        assert!(out.average_score < 1.0);
        assert_eq!(out.average_recency, 0.0);
    }

    #[test]
    fn budget_limits_per_tick_downloads() {
        let mut s = on_demand_station(10, 3);
        let reqs: Vec<_> = (0..8).map(req).collect();
        let out = s.step(&reqs);
        assert_eq!(out.units_downloaded, 3);
        assert_eq!(out.objects_downloaded, 3);
    }

    #[test]
    fn async_policy_ignores_requests() {
        let mut s = station(
            Catalog::uniform_unit(6),
            Policy::AsyncRoundRobin { k_objects: 2 },
        );
        let out = s.step(&[req(5)]);
        assert_eq!(
            s.last_downloaded(),
            &[ObjectId(0), ObjectId(1)],
            "round robin, not demand"
        );
        assert_eq!(
            out.average_score, 0.5,
            "request for 5 served with nothing cached"
        );
        let out = s.step(&[]);
        assert_eq!(s.last_downloaded(), &[ObjectId(2), ObjectId(3)]);
        assert_eq!(out.average_score, 1.0, "empty batch scores 1 by convention");
    }

    #[test]
    fn downloads_are_ascending_when_the_round_robin_wraps() {
        let mut s = station(
            Catalog::uniform_unit(10),
            Policy::AsyncRoundRobin { k_objects: 4 },
        );
        s.step(&[]);
        s.step(&[]);
        // The third round takes 8, 9 and wraps to 0, 1.
        let out = s.step(&[req(0), req(5), req(9)]);
        let ids = |ids: &[u32]| ids.iter().map(|&i| ObjectId(i)).collect::<Vec<_>>();
        assert_eq!(s.last_downloaded(), ids(&[0, 1, 8, 9]));
        assert_eq!(out.cache_hits, 1, "5 was refreshed in round two");
    }

    #[test]
    fn lowest_recency_policy_picks_stalest_requested() {
        let mut s = station(
            Catalog::uniform_unit(4),
            Policy::OnDemandLowestRecency { k_objects: 1 },
        );
        // Cache 0 and 1; object 1 then misses two waves, 0 misses one.
        s.step(&[req(1)]);
        s.apply_update_wave();
        s.step(&[req(0)]);
        s.apply_update_wave();
        // Both requested; 1 has lag 2 (recency 1/3), 0 has lag 1 (1/2).
        s.step(&[req(0), req(1)]);
        assert_eq!(s.last_downloaded(), &[ObjectId(1)]);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut s = on_demand_station(5, 100);
        s.step(&[req(0), req(1)]);
        s.step(&[req(0)]);
        let st = s.stats();
        assert_eq!(st.requests_served, 3);
        assert_eq!(st.units_downloaded, 2);
        assert_eq!(st.recency.count, 3);
        s.reset_stats();
        assert_eq!(s.stats().requests_served, 0);
        assert_eq!(s.tick(), 2, "reset keeps the clock");
    }

    #[test]
    fn adaptive_budget_downloads_high_gain_objects_only() {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
        // Sizes: one cheap object, one expensive one.
        let mut s = station(
            Catalog::from_sizes(&[1, 30]),
            Policy::OnDemandAdaptive {
                planner,
                max_budget: 100,
                window: 2,
                threshold: 0.05,
            },
        );
        // Warm both, then stale them.
        let both = [req(0), req(1)];
        s.step(&both);
        s.step(&both);
        s.apply_update_wave();
        // One client wants each. The cheap stale object yields ~0.33
        // benefit for 1 unit (~0.17/unit over the 2-unit window); the
        // big one yields ~0.33 for 30 units (~0.011/unit, under the
        // 0.05 threshold): the adaptive budget stops after the cheap
        // download. (The window must match the object-size scale — a
        // window much wider than the cheap object dilutes its spike.)
        let out = s.step(&both);
        assert_eq!(s.last_downloaded(), &[ObjectId(0)]);
        assert_eq!(out.units_downloaded, 1);
    }

    #[test]
    fn adaptive_with_zero_threshold_downloads_everything_stale() {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
        let mut s = station(
            Catalog::from_sizes(&[1, 30]),
            Policy::OnDemandAdaptive {
                planner,
                max_budget: 100,
                window: 10,
                threshold: 0.0,
            },
        );
        let both = [req(0), req(1)];
        s.step(&both);
        s.step(&both);
        s.apply_update_wave();
        s.step(&both);
        assert_eq!(s.last_downloaded(), &[ObjectId(0), ObjectId(1)]);
    }

    #[test]
    fn hybrid_spends_leftover_budget_on_background_refresh() {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
        let mut s = station(
            Catalog::uniform_unit(6),
            Policy::Hybrid {
                planner,
                budget_units: 4,
            },
        );
        // Warm the cache with everything (two rounds: the 4-unit budget
        // caches 4 objects per round), then make it all stale.
        let all: Vec<_> = (0..6).map(req).collect();
        s.step(&all);
        s.step(&all);
        assert_eq!(s.cache().len(), 6, "cache fully warmed");
        s.apply_update_wave();
        // Only object 0 is requested (1 unit); 3 units remain for the
        // stalest cached objects 1, 2, 3.
        let out = s.step(&[req(0)]);
        assert_eq!(out.units_downloaded, 4, "full budget spent");
        assert_eq!(
            s.last_downloaded(),
            &[ObjectId(0), ObjectId(1), ObjectId(2), ObjectId(3)]
        );
    }

    #[test]
    fn hybrid_with_no_leftover_reduces_to_on_demand() {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
        let mut hybrid = station(
            Catalog::uniform_unit(8),
            Policy::Hybrid {
                planner,
                budget_units: 3,
            },
        );
        let mut pure = station(
            Catalog::uniform_unit(8),
            Policy::OnDemand {
                planner,
                budget_units: 3,
            },
        );
        // More stale demand than budget: the planner consumes everything.
        let reqs: Vec<_> = (0..8).map(req).collect();
        hybrid.step(&reqs);
        pure.step(&reqs);
        assert_eq!(hybrid.last_downloaded(), pure.last_downloaded());
    }

    #[test]
    fn ttl_estimation_drives_planning_but_not_measurement() {
        use crate::estimator::TtlEstimator;

        // TTL assumes updates every 1000 ticks: the estimator believes
        // everything stays fresh, so after the real update wave the
        // planner downloads nothing — and the *measured* score honestly
        // reports the resulting staleness.
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
        let mut s = StationBuilder::new(Catalog::uniform_unit(4))
            .on_demand(planner, 100)
            .estimator(Box::new(TtlEstimator::new(1000)))
            .build()
            .expect("test configurations are valid");
        s.step(&[req(0)]);
        s.apply_update_wave();
        let out = s.step(&[req(0)]);
        assert!(
            s.last_downloaded().is_empty(),
            "optimistic TTL sees no staleness"
        );
        assert!(out.average_score < 1.0, "measurement uses the truth");
    }

    #[test]
    fn report_estimation_restores_oracle_behaviour_when_complete() {
        use crate::estimator::ReportEstimator;
        use basecache_net::ReportLog;

        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
        let catalog = Catalog::uniform_unit(4);
        let mut log = ReportLog::new(&catalog);
        let mut s = StationBuilder::new(catalog)
            .on_demand(planner, 100)
            .estimator(Box::new(ReportEstimator::new(4)))
            .build()
            .expect("test configurations are valid");
        s.step(&[req(0)]);
        // Server updates; the report reaches the station.
        s.apply_update_wave();
        log.record_wave();
        let report = log.cut_report(SimTime::from_ticks(1));
        s.deliver_report(&report);
        let out = s.step(&[req(0)]);
        assert_eq!(
            s.last_downloaded(),
            &[ObjectId(0)],
            "report reveals the staleness"
        );
        assert_eq!(out.average_score, 1.0);
    }

    /// A transfer as [`assert_serve_matches_per_request_reference`]
    /// follows it: what it fetches, when it lands, and the targets of
    /// the requests parked on it, in join order.
    struct ReferenceTransfer {
        object: ObjectId,
        version: Version,
        launched_at: u64,
        arrives_at: u64,
        waiters: Vec<f64>,
    }

    /// Drive `s` for 240 rounds of random batches with irregular update
    /// waves, checking every round's serve against a reference computed
    /// per request, independently of the station's columns: a cache
    /// probe (`true_recency`), a textbook `score` and a `contains` scan
    /// of the download list per request. Under a carrying ledger the
    /// reference keeps its own list of transfers (each round's launches,
    /// read off the ledger in launch order, with their arrival rounds):
    /// a request parks, in request order, on its object's newest
    /// transfer when that fetches the server's version and the copy it
    /// would be served is stale, and a landed transfer's waiters are
    /// served, in launch then join order, at the landed version's
    /// recency. The tally's definition is the serve's: the waiters
    /// first, then each object's scores summed in request order, the
    /// objects' sums — and each object's `n · x` recency — added in
    /// ascending object order, the round's means the plain `Σ / n` and
    /// the lifetime stats the rounds' sums added up. Nothing mutates the
    /// cache or the server between the serve stage and the end of
    /// `step`, so probing afterwards reads exactly what the serve stage
    /// saw. Returns how many requests were for an object launched in
    /// their round under a carrying ledger whose copy was current
    /// anyway (served at once, not parked).
    fn assert_serve_matches_per_request_reference(mut s: BaseStationSim, label: &str) -> usize {
        let objects = s.catalog().len() as u32;
        let mut rng = basecache_sim::RngStreams::new(0x5E27E).stream(label);
        let (mut recency_total, mut score_total) = (0.0, 0.0);
        let (mut served_total, mut waited_total, mut joined_total) = (0u64, 0u64, 0u64);
        let mut transfers = std::collections::VecDeque::<ReferenceTransfer>::new();
        let mut current_launches = 0;
        for round in 0..240u32 {
            if round % 3 == 1 || round % 7 == 0 {
                s.apply_update_wave();
            }
            // Objects in the top quarter are first requested late, so
            // uncached (0.0) and freshly cached copies both show up.
            let reach = if round < 60 { objects * 3 / 4 } else { objects };
            let requests: Vec<GeneratedRequest> = (0..rng.random_range(0..=80usize))
                .map(|_| GeneratedRequest {
                    object: ObjectId(rng.random_range(0..reach)),
                    target_recency: rng.random_range(0.05f64..=1.0),
                })
                .collect();
            let tick = s.tick();
            let out = s.step(&requests);

            let downloaded = s.last_downloaded();
            assert!(
                downloaded.windows(2).all(|w| w[0] < w[1]),
                "{label} round {round}: {downloaded:?} is not ascending"
            );
            let (mut recency, mut score) = (0.0, 0.0);
            let mut waited = 0;
            while transfers.front().is_some_and(|t| t.arrives_at <= tick) {
                let t = transfers.pop_front().expect("checked non-empty");
                let x = recency_for_lag(t.version.lag(s.server().version_of(t.object)));
                for &target in &t.waiters {
                    recency += x;
                    score += s.scoring.score(x, target);
                    waited += 1;
                }
            }
            let carrying = s.flight_ledger().filter(|l| !l.is_instant());
            if let Some(ledger) = carrying {
                ledger.for_each_active(|a| {
                    if a.launched_at == tick {
                        transfers.push_back(ReferenceTransfer {
                            object: a.object,
                            version: a.version,
                            launched_at: a.launched_at,
                            arrives_at: a.arrives_at,
                            waiters: Vec::new(),
                        });
                    }
                });
            }
            let mut per_object = std::collections::BTreeMap::new();
            let (mut hits, mut joined) = (0, 0);
            for r in &requests {
                let x = s.true_recency(r.object);
                let current = s.server().version_of(r.object);
                let newest = transfers.iter_mut().rev().find(|t| t.object == r.object);
                if let Some(t) = newest.filter(|t| t.version == current && x < 1.0) {
                    t.waiters.push(r.target_recency);
                    joined += usize::from(t.launched_at < tick);
                    continue;
                }
                let launched = downloaded.contains(&r.object);
                current_launches += usize::from(launched && carrying.is_some());
                let (n, score) = per_object.entry(r.object).or_insert((0u64, 0.0));
                *n += 1;
                *score += s.scoring.score(x, r.target_recency);
                hits += usize::from(!launched);
            }
            let mut immediate = 0;
            for (&object, &(n, object_score)) in &per_object {
                recency += s.true_recency(object) * n as f64;
                score += object_score;
                immediate += n as usize;
            }
            let n = (waited + immediate) as u64;
            recency_total += recency;
            score_total += score;
            served_total += n;
            waited_total += waited as u64;
            joined_total += joined as u64;
            let bits = |sum: f64| if n == 0 { 1.0 } else { sum / n as f64 }.to_bits();
            assert_eq!(
                out.average_recency.to_bits(),
                bits(recency),
                "{label} round {round}"
            );
            assert_eq!(
                out.average_score.to_bits(),
                bits(score),
                "{label} round {round}"
            );
            let still_waiting = transfers.iter().map(|t| t.waiters.len()).sum::<usize>();
            assert_eq!(
                (out.served, out.served_immediately, out.served_after_wait),
                (waited + immediate, immediate, waited),
                "{label} round {round}"
            );
            assert_eq!(
                (out.cache_hits, out.joined, out.still_waiting),
                (hits, joined, still_waiting),
                "{label} round {round}"
            );
            // Every transfer carries the requests the reference parked
            // on it.
            let mut carried = Vec::new();
            if let Some(ledger) = carrying {
                ledger.for_each_active(|a| carried.push((a.object, a.launched_at, a.waiters)));
            }
            let expected: Vec<_> = transfers
                .iter()
                .map(|t| (t.object, t.launched_at, t.waiters.len()))
                .collect();
            assert_eq!(carried, expected, "{label} round {round}");
            assert!(
                s.scratch.requested().next().is_none()
                    && !s.parked.contains(&true)
                    && s.scratch.per_count.iter().all(|&n| n == 0)
                    && s.scratch.per_score.iter().all(|&sum| sum == 0.0),
                "{label} round {round}: the aggregation and the park marks must be cleared"
            );
        }
        let total = |sum| Sums {
            count: served_total,
            sum,
        };
        assert_eq!(s.stats().recency, total(recency_total), "{label}");
        assert_eq!(s.stats().score, total(score_total), "{label}");
        assert_eq!(
            (
                s.stats().requests_served,
                s.stats().waited,
                s.stats().joined
            ),
            (served_total, waited_total, joined_total),
            "{label}"
        );
        current_launches
    }

    #[test]
    fn serve_columns_match_per_request_probes_when_the_planner_is_misled() {
        use crate::estimator::TtlEstimator;

        // The TTL believes in an update every 4 ticks; the waves come
        // irregularly and more often, so the recency the planner is
        // handed is not the recency served.
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
        let s = StationBuilder::new(Catalog::from_sizes(&[1, 3, 2, 5, 1, 4, 2, 2, 3, 1, 6, 2]))
            .on_demand(planner, 7)
            .estimator(Box::new(TtlEstimator::new(4)))
            .build()
            .expect("test configurations are valid");
        assert_serve_matches_per_request_reference(s, "serve-parity/ttl");
    }

    #[test]
    fn serve_columns_match_per_request_probes_for_unsorted_downloads() {
        // 5 of 12 objects a round: the round-robin cursor wraps inside a
        // round, so the refresher hands the arm a run that is not
        // ascending.
        let s = station(
            Catalog::uniform_unit(12),
            Policy::AsyncRoundRobin { k_objects: 5 },
        );
        assert_serve_matches_per_request_reference(s, "serve-parity/round-robin");
    }

    #[test]
    fn serve_columns_match_per_request_probes_on_a_misled_in_flight_station() {
        use crate::estimator::TtlEstimator;

        // The TTL ages copies by elapsed time, so the planner launches
        // copies that are still current; their requests are served at
        // once, while a stale copy's park on its transfer.
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
        let s = StationBuilder::new(Catalog::from_sizes(&[1, 3, 2, 5, 1, 4, 2, 2, 3, 1, 6, 2]))
            .on_demand(planner, 7)
            .estimator(Box::new(TtlEstimator::new(1)))
            .in_flight(InFlightConfig::coalescing(7))
            .build()
            .expect("test configurations are valid");
        let current = assert_serve_matches_per_request_reference(s, "serve-parity/ttl-in-flight");
        assert!(
            current > 0,
            "no request met a launched copy that was current"
        );
    }

    #[test]
    fn serve_columns_match_per_request_probes_on_a_naive_in_flight_station() {
        // No single-flight: the planner may launch an object already on
        // the wire, and its requests park on the newest transfer.
        let planner = OnDemandPlanner::new(ScoringFunction::Exponential);
        let s = StationBuilder::new(Catalog::from_sizes(&[2, 1, 3, 1, 2, 4, 1, 2, 5, 1]))
            .on_demand(planner, 6)
            .in_flight(InFlightConfig::naive(4))
            .build()
            .expect("test configurations are valid");
        assert_serve_matches_per_request_reference(s, "serve-parity/naive-in-flight");
    }

    #[test]
    #[should_panic(expected = "engine table's sizes must match the station's catalog")]
    fn step_engine_rejects_an_engine_sized_for_another_catalog() {
        let mut s = station(
            Catalog::from_sizes(&[1, 2, 3]),
            Policy::OnDemand {
                planner: OnDemandPlanner::new(ScoringFunction::InverseRatio),
                budget_units: 6,
            },
        );
        // Same length, so the per-round length check passes.
        let other = Catalog::from_sizes(&[3, 2, 1]);
        let mut engine = RoundEngine::new(&other, ScoringFunction::InverseRatio);
        engine.push_request(ObjectId(0), 1.0);
        s.step_engine(&mut engine);
    }

    #[test]
    fn score_when_served_stale_matches_scoring_function() {
        let mut s = on_demand_station(3, 0);
        s.server_mut().apply_update(ObjectId(0), SimTime::ZERO);
        let out = s.step(&[req(0)]);
        // Not cached: x = 0 → deviation 1 → score 1/2.
        assert!((out.average_score - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_station_scores_with_its_planners_scoring_function() {
        let mut s = station(
            Catalog::uniform_unit(3),
            Policy::OnDemand {
                planner: OnDemandPlanner::new(ScoringFunction::Exponential),
                budget_units: 0,
            },
        );
        let out = s.step(&[req(0)]);
        // Not cached and nothing downloaded: x = 0 → exp(-1).
        assert_eq!(
            out.average_score,
            ScoringFunction::Exponential.score(0.0, 1.0)
        );
    }
}
