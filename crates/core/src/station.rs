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
//! 5. serve every request, recording the recency and score delivered
//!    to each client.
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
//! — decides how the instance is assembled and how requests are served.
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
    /// Distribution of per-request delivered recency. A round sums what
    /// it serves and folds the sums in once, as it closes.
    pub recency: Welford,
    /// Distribution of per-request delivered score, folded in the same
    /// way.
    pub score: Welford,
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
    /// of this round — the columnar serve's merge input.
    arrived: Vec<(ObjectId, u64)>,
}

/// Where a round's requests come from. Only the assemble half of the
/// plan stage and the serve stage look inside.
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
    /// Per-object "downloaded this round" mark, all false between
    /// rounds: the batch serve sets it from `downloaded`, reads it once
    /// per request, and clears it from `downloaded` again. The plan
    /// stage lends it to the policy under the same contract.
    downloaded_mark: Vec<bool>,
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
        // clamp the capacity), so the reserve clamps too.
        let mut scratch = PlannerScratch::new();
        if let Some(budget) = policy.unit_budget() {
            scratch.reserve(catalog.len(), budget.min(catalog.total_size()));
        }
        // Everything per-object — the cache's tables, the recency column,
        // the download buffer, the downloaded mark, the change set — is
        // sized from the catalog here, once: no round grows any of it,
        // whichever object is first requested when.
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
            downloaded_mark: vec![false; objects],
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
        match self.cache.peek(id) {
            Some(entry) => recency_for_lag(entry.lag(self.server.version_of(id))),
            None => 0.0,
        }
    }

    /// True current recency of every object's cached copy: decayed once
    /// per missed server update; 0.0 when the object is not cached.
    pub fn recency_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.fill_recency(&mut out);
        out
    }

    /// The recency vector the *planner* sees: the truth under
    /// [`Estimation::Oracle`], the estimator's belief otherwise.
    pub fn estimated_recency_vec(&self) -> Vec<f64> {
        let mut out = Vec::new();
        self.estimated_recency_into(&mut out);
        out
    }

    /// Fill `out` with [`Self::recency_vec`] without allocating (beyond
    /// `out`'s own first growth).
    fn fill_recency(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.catalog.ids().map(|id| self.true_recency(id)));
    }

    /// Fill `out` with [`Self::estimated_recency_vec`] without
    /// allocating beyond `out`'s own capacity growth; the round kernel
    /// reuses one buffer across ticks.
    fn estimated_recency_into(&self, out: &mut Vec<f64>) {
        match &self.estimation {
            Estimation::Oracle => self.fill_recency(out),
            Estimation::Estimator(est) => {
                let now = SimTime::from_ticks(self.tick);
                out.clear();
                out.extend(self.catalog.ids().map(|id| match self.cache.peek(id) {
                    Some(entry) => est.estimate(id, entry, now),
                    None => 0.0,
                }));
            }
        }
    }

    /// One slot of [`Self::estimated_recency_vec`] (the same arms as the
    /// fill above, so the same float), for callers — the cluster's
    /// demand probe — that ask about a round's requested objects only.
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
    /// Allocation-free in steady state under every policy: the recency
    /// vector, the aggregated request instance, the DP tables, and the
    /// download list all live in buffers reused across ticks.
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
    /// what changed; the serve stage runs columnar, O(requested
    /// objects) instead of O(requests), off the engine's per-object
    /// score sums.
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
    /// [`Estimation::Oracle`] — the columnar serve reads the recency
    /// column the planner observed, which must be the truth — and the
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
            "step_engine requires Estimation::Oracle: the columnar serve \
             reads the recency the planner observed, which must be the truth"
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
        match source {
            Source::Batch(requests) => {
                let ledger = carrying.map(|f| &mut f.ledger);
                self.serve_batch(&mut round, requests, ledger, &mut recency, &downloaded);
            }
            Source::Engine(engine) => self.serve_engine(&mut round, engine, carrying, &downloaded),
        }
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
        round.out.arrived += 1;
        if round.observing {
            round
                .recorder
                .attribute(Attr::DownlinkUnitsByObject, id.0, size);
        }
    }

    /// Stage 1 (carrying ledger only): land the transfers launched in
    /// earlier rounds — refresh the cache with what arrived, answer the
    /// requests parked on each transfer, and note the arrival for the
    /// columnar serve (an engine round parks nobody: its standing
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
    /// ascending. What is the same for every planner-carrying policy
    /// happens here, once — assemble the knapsack instance from the
    /// request source, adjust it to what the round may fetch; what to
    /// fetch, given that, is the policy's answer ([`Policy::plan`]).
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
        if let Some(planner) = policy.planner() {
            match source {
                Source::Batch(requests) => planner.assemble_requests_into(
                    requests,
                    &self.catalog,
                    recency,
                    &mut self.scratch,
                ),
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
        let (requests, engine) = match source {
            Source::Batch(requests) => (*requests, None),
            Source::Engine(engine) => (&[][..], ledger.is_none().then_some(&**engine)),
        };
        let view = PlanView {
            requests,
            engine,
            catalog: &self.catalog,
            recency,
            budget,
            exclusions: &self.plan_exclusions,
            scratch: &mut self.scratch,
            refresher: &mut self.refresher,
            mark: &mut self.downloaded_mark,
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
        recorder.add(Event::ObjectsDownloaded, round.out.arrived as u64);
        recorder.add(Event::UnitsDownloaded, units);
        if round.observing {
            if let Some(budget) = self.policy.unit_budget().filter(|&b| b > 0) {
                recorder.sample(Sample::DownlinkUtilization, units as f64 / budget as f64);
            }
        }
    }

    /// Stage 5, batch source: answer every request from the (possibly
    /// just refreshed) cache — except that, under a carrying ledger, a
    /// request whose object is on the wire at the current version parks
    /// on that transfer (the naive mode parks too — the comparison is
    /// about duplicate launches, not serving rules).
    ///
    /// The loop probes nothing per request: it reads two per-object
    /// columns. `recency` arrives holding what the planner saw and is
    /// turned into the *true* recency served — under the oracle it
    /// already is the truth everywhere but at this round's downloads,
    /// which are re-read; an estimator's belief is overwritten in one
    /// pass. The downloaded mark tells a hit from a fetch.
    fn serve_batch(
        &mut self,
        round: &mut Round<'_>,
        requests: &[GeneratedRequest],
        mut ledger: Option<&mut InFlightLedger>,
        recency: &mut Vec<f64>,
        downloaded: &[ObjectId],
    ) {
        let recorder = round.recorder;
        let _serve_span = Span::enter(recorder, Stage::Serve);
        match self.estimation {
            Estimation::Oracle => {
                for &id in downloaded {
                    recency[id.index()] = self.true_recency(id);
                }
            }
            Estimation::Estimator(_) => self.fill_recency(recency),
        }
        for &id in downloaded {
            self.downloaded_mark[id.index()] = true;
        }
        // Hits are counted unconditionally: they feed the outcome (and
        // cluster-level aggregation), not just the recorder, and
        // outcomes must not depend on observation.
        // The per-request loop runs on locals — accumulators behind
        // `round` cost it a tenth of its speed — folded back below.
        let (observing, tick) = (round.observing, round.tick);
        let (mut recency_acc, mut score_acc) = (round.recency, round.score);
        let (mut hits, mut served, mut joined) = (0usize, 0usize, 0usize);
        for r in requests {
            let x = recency[r.object.index()];
            if let Some(ledger) = ledger.as_deref_mut() {
                if x < 1.0 && ledger.joinable(r.object, self.server.version_of(r.object)) {
                    let launched_at = ledger.join(r.object, r.target_recency, tick);
                    if observing {
                        // `joinable` just matched the server's version.
                        let version = self.server.version_of(r.object).0;
                        let joined = round.event(Transition::Joined, r.object, version);
                        recorder.lifecycle(joined.at_launch(launched_at));
                    }
                    if launched_at < tick {
                        joined += 1;
                        recorder.incr(Event::FetchesCoalesced);
                    }
                    continue;
                }
            }
            let score = self.scoring.score(x, r.target_recency);
            recency_acc.push(x);
            score_acc.push(score);
            if !self.downloaded_mark[r.object.index()] {
                hits += 1;
            }
            served += 1;
            if observing {
                round.attribute_staleness(r.object, x, 1);
                let version = Self::serve_version(&self.cache, &self.server, r.object);
                recorder.lifecycle(round.event(Transition::Served, r.object, version));
            }
        }
        for &id in downloaded {
            self.downloaded_mark[id.index()] = false;
        }
        (round.recency, round.score) = (recency_acc, score_acc);
        round.out.cache_hits += hits;
        round.out.served_immediately += served;
        round.out.joined += joined;
        round.out.still_waiting = ledger.map_or(0, |l| l.waiting() as usize);
    }

    /// Stage 5, engine source: one visit per requested object, adding
    /// the score sums the engine's rescore cached for it instead of
    /// rescoring every request, with merge cursors over this round's
    /// downloads and (under a carrying ledger) this round's arrivals.
    /// Per object, the whole population is in exactly one state:
    ///
    /// * downloaded and landed — served at recency (hence score) 1.0:
    ///   the cache was just refreshed to the current version;
    /// * launched this round, or riding a transfer launched earlier —
    ///   waiting (the latter coalesced);
    /// * otherwise served at the recency the planner observed, which
    ///   under the oracle is the truth — after its wait, when the
    ///   object's transfer arrived this round.
    fn serve_engine(
        &mut self,
        round: &mut Round<'_>,
        engine: &RoundEngine,
        carrying: Option<&mut FlightState>,
        downloaded: &[ObjectId],
    ) {
        let recorder = round.recorder;
        let _serve_span = Span::enter(recorder, Stage::Serve);
        let (ledger, arrived) = match carrying {
            Some(flight) => {
                // Pop order is launch order; the merge needs object order.
                flight.arrived.sort_unstable();
                (Some(&flight.ledger), flight.arrived.as_slice())
            }
            None => (None, &[][..]),
        };
        let (stats, cache, server) = (&mut self.stats, &self.cache, &self.server);
        let observing = round.observing;
        let tick = round.tick;
        let mut dl = 0usize;
        let mut ar = 0usize;
        engine.for_each_active(|a| {
            while dl < downloaded.len() && downloaded[dl] < a.object {
                dl += 1;
            }
            let downloaded_now = dl < downloaded.len() && downloaded[dl] == a.object;
            while ar < arrived.len() && arrived[ar].0 < a.object {
                ar += 1;
            }
            let mut launched_at = None;
            while ar < arrived.len() && arrived[ar].0 == a.object {
                launched_at = launched_at.max(Some(arrived[ar].1));
                ar += 1;
            }
            let (n, count) = (a.requests, a.requests as usize);
            let observed = observing && n > 0;
            let event = |transition, version: u64| {
                LifecycleEvent::new(transition, a.object.0, version, tick)
                    .times(n.min(u64::from(u32::MAX)) as u32)
            };
            let cached_version = || Self::serve_version(cache, server, a.object);
            if downloaded_now && ledger.is_none() {
                round.recency.push_n(1.0, n);
                round.score.push_n(1.0, n);
                round.out.served_immediately += count;
                if observed {
                    recorder.lifecycle(event(Transition::Served, cached_version()));
                }
            } else if downloaded_now {
                round.out.still_waiting += count;
                if observed {
                    let version = server.version_of(a.object).0;
                    recorder.lifecycle(event(Transition::Requested, version));
                }
            } else if a.recency < 1.0
                && ledger.is_some_and(|l| l.joinable(a.object, server.version_of(a.object)))
            {
                recorder.add(Event::FetchesCoalesced, n);
                round.out.joined += count;
                round.out.still_waiting += count;
                if observed {
                    let version = server.version_of(a.object).0;
                    recorder.lifecycle(event(Transition::Joined, version));
                }
            } else {
                round.recency.push_n(a.recency, n);
                round.score.add(&a.scores);
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
                    round.out.cache_hits += count;
                    round.out.served_immediately += count;
                    if observed {
                        recorder.lifecycle(event(Transition::Served, cached_version()));
                    }
                }
                if observing {
                    round.attribute_staleness(a.object, a.recency, n);
                }
            }
        });
    }

    /// Close the round: derive the served total and the means (`Σ /
    /// count`, `1.0` when nothing was served), fold the outcome and the
    /// round's sums into [`StationStats`], and emit the closing samples.
    fn finish_round(&mut self, round: Round<'_>) -> RoundOutcome {
        let recorder = round.recorder;
        let mut outcome = round.out;
        outcome.objects_downloaded = outcome.arrived;
        outcome.served = outcome.served_immediately + outcome.served_after_wait;
        outcome.average_recency = round.recency.mean().unwrap_or(1.0);
        outcome.average_score = round.score.mean().unwrap_or(1.0);
        self.stats.recency.merge(&round.recency.welford());
        self.stats.score.merge(&round.score.welford());
        recorder.add(Event::RequestsServed, outcome.served as u64);
        if round.observing && outcome.served > 0 {
            let hit_ratio = outcome.cache_hits as f64 / outcome.served as f64;
            recorder.sample(Sample::CacheHitRatio, hit_ratio);
        }

        self.stats.units_downloaded += outcome.units_downloaded;
        self.stats.objects_downloaded += outcome.arrived as u64;
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
        assert_eq!(st.recency.count(), 3);
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

    /// Drive `s` for 240 rounds of random batches with irregular update
    /// waves, checking every round's serve against the naive loop the
    /// column-driven one replaced: a cache probe (`true_recency`) and a
    /// `contains` scan of the download list per request, in request
    /// order, the round's means the textbook `Σ / n` of what it served
    /// and the lifetime stats each round's sums folded in. Nothing
    /// mutates the cache or the server between the serve stage and the
    /// end of `step`, so probing afterwards reads exactly what the serve
    /// stage saw.
    fn assert_serve_matches_per_request_reference(mut s: BaseStationSim, label: &str) {
        let objects = s.catalog().len() as u32;
        let mut rng = basecache_sim::RngStreams::new(0x5E27E).stream(label);
        let (mut recency_total, mut score_total) = (Welford::new(), Welford::new());
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
            let out = s.step(&requests);

            let downloaded = s.last_downloaded();
            assert!(
                downloaded.windows(2).all(|w| w[0] < w[1]),
                "{label} round {round}: {downloaded:?} is not ascending"
            );
            let (mut recency, mut recency_sq) = (0.0, 0.0);
            let (mut score, mut score_sq) = (0.0, 0.0);
            let mut hits = 0;
            for r in &requests {
                let x = s.true_recency(r.object);
                let served_score = s.scoring.score(x, r.target_recency);
                recency += x;
                recency_sq += x * x;
                score += served_score;
                score_sq += served_score * served_score;
                hits += usize::from(!downloaded.contains(&r.object));
            }
            let n = requests.len() as u64;
            recency_total.merge(&Welford::from_sums(n, recency, recency_sq));
            score_total.merge(&Welford::from_sums(n, score, score_sq));
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
            assert_eq!(
                (out.served, out.served_immediately, out.cache_hits),
                (requests.len(), requests.len(), hits),
                "{label} round {round}"
            );
            assert!(
                s.downloaded_mark.iter().all(|&marked| !marked),
                "{label} round {round}: marks must be cleared between rounds"
            );
        }
        assert_eq!(s.stats().recency, recency_total, "{label}");
        assert_eq!(s.stats().score, score_total, "{label}");
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
