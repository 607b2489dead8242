//! Latency-aware base-station simulation.
//!
//! [`crate::BaseStationSim`] follows the paper's abstraction: downloads
//! complete within the time unit they are issued. [`LatencyAwareSim`]
//! drops that assumption and models what the paper's introduction
//! worries about: "there may be delays due to network traffic and server
//! workloads ... If there is too much delay in downloading data from
//! remote sources, some of the available downlink bandwidth may be
//! idle."
//!
//! Mechanics per time unit:
//!
//! 1. Downloads whose fixed-network transfer has completed arrive and
//!    refresh the cache; clients that were waiting on them are served
//!    (fresh, score 1.0) over the downlink, with their response time
//!    recorded.
//! 2. The station plans: every requested-but-uncached object *must* be
//!    fetched (the paper's model); the knapsack planner then spends the
//!    per-tick refresh budget on stale cached copies. Transfers are
//!    enqueued on the bandwidth-limited fixed network ([`Link`]).
//! 3. Requests for cached objects are answered immediately from the
//!    cache (possibly stale) over the downlink; requests for uncached
//!    objects wait for step 1 of a later tick.

use std::collections::HashSet;

use basecache_cache::CacheStore;
use basecache_net::{Catalog, Downlink, Link, ObjectId, RemoteServer, SharedLink, Version};
use basecache_obs::{Event, LifecycleEvent, Recorder, Sample, Snapshot, Span, Stage, Transition};
use basecache_sim::metrics::Welford;
use basecache_sim::{P2Quantile, Scheduler, SimTime};
use basecache_workload::GeneratedRequest;

use crate::outcome::RoundOutcome;
use crate::planner::OnDemandPlanner;
use crate::recency::{DecayModel, ScoringFunction};
use crate::request::RequestBatch;
use basecache_net::ClientId;

/// An in-flight download completing at its scheduled time.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    object: ObjectId,
    version: Version,
    /// Tick the transfer entered the fixed network (lifecycle-span
    /// correlation).
    launched_at: u64,
    /// Tick the first byte actually went out — later than `launched_at`
    /// when the link's queue was backed up (wait decomposition:
    /// queueing vs. on-wire).
    started_at: u64,
}

/// A client request parked until its object arrives.
#[derive(Debug, Clone, Copy)]
struct Waiting {
    object: ObjectId,
    target_recency: f64,
    issued_at: SimTime,
}

/// Aggregate measurements of a [`LatencyAwareSim`] run.
#[derive(Debug, Clone)]
pub struct LatencyStats {
    /// Data units shipped over the fixed network.
    pub units_downloaded: u64,
    /// Per-request delivered score (truth, not estimate).
    pub score: Welford,
    /// Response time in ticks of requests that had to wait.
    pub wait_ticks: Welford,
    /// Streaming 95th percentile of those waits (P² estimator).
    pub wait_p95: P2Quantile,
    /// Requests served straight from the cache.
    pub immediate: u64,
    /// Requests that waited for a download.
    pub waited: u64,
}

impl Default for LatencyStats {
    fn default() -> Self {
        Self {
            units_downloaded: 0,
            score: Welford::new(),
            wait_ticks: Welford::new(),
            wait_p95: P2Quantile::new(0.95),
            immediate: 0,
            waited: 0,
        }
    }
}

/// The latency-aware station.
#[derive(Debug)]
pub struct LatencyAwareSim {
    catalog: Catalog,
    server: RemoteServer,
    cache: CacheStore,
    planner: OnDemandPlanner,
    refresh_budget: u64,
    fixed_net: SharedLink,
    downlink: Downlink,
    decay: DecayModel,
    scoring: ScoringFunction,
    in_flight: Scheduler<Arrival>,
    pending: HashSet<ObjectId>,
    waiting: Vec<Waiting>,
    tick: u64,
    stats: LatencyStats,
    recorder: Box<dyn Recorder>,
}

impl LatencyAwareSim {
    /// The one constructor, reached through the validating
    /// [`crate::builder::StationBuilder::build_latency_aware`].
    ///
    /// `fixed_net` carries downloads (bandwidth + latency; share it
    /// across stations for the multi-cell backbone); `downlink` carries
    /// deliveries to clients; `refresh_budget` bounds the data units of
    /// *stale-refresh* downloads per tick (mandatory fetches of uncached
    /// requested objects are not charged against it, matching the
    /// paper's "any object that is not in the cache must be
    /// downloaded").
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        catalog: Catalog,
        planner: OnDemandPlanner,
        refresh_budget: u64,
        fixed_net: SharedLink,
        downlink: Downlink,
        decay: DecayModel,
        scoring: ScoringFunction,
        recorder: Box<dyn Recorder>,
    ) -> Self {
        let server = RemoteServer::new(&catalog);
        let mut cache = CacheStore::unbounded();
        cache.reserve_objects(catalog.len());
        Self {
            catalog,
            server,
            cache,
            planner,
            refresh_budget,
            fixed_net,
            downlink,
            decay,
            scoring,
            in_flight: Scheduler::new(),
            pending: HashSet::new(),
            waiting: Vec::new(),
            tick: 0,
            stats: LatencyStats::default(),
            recorder,
        }
    }

    /// Install an observability recorder (default: the no-op
    /// [`basecache_obs::NullRecorder`]). Fetch launches, fetch latencies
    /// and the per-tick fetch-ingest stage are recorded as the simulation runs;
    /// call [`Self::observe_infrastructure`] once at the end of a run to
    /// add the cumulative link/downlink/scheduler figures.
    pub fn with_recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// The installed observability recorder.
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// Report the cumulative infrastructure figures to the recorder: the
    /// downlink's deliveries and utilization, the fixed network's
    /// utilization, and the in-flight scheduler's processed events. Call
    /// once per run (the figures are cumulative since construction), then
    /// read everything back with [`Self::obs_snapshot`].
    pub fn observe_infrastructure(&self) {
        let recorder = &*self.recorder;
        if !recorder.enabled() {
            return;
        }
        let now = SimTime::from_ticks(self.tick);
        self.downlink.observe(now, recorder);
        recorder.sample(
            Sample::LinkUtilization,
            self.fixed_net.lock().utilization(now),
        );
        recorder.add(Event::SchedulerEvents, self.in_flight.stats().processed);
    }

    /// Materialize everything the installed recorder observed (empty
    /// under the default [`basecache_obs::NullRecorder`]).
    pub fn obs_snapshot(&self) -> Snapshot {
        self.recorder.snapshot()
    }

    /// The current time unit.
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Accumulated measurements.
    pub fn stats(&self) -> &LatencyStats {
        &self.stats
    }

    /// The downlink (idle/utilization accounting).
    pub fn downlink(&self) -> &Downlink {
        &self.downlink
    }

    /// The fixed-network link (locked view; shared with other stations
    /// when they were built over clones of one [`SharedLink`]).
    pub fn fixed_net(&self) -> std::sync::MutexGuard<'_, Link> {
        self.fixed_net.lock()
    }

    /// Authoritative server access for update processes.
    pub fn server_mut(&mut self) -> &mut RemoteServer {
        &mut self.server
    }

    /// Update every remote object simultaneously.
    pub fn apply_update_wave(&mut self) {
        self.server
            .apply_simultaneous_update(SimTime::from_ticks(self.tick));
    }

    /// Forget accumulated stats (end of warm-up).
    pub fn reset_stats(&mut self) {
        self.stats = LatencyStats::default();
    }

    fn true_recency(&self, id: ObjectId) -> f64 {
        match self.cache.peek(id) {
            Some(e) => self
                .decay
                .recency_for_lag(e.lag(self.server.version_of(id))),
            None => 0.0,
        }
    }

    /// Launch a download of `object` at `now`, if not already in flight.
    fn launch(&mut self, object: ObjectId, now: SimTime) -> bool {
        if !self.pending.insert(object) {
            return false;
        }
        let size = self.catalog.size_of(object);
        let version = self.server.version_of(object);
        let timing = self.fixed_net.enqueue(now, size);
        self.stats.units_downloaded += size;
        self.recorder.incr(Event::FetchesIssued);
        if self.recorder.enabled() {
            self.recorder.lifecycle(
                LifecycleEvent::new(Transition::Launched, object.0, version.0, now.ticks())
                    .at_launch(now.ticks()),
            );
        }
        self.in_flight.schedule_at(
            timing.arrives,
            Arrival {
                object,
                version,
                launched_at: now.ticks(),
                started_at: timing.starts.ticks(),
            },
        );
        true
    }

    /// Simulate one time unit. Same contract as
    /// [`crate::BaseStationSim::step`]: one unified [`RoundOutcome`].
    pub fn step(&mut self, requests: &[GeneratedRequest]) -> RoundOutcome {
        let now = SimTime::from_ticks(self.tick);
        let observing = self.recorder.enabled();
        self.recorder.begin_round(self.tick);
        self.recorder.incr(Event::Rounds);
        let mut recency_acc = Welford::new();
        let mut score_acc = Welford::new();

        // 1. Ingest completed downloads and release waiting clients.
        let fetch_span = Span::enter(&*self.recorder, Stage::Fetch);
        let mut arrived = 0usize;
        let mut units = 0u64;
        let mut served_after_wait = 0usize;
        while let Some((_, arrival)) = self.in_flight.pop_until(now) {
            let size = self.catalog.size_of(arrival.object);
            self.cache
                .insert(arrival.object, size, arrival.version, now)
                .expect("unbounded cache never refuses");
            self.pending.remove(&arrival.object);
            arrived += 1;
            units += size;
            if observing {
                self.recorder.lifecycle(
                    LifecycleEvent::new(
                        Transition::Arrived,
                        arrival.object.0,
                        arrival.version.0,
                        self.tick,
                    )
                    .at_launch(arrival.launched_at),
                );
                if arrival.version != self.server.version_of(arrival.object) {
                    // Invalidated while on the wire.
                    self.recorder.incr(Event::StaleArrivals);
                    self.recorder.lifecycle(
                        LifecycleEvent::new(
                            Transition::InvalidatedStale,
                            arrival.object.0,
                            arrival.version.0,
                            self.tick,
                        )
                        .at_launch(arrival.launched_at),
                    );
                }
            }

            let parked = std::mem::take(&mut self.waiting);
            let mut still_parked = Vec::with_capacity(parked.len());
            for w in parked {
                if w.object == arrival.object {
                    // The copy just arrived: delivered as fresh as the
                    // server was when the transfer started (updates may
                    // have landed while it was on the wire).
                    let x = self.true_recency(w.object);
                    let score = self.scoring.score(x, w.target_recency);
                    self.stats.score.push(score);
                    recency_acc.push(x);
                    score_acc.push(score);
                    let wait = now.since(w.issued_at).ticks() as f64;
                    self.stats.wait_ticks.push(wait);
                    self.stats.wait_p95.push(wait);
                    self.recorder.sample(Sample::FetchLatencyTicks, wait);
                    self.stats.waited += 1;
                    if observing {
                        // Decompose the wait: ticks spent while the
                        // transfer sat in the link's queue vs. riding
                        // the wire; the downlink serve is same-round.
                        let issued = w.issued_at.ticks();
                        let queueing = arrival.started_at.saturating_sub(issued);
                        let on_wire = self.tick.saturating_sub(issued.max(arrival.started_at));
                        self.recorder
                            .sample(Sample::WaitQueueingTicks, queueing as f64);
                        self.recorder
                            .sample(Sample::WaitOnWireTicks, on_wire as f64);
                        self.recorder.sample(Sample::WaitServeTicks, 0.0);
                        self.recorder.lifecycle(
                            LifecycleEvent::new(
                                Transition::ServedFromWait,
                                w.object.0,
                                arrival.version.0,
                                self.tick,
                            )
                            .at_launch(arrival.launched_at),
                        );
                    }
                    self.downlink.deliver_recorded(
                        now,
                        ClientId(0),
                        w.object,
                        size,
                        &*self.recorder,
                    );
                    served_after_wait += 1;
                } else {
                    still_parked.push(w);
                }
            }
            self.waiting = still_parked;
        }
        drop(fetch_span);

        // 2. Plan this tick's downloads.
        let batch = RequestBatch::from_generated(requests);
        let mut launched = 0usize;
        let mut launched_now: Vec<ObjectId> = Vec::new();
        // Mandatory fetches: requested objects with no cached copy.
        for object in batch.objects() {
            if !self.cache.contains(object) && self.launch(object, now) {
                launched += 1;
                launched_now.push(object);
            }
        }
        // Budgeted refreshes of stale cached copies.
        let recency: Vec<f64> = self.catalog.ids().map(|id| self.true_recency(id)).collect();
        let plan = self
            .planner
            .plan(&batch, &self.catalog, &recency, self.refresh_budget);
        for &object in plan.downloads() {
            if self.cache.contains(object) && self.launch(object, now) {
                launched += 1;
            }
        }

        // 3. Serve what can be served now; requests for uncached objects
        // park on the object's in-flight transfer — single-flight: joins
        // of transfers launched in *earlier* ticks are coalesced fetches
        // this pipeline always avoided re-launching.
        let mut served_immediately = 0usize;
        let mut joined = 0usize;
        for r in requests {
            if self.cache.contains(r.object) {
                let x = self.true_recency(r.object);
                let score = self.scoring.score(x, r.target_recency);
                self.stats.score.push(score);
                recency_acc.push(x);
                score_acc.push(score);
                self.stats.immediate += 1;
                self.downlink.deliver_recorded(
                    now,
                    ClientId(0),
                    r.object,
                    self.catalog.size_of(r.object),
                    &*self.recorder,
                );
                served_immediately += 1;
                if observing {
                    let version = self
                        .cache
                        .peek(r.object)
                        .map_or_else(|| self.server.version_of(r.object), |e| e.version);
                    self.recorder.lifecycle(LifecycleEvent::new(
                        Transition::Served,
                        r.object.0,
                        version.0,
                        self.tick,
                    ));
                }
            } else {
                let rode_existing = !launched_now.contains(&r.object);
                if rode_existing {
                    joined += 1;
                    self.recorder.incr(Event::FetchesCoalesced);
                }
                if observing {
                    // A fresh park is a `Requested` span opening; riding
                    // a transfer launched in an earlier tick is a join.
                    let transition = if rode_existing {
                        Transition::Joined
                    } else {
                        Transition::Requested
                    };
                    self.recorder.lifecycle(LifecycleEvent::new(
                        transition,
                        r.object.0,
                        self.server.version_of(r.object).0,
                        self.tick,
                    ));
                }
                self.waiting.push(Waiting {
                    object: r.object,
                    target_recency: r.target_recency,
                    issued_at: now,
                });
            }
        }

        let served = served_immediately + served_after_wait;
        let outcome = RoundOutcome {
            tick: self.tick,
            objects_downloaded: arrived,
            units_downloaded: units,
            average_recency: recency_acc.mean().unwrap_or(1.0),
            average_score: score_acc.mean().unwrap_or(1.0),
            served,
            cache_hits: served_immediately,
            arrived,
            launched,
            joined,
            served_immediately,
            served_after_wait,
            still_waiting: self.waiting.len(),
        };
        if observing {
            self.recorder
                .sample(Sample::StillWaiting, self.waiting.len() as f64);
            self.recorder
                .sample(Sample::CachedUnits, self.cache.used() as f64);
        }
        self.recorder.end_round(self.tick);
        self.tick += 1;
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::SolverChoice;
    use basecache_sim::SimDuration;

    fn req(id: u32) -> GeneratedRequest {
        GeneratedRequest {
            object: ObjectId(id),
            target_recency: 1.0,
        }
    }

    fn sim(latency: u64, bandwidth: u64) -> LatencyAwareSim {
        crate::builder::StationBuilder::new(Catalog::uniform_unit(10))
            .on_demand(
                OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp),
                100,
            )
            .build_latency_aware(
                SharedLink::new(Link::new(bandwidth, SimDuration::from_ticks(latency))),
                Downlink::new(100, SimDuration::ZERO),
            )
            .expect("valid latency configuration")
    }

    #[test]
    fn uncached_requests_wait_for_the_fixed_network() {
        let mut s = sim(3, 10);
        // t=0: request for uncached object 0; transfer takes 1 tick on
        // the wire + 3 latency → arrives t=4.
        let out = s.step(&[req(0)]);
        assert_eq!(out.launched, 1);
        assert_eq!(out.served_immediately, 0);
        assert_eq!(out.still_waiting, 1);
        for t in 1..4 {
            let out = s.step(&[]);
            assert_eq!(out.arrived, 0, "tick {t}");
        }
        let out = s.step(&[]);
        assert_eq!(out.arrived, 1);
        assert_eq!(out.served_after_wait, 1);
        assert_eq!(out.still_waiting, 0);
        assert_eq!(s.stats().wait_ticks.mean(), Some(4.0));
    }

    #[test]
    fn duplicate_requests_share_one_transfer() {
        let mut s = sim(2, 10);
        let out = s.step(&[req(3), req(3), req(3)]);
        assert_eq!(out.launched, 1, "one transfer for three waiters");
        assert_eq!(out.still_waiting, 3);
        s.step(&[]);
        s.step(&[]);
        let out = s.step(&[]);
        assert_eq!(out.served_after_wait, 3);
        assert_eq!(s.fixed_net().transfers(), 1);
    }

    #[test]
    fn cached_objects_are_served_immediately_even_if_stale() {
        let mut s = sim(5, 10);
        s.step(&[req(1)]);
        for _ in 0..6 {
            s.step(&[]);
        }
        s.apply_update_wave();
        let out = s.step(&[req(1)]);
        assert_eq!(out.served_immediately, 1, "stale copy answers instantly");
        // And the staleness triggered a budgeted refresh launch.
        assert_eq!(out.launched, 1);
    }

    #[test]
    fn longer_latency_means_longer_waits() {
        let mut waits = Vec::new();
        for latency in [0u64, 5, 20] {
            let mut s = sim(latency, 10);
            for t in 0..40u32 {
                s.step(&[req(t % 10)]);
            }
            // Drain the queue.
            for _ in 0..40 {
                s.step(&[]);
            }
            waits.push(s.stats().wait_ticks.mean().unwrap_or(0.0));
        }
        assert!(waits[0] < waits[1], "{waits:?}");
        assert!(waits[1] < waits[2], "{waits:?}");
    }

    #[test]
    fn bandwidth_contention_queues_transfers() {
        // 1 unit/tick bandwidth: 5 simultaneous fetches serialize.
        let mut s = sim(0, 1);
        let reqs: Vec<_> = (0..5).map(req).collect();
        s.step(&reqs);
        // Transfers complete at t=1..=5; drain.
        let mut served = 0;
        for _ in 0..6 {
            served += s.step(&[]).served_after_wait;
        }
        assert_eq!(served, 5);
        let mean_wait = s.stats().wait_ticks.mean().unwrap();
        assert!(
            (mean_wait - 3.0).abs() < 1e-9,
            "waits 1,2,3,4,5 → mean 3, got {mean_wait}"
        );
    }

    #[test]
    fn recorder_captures_fetch_activity() {
        let mut s = sim(2, 10).with_recorder(Box::new(basecache_obs::StatsRecorder::new()));
        s.step(&[req(0)]); // uncached: launch, client waits
        for _ in 0..3 {
            s.step(&[]); // arrival at t=3 releases the waiter
        }
        s.observe_infrastructure();
        let snap = s.obs_snapshot();
        assert_eq!(snap.counter("rounds"), Some(4));
        assert_eq!(snap.counter("fetches_issued"), Some(1));
        assert!(snap.counter("scheduler_events").unwrap_or(0) >= 1);
        let lat = snap
            .sample("fetch_latency_ticks")
            .expect("one wait recorded");
        assert_eq!(lat.count, 1);
        assert!((lat.mean - 3.0).abs() < 1e-9);
        assert!(snap.sample("link_utilization").is_some());
        assert!(snap.sample("downlink_utilization").is_some());
        assert_eq!(snap.span("fetch").map(|sp| sp.count), Some(4));
    }

    #[test]
    fn scores_account_for_staleness_of_immediate_answers() {
        let mut s = sim(1, 10);
        s.step(&[req(0)]);
        s.step(&[]); // arrival
        s.apply_update_wave();
        s.apply_update_wave();
        let _ = s.step(&[req(0)]);
        // Served from a copy two updates behind: recency 1/3 → score
        // 1/(1 + 2/3) = 0.6.
        let last = s.stats().score;
        assert!(last.count() >= 1);
        assert!((s.stats().score.mean().unwrap() - 0.6).abs() < 1e-9);
    }
}
