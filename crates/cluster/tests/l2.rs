//! The regional L2 tier's observable guarantees:
//!
//! 1. Under Markov-ring roaming with overlapping demand, enabling L2
//!    cuts origin (backhaul) bandwidth substantially — neighbors ride
//!    the inter-cell backbone instead of re-paying origin — and the
//!    armed invariant monitor confirms the region-wide single-flight
//!    invariant (an object is origin-fetched at most once per version
//!    per region) on the whole run.
//! 2. With L2 disabled, no L2 channel appears in the cluster snapshot
//!    at all (absent, not zero) — the recording path is byte-identical
//!    to the pre-L2 cluster, complementing `tests/parity.rs` which pins
//!    the simulation path itself.
//! 3. Demand declaration subtracts per-station committed in-flight
//!    units: zero in-flight (instant transfers) declares bit-identical
//!    demands to plain stations, and a finite-bandwidth backlog shrinks
//!    the declaration by exactly the committed units.
//! 4. The round coordinates per requested object — one aggregation of
//!    each batch, read by the declaration, the exchange and the tier
//!    attribution — and equals, round for round, the per-request round
//!    it replaced ([`PerRequestCluster`], kept here as the reference).

use std::any::Any;
use std::sync::Mutex;

use basecache_cluster::{run_rounds, ClusterSim, DriveConfig, L2Config};
use basecache_core::estimator::TtlEstimator;
use basecache_core::planner::{OnDemandPlanner, SolverChoice};
use basecache_core::recency::{DecayModel, ScoringFunction};
use basecache_core::{BaseStationSim, RoundOutcome, StationBuilder};
use basecache_net::{
    ArbiterPolicy, BackhaulArbiter, Catalog, CellId, InFlightConfig, InterCellLink, ObjectId,
    PublishOutcome, VersionBus,
};
use basecache_obs::{
    Event, FlightRecorder, InvariantMonitor, LifecycleEvent, Recorder, Sample, Snapshot, Stage,
    Transition,
};
use basecache_sim::check::run_cases;
use basecache_sim::{RngStreams, StreamRng};
use basecache_workload::{
    ClusterWorkload, GeneratedRequest, MobilityModel, Popularity, TargetRecency,
};

const OBJECTS: usize = 60;

fn catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 5).collect();
    Catalog::from_sizes(&sizes)
}

fn station(flight: Option<InFlightConfig>) -> BaseStationSim {
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let mut builder = StationBuilder::new(catalog()).on_demand(planner, 0);
    if let Some(config) = flight {
        builder = builder.in_flight(config);
    }
    builder.build().expect("valid configuration")
}

fn roaming_workload(cells: u32, seed: u64) -> ClusterWorkload {
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

fn cluster(cells: u32, seed: u64, budget: u64, flight: Option<InFlightConfig>) -> ClusterSim {
    let stations: Vec<BaseStationSim> = (0..cells).map(|_| station(flight)).collect();
    ClusterSim::new(
        stations,
        roaming_workload(cells, seed),
        BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, budget),
    )
    .expect("cell counts match")
}

const DRIVE: DriveConfig = DriveConfig {
    rounds: 40,
    wave_every: Some(5),
};

#[test]
fn l2_saves_origin_bandwidth_and_keeps_region_single_flight() {
    let mut off = cluster(8, 99, 400, None);
    let mut on = cluster(8, 99, 400, None)
        .with_l2(L2Config {
            intercell_units_per_round: 400,
        })
        .with_recorder(Box::new(InvariantMonitor::new().region_single_flight()));

    let off_rounds = run_rounds(&mut off, DRIVE);
    let on_rounds = run_rounds(&mut on, DRIVE);

    let off_units: u64 = off_rounds.iter().map(|r| r.units_downloaded).sum();
    let on_units: u64 = on_rounds.iter().map(|r| r.units_downloaded).sum();
    assert!(off_units > 0, "baseline must actually download");
    let savings = 1.0 - on_units as f64 / off_units as f64;
    assert!(
        savings >= 0.20,
        "origin bandwidth savings {savings:.3} below the 20% bar \
         (off {off_units}, on {on_units})"
    );

    let l2 = on.l2().expect("tier enabled");
    assert!(l2.transfers() > 0, "the backbone carried copies");
    assert!(l2.units() > 0);
    let tiers = l2.tier_totals();
    assert!(tiers[1] > 0, "some serves attributed to L2: {tiers:?}");
    let served: u64 = on_rounds.iter().map(|r| r.served as u64).sum();
    assert_eq!(tiers.iter().sum::<u64>(), served, "every serve has a tier");
    let transfers: u64 = on_rounds.iter().map(|r| r.l2_transfers).sum();
    assert_eq!(transfers, l2.transfers(), "per-round counts reconcile");

    // The online monitor watched every origin fetch of the run: no
    // (object, version) was ever origin-fetched twice in the region.
    let monitor = on
        .recorder()
        .as_any()
        .downcast_ref::<InvariantMonitor>()
        .expect("monitor installed");
    assert_eq!(
        monitor.count(Event::RegionSingleFlightViolations),
        0,
        "region single-flight violated; offenders: {:?}",
        monitor.offenders()
    );
    assert!(monitor.is_clean(), "no other invariant tripped either");
}

#[test]
fn quality_of_service_does_not_regress_with_l2() {
    // Cheaper bandwidth must not come at the price of staler serves:
    // the L2 tier only installs copies at least as fresh as the local
    // one, so the aggregate score stays at least the baseline's.
    let mut off = cluster(8, 99, 400, None);
    let mut on = cluster(8, 99, 400, None).with_l2(L2Config {
        intercell_units_per_round: 400,
    });
    let off_rounds = run_rounds(&mut off, DRIVE);
    let on_rounds = run_rounds(&mut on, DRIVE);
    let mean = |rounds: &[basecache_cluster::ClusterStepOutcome]| {
        let served: u64 = rounds.iter().map(|r| r.served as u64).sum();
        let weighted: f64 = rounds
            .iter()
            .map(|r| r.average_score * r.served as f64)
            .sum();
        weighted / served as f64
    };
    let off_score = mean(&off_rounds);
    let on_score = mean(&on_rounds);
    assert!(
        on_score >= off_score - 0.02,
        "L2 degraded quality: off {off_score:.4}, on {on_score:.4}"
    );
}

#[test]
fn disabled_l2_records_no_l2_channels() {
    let mut off = cluster(4, 7, 200, None).with_recorder(Box::new(FlightRecorder::new(512, 64, 8)));
    run_rounds(&mut off, DRIVE);
    let snapshot = off.obs_snapshot();
    for counter in &snapshot.counters {
        assert!(
            !counter.name.starts_with("l2_"),
            "L2-off run recorded {}",
            counter.name
        );
    }
    assert!(
        snapshot.attrs.iter().all(|a| a.channel != "serves_by_tier"),
        "L2-off run attributed tiers"
    );
    assert!(off.l2().is_none());
    assert!(off.last_outcomes().iter().all(|_| true));
}

#[test]
fn enabled_l2_records_transfers_and_tier_attribution() {
    let mut on = cluster(8, 99, 400, None)
        .with_l2(L2Config::default())
        .with_recorder(Box::new(FlightRecorder::new(512, 64, 8)));
    run_rounds(&mut on, DRIVE);
    let snapshot = on.obs_snapshot();
    let counter = |name: &str| {
        snapshot
            .counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    };
    let l2 = on.l2().expect("tier enabled");
    assert_eq!(counter("l2_transfers"), Some(l2.transfers()));
    assert_eq!(counter("l2_units"), Some(l2.units()));

    let tiers: Vec<_> = snapshot
        .attrs
        .iter()
        .filter(|a| a.channel == "serves_by_tier")
        .collect();
    assert!(!tiers.is_empty(), "tier attribution channel populated");
    let weight_of = |label: &str| {
        tiers
            .iter()
            .find(|a| a.label == label)
            .map_or(0, |a| a.weight)
    };
    let totals = l2.tier_totals();
    // Three keys against top-8 tracking: counts are exact.
    assert_eq!(weight_of("tier#0"), totals[0]);
    assert_eq!(weight_of("tier#1"), totals[1]);
    assert_eq!(weight_of("tier#2"), totals[2]);
    assert!(tiers.iter().all(|a| a.error == 0), "exact, not estimated");
}

#[test]
fn instant_flight_declares_bit_identical_demands_to_plain_stations() {
    // Satellite degenerate case: with nothing ever in flight (instant
    // transfers commit zero units), the new committed-units subtraction
    // must be a no-op — declarations, allocations and outcomes are
    // bit-identical to plain stations.
    let mut plain = cluster(4, 21, 200, None);
    let mut instant = cluster(4, 21, 200, Some(InFlightConfig::coalescing(0)));
    for tick in 0..30 {
        if tick > 0 && tick % 5 == 0 {
            plain.apply_update_wave();
            instant.apply_update_wave();
        }
        let a = plain.step();
        let b = instant.step();
        assert_eq!(plain.last_demands(), instant.last_demands(), "tick {tick}");
        assert_eq!(plain.last_budgets(), instant.last_budgets(), "tick {tick}");
        assert_eq!(a, b, "tick {tick}: outcomes diverge");
        for i in 0..4 {
            let ledger = instant.station(CellId(i)).flight_ledger().expect("flight");
            assert_eq!(ledger.committed_at(tick), 0, "instant commits nothing");
        }
    }
}

#[test]
fn committed_in_flight_units_shrink_the_declared_demand() {
    // One cell, one client, one object of size 10 on a 2-units/round
    // link. Round 0 declares the full 10; while the transfer drains
    // (rounds 1..5) the same stale object is re-requested, but 2 units
    // per round are already committed on the wire — the declaration
    // must be 8, not 10.
    let catalog = Catalog::from_sizes(&[10]);
    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
    let station = StationBuilder::new(catalog)
        .on_demand(planner, 0)
        .in_flight(InFlightConfig::coalescing(2))
        .build()
        .expect("valid configuration");
    let workload = ClusterWorkload::new(
        1,
        1,
        Popularity::Uniform,
        Popularity::Uniform.build(1),
        TargetRecency::AlwaysFresh,
        2,
        MobilityModel::Stationary,
        &RngStreams::new(5),
    );
    let mut sim = ClusterSim::new(
        vec![station],
        workload,
        BackhaulArbiter::new(ArbiterPolicy::Static, 100),
    )
    .expect("one station, one cell");

    sim.step();
    assert_eq!(sim.last_demands(), &[10], "round 0: nothing committed yet");
    for round in 1..5u64 {
        sim.step();
        assert_eq!(
            sim.last_demands(),
            &[8],
            "round {round}: 2 committed units subtracted from the stale 10"
        );
    }
    // Round 5: the wire is clear again (nothing committed any more) but
    // the arrival is only processed inside this round's step, so the
    // still-stale object declares in full one last time.
    sim.step();
    assert_eq!(sim.last_demands(), &[10], "drained wire commits nothing");
    // Round 6: the copy arrived fresh, demand is zero.
    sim.step();
    assert_eq!(sim.last_demands(), &[0], "arrived copy quenches demand");
}

/// A live recorder that keeps nothing but the lifecycle events, in the
/// order they were emitted.
#[derive(Debug, Default)]
struct EventLog(Mutex<Vec<LifecycleEvent>>);

impl EventLog {
    fn drain(&self) -> Vec<LifecycleEvent> {
        std::mem::take(&mut *self.0.lock().expect("no recording call panics"))
    }
}

impl Recorder for EventLog {
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, _: Event, _: u64) {}
    fn sample(&self, _: Sample, _: f64) {}
    fn span_ns(&self, _: Stage, _: u64) {}
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
    fn lifecycle(&self, event: LifecycleEvent) {
        self.0.lock().expect("no recording call panics").push(event);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The regional tier of [`PerRequestCluster`].
struct PerRequestL2 {
    bus: VersionBus,
    link: InterCellLink,
    tiers: [u64; 3],
    transfers: u64,
    units: u64,
}

/// The cluster round as it ran before each batch was aggregated once —
/// every coordination step walking the requests: a whole-catalog recency
/// fill marked off request by request, a sort and dedup of the batch, two
/// binary searches a request, one batch scan per transferred object —
/// rebuilt on the public API. It observes like a cluster under a live
/// recorder: every lifecycle event lands in `events`.
struct PerRequestCluster {
    stations: Vec<BaseStationSim>,
    workload: ClusterWorkload,
    arbiter: BackhaulArbiter,
    l2: Option<PerRequestL2>,
    tick: u64,
    demands: Vec<u64>,
    budgets: Vec<u64>,
    outcomes: Vec<RoundOutcome>,
    events: Vec<LifecycleEvent>,
}

impl PerRequestCluster {
    fn declared_demand(station: &BaseStationSim, batch: &[GeneratedRequest]) -> u64 {
        let mut recency = station.estimated_recency_vec();
        let mut demand = 0u64;
        for r in batch {
            let slot = &mut recency[r.object.index()];
            if *slot < 1.0 {
                demand += station.catalog().size_of(r.object);
                *slot = 1.0;
            }
        }
        let committed = station
            .flight_ledger()
            .map_or(0, |ledger| ledger.committed_at(station.tick()));
        demand.saturating_sub(committed)
    }

    fn step(&mut self) {
        self.workload.advance();
        let cells = self.stations.len();
        self.demands = (0..cells)
            .map(|i| {
                Self::declared_demand(&self.stations[i], self.workload.batch(CellId(i as u32)))
            })
            .collect();
        self.budgets = self.arbiter.allocate(&self.demands);
        for (station, &budget) in self.stations.iter_mut().zip(&self.budgets) {
            station
                .set_download_budget(budget)
                .expect("a small plan table");
        }
        self.outcomes.clear();
        self.events.clear();
        if let Some(l2) = &mut self.l2 {
            l2.link.begin_round();
        }
        for (i, station) in self.stations.iter_mut().enumerate() {
            let batch = self.workload.batch(CellId(i as u32));
            let Some(l2) = &mut self.l2 else {
                self.outcomes.push(station.step(batch));
                continue;
            };
            let (tick, cell, events) = (self.tick, i as u32, &mut self.events);

            // Exchange.
            let mut exclusions = Vec::new();
            let mut transferred = Vec::new();
            let mut seen: Vec<ObjectId> = batch.iter().map(|r| r.object).collect();
            seen.sort_unstable();
            seen.dedup();
            for &o in &seen {
                let current = station.server().version_of(o);
                let local = station.cached_version_of(o);
                if let Some((directory, holder)) = l2.bus.lookup(o) {
                    let fresher = local.is_none_or(|v| directory > v);
                    if holder != cell && fresher && directory == current {
                        let size = station.catalog().size_of(o);
                        if l2.link.try_reserve(size) {
                            station.install_remote_copy(o, directory);
                            transferred.push(o);
                            l2.transfers += 1;
                            l2.units += size;
                            events.push(LifecycleEvent::new(
                                Transition::PromotedToL1,
                                o.0,
                                directory.0,
                                tick,
                            ));
                        }
                    }
                    if directory == current {
                        exclusions.push(o);
                    }
                }
            }
            station.set_plan_exclusions(&exclusions);

            self.outcomes.push(station.step(batch));
            station.clear_plan_exclusions();

            // Publish.
            for &o in station.last_downloaded() {
                let version = station.server().version_of(o);
                if station.cached_version_of(o) != Some(version) {
                    continue;
                }
                if let PublishOutcome::Invalidated {
                    previous_version, ..
                } = l2.bus.publish(o, version, cell)
                {
                    events.push(LifecycleEvent::new(
                        Transition::InvalidatedRemote,
                        o.0,
                        previous_version.0,
                        tick,
                    ));
                }
                events.push(
                    LifecycleEvent::new(Transition::Arrived, o.0, version.0, tick).at_launch(tick),
                );
            }

            // Attribute.
            let downloaded = station.last_downloaded();
            for r in batch {
                if transferred.binary_search(&r.object).is_ok() {
                    l2.tiers[1] += 1;
                } else if downloaded.binary_search(&r.object).is_ok() {
                    l2.tiers[2] += 1;
                } else {
                    l2.tiers[0] += 1;
                }
            }
            for &o in &transferred {
                let count = batch.iter().filter(|r| r.object == o).count() as u32;
                if count > 0 {
                    let version = station.cached_version_of(o).map_or(0, |v| v.0);
                    events.push(
                        LifecycleEvent::new(Transition::ServedFromL2, o.0, version, tick)
                            .times(count),
                    );
                }
            }
        }
        self.tick += 1;
    }
}

/// One random cluster shape, built twice from the same draws.
#[derive(Debug, Clone, Copy)]
struct Script {
    cells: u32,
    objects: usize,
    clients: u32,
    requests_per_client: usize,
    seed: u64,
    ttl: Option<u64>,
    flight: Option<InFlightConfig>,
    policy: ArbiterPolicy,
    backhaul: u64,
    intercell: Option<u64>,
    wave_every: u64,
}

impl Script {
    fn draw(rng: &mut StreamRng) -> Self {
        let cells = rng.random_range(1..=6u32);
        let objects = rng.random_range(6..=40usize);
        Self {
            cells,
            objects,
            clients: cells * rng.random_range(2..=12u32),
            requests_per_client: rng.random_range(1..=3usize),
            seed: rng.next_u64(),
            ttl: (rng.random_range(0..2u32) == 0).then(|| rng.random_range(1..=4u64)),
            flight: match rng.random_range(0..4u32) {
                0 => None,
                1 => Some(InFlightConfig::coalescing(0)),
                2 => Some(InFlightConfig::coalescing(rng.random_range(2..=8u64))),
                _ => Some(InFlightConfig::naive(rng.random_range(2..=8u64))),
            },
            policy: [
                ArbiterPolicy::Static,
                ArbiterPolicy::ProportionalToDemand,
                ArbiterPolicy::WaterFilling,
            ][rng.random_range(0..3usize)],
            backhaul: rng.random_range(0..=3 * objects as u64),
            // A starved backbone (denied reservations) as often as a roomy one.
            intercell: (rng.random_range(0..4u32) > 0)
                .then(|| rng.random_range(0..=2 * objects as u64)),
            wave_every: rng.random_range(2..=5u64),
        }
    }

    fn catalog(&self) -> Catalog {
        let sizes: Vec<u64> = (0..self.objects as u64).map(|i| 1 + i % 5).collect();
        Catalog::from_sizes(&sizes)
    }

    fn stations(&self) -> Vec<BaseStationSim> {
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        (0..self.cells)
            .map(|_| {
                let mut builder = StationBuilder::new(self.catalog()).on_demand(planner, 0);
                if let Some(period) = self.ttl {
                    let estimator = TtlEstimator::new(period, DecayModel::default());
                    builder = builder.estimator(Box::new(estimator));
                }
                if let Some(config) = self.flight {
                    builder = builder.in_flight(config);
                }
                builder.build().expect("valid configuration")
            })
            .collect()
    }

    fn workload(&self) -> ClusterWorkload {
        ClusterWorkload::new(
            self.cells,
            self.clients,
            Popularity::Uniform,
            Popularity::ZIPF1.build(self.objects),
            TargetRecency::Uniform { lo: 0.4, hi: 1.0 },
            self.requests_per_client,
            MobilityModel::MarkovRing { move_prob: 0.3 },
            &RngStreams::new(self.seed),
        )
    }

    fn arbiter(&self) -> BackhaulArbiter {
        BackhaulArbiter::new(self.policy, self.backhaul)
    }
}

#[test]
fn aggregated_round_equals_the_per_request_round() {
    run_cases("cluster/per_request_reference", 96, |_, rng| {
        let script = Script::draw(rng);
        let mut cluster = ClusterSim::new(script.stations(), script.workload(), script.arbiter())
            .expect("cell counts match")
            .with_recorder(Box::new(EventLog::default()));
        if let Some(units) = script.intercell {
            cluster = cluster.with_l2(L2Config {
                intercell_units_per_round: units,
            });
        }
        let mut reference = PerRequestCluster {
            stations: script.stations(),
            workload: script.workload(),
            arbiter: script.arbiter(),
            l2: script.intercell.map(|units| PerRequestL2 {
                bus: VersionBus::new(&script.catalog()),
                link: InterCellLink::new(units),
                tiers: [0; 3],
                transfers: 0,
                units: 0,
            }),
            tick: 0,
            demands: Vec::new(),
            budgets: Vec::new(),
            outcomes: Vec::new(),
            events: Vec::new(),
        };
        for round in 0..16u64 {
            if round > 0 && round % script.wave_every == 0 {
                cluster.apply_update_wave();
                for station in &mut reference.stations {
                    station.apply_update_wave();
                }
            }
            let before = reference.l2.as_ref().map_or(0, |l2| l2.transfers);
            let outcome = cluster.step();
            reference.step();
            let at = format!("round {round} of {script:?}");

            assert_eq!(cluster.last_demands(), reference.demands, "{at}");
            assert_eq!(cluster.last_budgets(), reference.budgets, "{at}");
            assert_eq!(cluster.last_outcomes(), reference.outcomes, "{at}");
            for (i, station) in reference.stations.iter().enumerate() {
                // What the exclusions forbade shows in what was planned.
                assert_eq!(
                    cluster.station(CellId(i as u32)).last_downloaded(),
                    station.last_downloaded(),
                    "{at}: cell {i}"
                );
            }
            let log = cluster
                .recorder()
                .as_any()
                .downcast_ref::<EventLog>()
                .expect("log installed");
            // `PromotedToL1` lists each cell's transferred objects in
            // order, `ServedFromL2` carries the per-object serve counts.
            assert_eq!(log.drain(), reference.events, "{at}");
            match (cluster.l2(), &reference.l2) {
                (Some(l2), Some(expected)) => {
                    assert_eq!(l2.tier_totals(), expected.tiers, "{at}");
                    assert_eq!(l2.transfers(), expected.transfers, "{at}");
                    assert_eq!(l2.units(), expected.units, "{at}");
                    assert_eq!(l2.denied(), expected.link.denied(), "{at}");
                    assert_eq!(l2.invalidations(), expected.bus.invalidations(), "{at}");
                    assert_eq!(l2.bus().sequence(), expected.bus.sequence(), "{at}");
                    assert_eq!(outcome.l2_transfers, expected.transfers - before, "{at}");
                }
                (None, None) => assert_eq!(outcome.l2_transfers, 0, "{at}"),
                _ => unreachable!("both sides read one script"),
            }
        }
    });
}
