//! The in-flight download subsystem's load-bearing guarantees:
//!
//! 1. **Single-flight** — under coalescing there is never more than one
//!    active transfer per `(object, version)`.
//! 2. **Waiter conservation** — every parked request is served exactly
//!    once, on the arrival round of the transfer it rode, with its
//!    waiting time equal to `arrival_round - issue_round`.
//! 3. **No stale joins** — a transfer whose version is invalidated
//!    mid-flight stops accepting joiners; later requests fetch (and
//!    join) the fresh version instead.
//!
//! Random-script versions of 1 and 2 at random bandwidths run in the
//! `properties` module below.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::recency::ScoringFunction;
use basecache_core::{BaseStationSim, StationBuilder};
use basecache_net::{Catalog, InFlightConfig, ObjectId};
use basecache_obs::{
    Event, FlightRecorder, LifecycleEvent, LifecycleRecorder, Recorder, Sample, Snapshot, Stage,
    Tee, Transition,
};
use basecache_sim::{RngStreams, SimTime, StreamRng};
use basecache_workload::GeneratedRequest;
use std::any::Any;
use std::sync::Mutex;

const OBJECTS: usize = 32;
const BUDGET: u64 = 12;

fn catalog() -> Catalog {
    let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 4).collect();
    Catalog::from_sizes(&sizes)
}

fn planner() -> OnDemandPlanner {
    OnDemandPlanner::new(ScoringFunction::InverseRatio)
}

fn station(cat: Catalog, flight: Option<InFlightConfig>) -> BaseStationSim {
    let builder = StationBuilder::new(cat)
        .on_demand(planner(), BUDGET)
        .recorder(Box::new(FlightRecorder::new(512, 64, 8)));
    let builder = match flight {
        Some(config) => builder.in_flight(config),
        None => builder,
    };
    builder.build().expect("valid configuration")
}

fn req(id: u32, target: f64) -> GeneratedRequest {
    GeneratedRequest {
        object: ObjectId(id),
        target_recency: target,
    }
}

fn arb_batch(rng: &mut StreamRng) -> Vec<GeneratedRequest> {
    let n = rng.random_range(0..=14u32);
    (0..n)
        .map(|_| {
            req(
                rng.random_range(0..OBJECTS as u32),
                rng.random_range(0.05f64..=1.0),
            )
        })
        .collect()
}

/// Invariant 1: at most one active transfer per (object, version).
fn assert_single_flight(station: &BaseStationSim, label: &str) {
    let ledger = station.flight_ledger().expect("flight mode");
    let mut seen = Vec::new();
    ledger.for_each_active(|t| {
        assert!(
            !seen.contains(&(t.object, t.version)),
            "{label}: two in-flight transfers for {:?} {:?}",
            t.object,
            t.version
        );
        seen.push((t.object, t.version));
    });
}

#[test]
fn waiters_are_served_on_arrival_with_correct_waits() {
    // Object 0 is 6 units over a 2-units/round link: launched in round
    // 0, it lands in round 3. The round-0 requester parks on its own
    // launch; rounds 1 and 2 coalesce onto it.
    let cat = Catalog::from_sizes(&[6, 1, 1, 1]);
    let mut s = station(cat, Some(InFlightConfig::coalescing(2)));

    let out = s.step(&[req(0, 1.0)]);
    assert_eq!(out.launched, 1);
    assert_eq!(out.joined, 0, "own launch is not a coalesced join");
    assert_eq!(out.served, 0);
    assert_eq!(out.still_waiting, 1);

    for t in 1..3u64 {
        let out = s.step(&[req(0, 1.0)]);
        assert_eq!(out.launched, 0, "t={t}: single-flight");
        assert_eq!(out.joined, 1, "t={t}: rode the round-0 transfer");
        assert_eq!(out.still_waiting, t as usize + 1);
        assert_single_flight(&s, "build-up");
    }

    let out = s.step(&[]);
    assert_eq!(out.objects_downloaded, 1);
    assert_eq!(out.units_downloaded, 6);
    assert_eq!(out.served_after_wait, 3, "all three waiters released");
    assert_eq!(out.still_waiting, 0);
    assert_eq!(out.average_recency, 1.0, "no updates: delivered fresh");
    assert_eq!(out.average_score, 1.0);

    let stats = s.stats();
    assert_eq!(stats.joined, 2);
    // Waits 3, 2, 1 rounds → mean 2.
    assert_eq!(stats.wait_ticks.count(), 3);
    assert_eq!(stats.wait_ticks.mean(), Some(2.0));

    let ledger = s.flight_ledger().unwrap();
    assert_eq!(ledger.stats().launched, 1);
    assert_eq!(ledger.stats().coalesced_joins, 2);
    assert_eq!(ledger.stats().waiters_served, 3);
    assert!((ledger.stats().coalesced_fetch_ratio() - 2.0 / 3.0).abs() < 1e-12);
}

#[test]
fn invalidated_flights_never_serve_joiners_stale() {
    let cat = Catalog::from_sizes(&[6, 1, 1, 1]);
    let mut s = station(cat, Some(InFlightConfig::coalescing(2)));

    // Round 0: launch version 0 of object 0 (lands round 3).
    let out = s.step(&[req(0, 1.0)]);
    assert_eq!(out.launched, 1);

    // Round 1: the server moves on; the in-flight copy is now stale.
    // The new request must NOT join it — it triggers a fresh fetch of
    // version 1 (a legitimate second transfer for the same object).
    s.server_mut()
        .apply_update(ObjectId(0), SimTime::from_ticks(1));
    let out = s.step(&[req(0, 1.0)]);
    assert_eq!(out.launched, 1, "fresh version fetched, not joined");
    assert_eq!(out.joined, 0, "stale flight accepted no joiner");
    assert_eq!(out.still_waiting, 2);
    let ledger = s.flight_ledger().unwrap();
    assert_eq!(ledger.active_transfers(), 2, "stale + fresh both on wire");
    assert_eq!(ledger.stats().duplicate_launches, 1);
    assert_single_flight(&s, "after invalidation");

    // Round 3: the stale copy lands; its waiter is served with what
    // actually arrived — scored against the *current* version, i.e.
    // stale, never passed off as fresh.
    s.step(&[]);
    let out = s.step(&[]);
    assert_eq!(out.objects_downloaded, 1);
    assert_eq!(out.served_after_wait, 1);
    assert!(
        out.average_recency < 1.0,
        "stale arrival must not score fresh: {}",
        out.average_recency
    );

    // Round 6 (4 + 6 units over 2/round): the fresh copy lands; its
    // waiter is served fully fresh.
    s.step(&[]);
    s.step(&[]);
    let out = s.step(&[]);
    assert_eq!(out.objects_downloaded, 1);
    assert_eq!(out.served_after_wait, 1);
    assert_eq!(out.average_recency, 1.0, "fresh-flight joiner served fresh");
    assert_eq!(out.still_waiting, 0);
}

/// Drive a coalescing station over a random-but-deterministic script,
/// checking single-flight each round and full waiter conservation at
/// the end: every request ever issued is served exactly once.
fn check_conservation(seed: u64, config: InFlightConfig) {
    let mut s = station(catalog(), Some(config));
    let mut rng = RngStreams::new(seed).stream("inflight/conservation");
    let mut issued = 0u64;
    let mut served = 0u64;
    for t in 0..60u64 {
        if t % 9 == 4 {
            s.apply_update_wave();
        }
        let batch = arb_batch(&mut rng);
        issued += batch.len() as u64;
        let out = s.step(&batch);
        served += out.served as u64;
        if config.coalesce {
            assert_single_flight(&s, &format!("round {t}"));
        }
        let waiting = s.flight_ledger().unwrap().waiting();
        assert_eq!(
            issued - served,
            waiting,
            "round {t}: parked population must be exactly the unserved issue"
        );
    }
    // Drain: no new demand, every parked request must eventually land.
    // The FIFO backlog empties in at most units_launched / bandwidth
    // more rounds.
    let limit = s.flight_ledger().unwrap().stats().units_launched / config.bandwidth_per_round + 2;
    let mut rounds = 0;
    while s.flight_ledger().unwrap().waiting() > 0 {
        let out = s.step(&[]);
        served += out.served as u64;
        rounds += 1;
        assert!(rounds <= limit, "drain did not converge");
    }
    assert_eq!(issued, served, "every request served exactly once");
    let stats = s.stats();
    assert_eq!(stats.score.count, served);
    assert_eq!(
        s.flight_ledger().unwrap().stats().waiters_served,
        stats.wait_ticks.count,
        "ledger and station agree on waiter count"
    );
}

#[test]
fn random_demand_conserves_waiters_under_coalescing() {
    check_conservation(11, InFlightConfig::coalescing(2));
    check_conservation(12, InFlightConfig::coalescing(5));
}

#[test]
fn random_demand_conserves_waiters_under_naive_refetching() {
    // Naive mode duplicates launches but must still serve every parked
    // request exactly once.
    check_conservation(13, InFlightConfig::naive(2));
}

#[test]
fn coalescing_launches_no_more_than_naive() {
    // Same script, both bandwidth-2 stations: single-flight can only
    // remove launches relative to naive re-fetching.
    let run = |config: InFlightConfig| {
        let mut s = station(catalog(), Some(config));
        let mut rng = RngStreams::new(99).stream("inflight/naive-vs-coalesce");
        for t in 0..80u64 {
            if t % 9 == 4 {
                s.apply_update_wave();
            }
            let batch = arb_batch(&mut rng);
            s.step(&batch);
        }
        *s.flight_ledger().unwrap().stats()
    };
    let coalesced = run(InFlightConfig::coalescing(2));
    let naive = run(InFlightConfig::naive(2));
    assert!(
        coalesced.launched < naive.launched,
        "coalescing must launch fewer transfers: {} vs {}",
        coalesced.launched,
        naive.launched
    );
    assert!(coalesced.coalesced_joins > 0);
}

/// Every lifecycle event a station's transfers emit, in order (a test
/// sink beside the span recorder).
#[derive(Debug, Default)]
struct EventLog(Mutex<Vec<LifecycleEvent>>);

impl Recorder for EventLog {
    fn enabled(&self) -> bool {
        true
    }
    fn add(&self, _event: Event, _n: u64) {}
    fn sample(&self, _sample: Sample, _value: f64) {}
    fn span_ns(&self, _stage: Stage, _ns: u64) {}
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
    fn lifecycle(&self, event: LifecycleEvent) {
        self.0
            .lock()
            .expect("no thread panicked holding the log")
            .push(event);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The station emits a transfer's lifecycle itself: a launch in round
/// 0, a request joining it in round 1 and its arrival in round 2 make
/// the `Launched`, `Joined` and `Arrived` events, in that order, that
/// close exactly one span at the version fetched.
#[test]
fn a_transfer_lifecycle_closes_one_span() {
    type Sinks = Tee<LifecycleRecorder, EventLog>;
    // 10 units over a 5-unit link: launched in round 0, lands in round 2.
    let mut station = StationBuilder::new(Catalog::from_sizes(&[10, 1]))
        .on_demand(planner(), 20)
        .in_flight(InFlightConfig::coalescing(5))
        .recorder(Box::new(Tee::new(
            LifecycleRecorder::new(8, 32),
            EventLog::default(),
        )))
        .build()
        .expect("valid configuration");
    // The server is at version 1 when the fetch launches.
    station.apply_update_wave();
    station.step(&[req(0, 1.0)]);
    station.step(&[req(0, 0.8)]);
    let out = station.step(&[]);
    assert_eq!((out.objects_downloaded, out.served_after_wait), (1, 2));
    assert_eq!(station.stats().joined, 1, "round 1's request coalesced");

    let sinks = station
        .recorder()
        .as_any()
        .downcast_ref::<Sinks>()
        .expect("the tee was installed");
    let transfer: Vec<(Transition, u64, u64)> = sinks
        .right
        .0
        .lock()
        .expect("no thread panicked holding the log")
        .iter()
        .filter(|e| {
            matches!(
                e.transition,
                Transition::Launched | Transition::Joined | Transition::Arrived
            )
        })
        .inspect(|e| assert_eq!((e.object, e.version), (0, 1), "{e:?}"))
        .map(|e| (e.transition, e.tick, e.launch_tick))
        .collect();
    // Round 0's own request parks on the transfer it launched.
    assert_eq!(
        transfer,
        [
            (Transition::Launched, 0, 0),
            (Transition::Joined, 0, 0),
            (Transition::Joined, 1, 0),
            (Transition::Arrived, 2, 0),
        ]
    );

    let spans = sinks.left.spans();
    assert_eq!(spans.len(), 1, "one correlated span");
    let span = spans[0];
    assert_eq!((span.object, span.version), (0, 1));
    assert_eq!((span.launch_tick, span.arrived_tick), (0, 2));
    assert_eq!(span.joined, 2);
    assert_eq!(span.served, 2, "both waiters served on arrival");
    assert!(!span.open, "the arrival closed the span");
}

/// Property tests: random scripts over random bandwidths must satisfy
/// single-flight + conservation.
mod properties {
    use super::*;
    use basecache_sim::check::run_cases;

    #[test]
    fn random_scripts_conserve_waiters() {
        run_cases("inflight_conservation", 24, |i, rng| {
            let bandwidth = rng.random_range(1..=5u32) as u64;
            let config = if i % 2 == 0 {
                InFlightConfig::coalescing(bandwidth)
            } else {
                InFlightConfig::naive(bandwidth)
            };
            check_conservation(rng.next_u64(), config);
        });
    }
}
