//! Fault injection against the online invariant monitor.
//!
//! One scripted instrumentation stream — a miniature flash-crowd round
//! sequence emitting the same lifecycle transitions and samples the
//! station fires — replayed through the `Recorder` seam with exactly
//! one seeded bug per run. A clean replay must leave the monitor
//! silent; each faulty replay must fire *its* invariant counter exactly
//! once and leave the other four at zero. This is the evidence the
//! checks detect real instrumentation bugs rather than pattern-matching
//! the happy path.

use basecache_obs::{
    CausalConfig, CausalRecorder, Event, InvariantMonitor, LifecycleEvent, Recorder, Sample,
    Transition, MONITOR_EVENTS,
};

/// Refresh budget the scripted rounds stay under (and one fault
/// exceeds).
const BUDGET: u64 = 100;

/// One seeded instrumentation bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    /// No bug: the stream is exactly what a correct station emits.
    None,
    /// Serve more parked waiters off an arrival than ever parked.
    OverServe,
    /// Report committed units above the refresh budget.
    Overcommit,
    /// Launch a second transfer for a (object, version) already flying.
    DuplicateLaunch,
    /// Report the cache shrinking with no eviction to explain it.
    CacheShrink,
    /// Deliver an arrival stamped before its own launch tick.
    TimeTravel,
    /// Origin-fetch an (object, version) a second time in the same
    /// region — the L2 tier should have shared the first copy.
    RegionRefetch,
}

impl Fault {
    /// The invariant counter this fault must trip.
    fn expected(self) -> Option<Event> {
        match self {
            Fault::None => None,
            Fault::OverServe => Some(Event::WaiterConservationViolations),
            Fault::Overcommit => Some(Event::BudgetOvercommitViolations),
            Fault::DuplicateLaunch => Some(Event::SingleFlightViolations),
            Fault::CacheShrink => Some(Event::CacheAccountingViolations),
            Fault::TimeTravel => Some(Event::ArrivalOrderViolations),
            Fault::RegionRefetch => Some(Event::RegionSingleFlightViolations),
        }
    }
}

/// Replay the scripted rounds into `rec`, seeding `fault`.
///
/// The clean script, per round r (object = r, version = 1, all ticks
/// strictly increasing):
///   tick 10r+0  two requests park and the transfer launches;
///   tick 10r+1  one more waiter joins in flight;
///   tick 10r+5  the payload arrives, all three waiters are served,
///               the cache grows by the object's size.
fn replay(rec: &dyn Recorder, fault: Fault) {
    let mut cached = 0u64;
    for r in 0..4u32 {
        let object = r;
        let base = u64::from(r) * 10;
        rec.begin_round(base);

        rec.lifecycle(LifecycleEvent::new(Transition::Joined, object, 1, base).times(2));
        rec.lifecycle(LifecycleEvent::new(Transition::Planned, object, 1, base));
        let committed = if fault == Fault::Overcommit && r == 2 {
            BUDGET + 40
        } else {
            BUDGET / 2
        };
        rec.sample(Sample::CommittedUnits, committed as f64);
        rec.lifecycle(LifecycleEvent::new(Transition::Launched, object, 1, base).at_launch(base));
        if fault == Fault::DuplicateLaunch && r == 2 {
            // A correct single-flight ledger would have coalesced this.
            rec.lifecycle(
                LifecycleEvent::new(Transition::Launched, object, 1, base).at_launch(base),
            );
        }
        rec.lifecycle(LifecycleEvent::new(Transition::Joined, object, 1, base + 1));

        let (launch, arrive) = if fault == Fault::TimeTravel && r == 2 {
            // Stamped as launched *after* it arrived.
            (base + 7, base + 5)
        } else {
            (base, base + 5)
        };
        rec.lifecycle(
            LifecycleEvent::new(Transition::Arrived, object, 1, arrive).at_launch(launch),
        );
        if fault == Fault::RegionRefetch && r == 2 {
            // A second cell re-fetched round 1's object from origin at
            // the version the region already holds.
            rec.lifecycle(LifecycleEvent::new(Transition::Arrived, 1, 1, arrive));
        }
        // Seeded in the last round: an inflated serve count keeps the
        // cumulative served > parked imbalance for every later round,
        // so a mid-script seed would (correctly) fire more than once.
        let served = if fault == Fault::OverServe && r == 3 {
            100
        } else {
            3
        };
        rec.lifecycle(
            LifecycleEvent::new(Transition::ServedFromWait, object, 1, arrive)
                .at_launch(launch)
                .times(served),
        );
        cached += 10;
        let reported = if fault == Fault::CacheShrink && r == 2 {
            cached - 15
        } else {
            cached
        };
        rec.sample(Sample::CachedUnits, reported as f64);
        rec.end_round(base + 5);
    }
}

fn armed_monitor() -> InvariantMonitor {
    InvariantMonitor::new().with_budget(BUDGET)
}

#[test]
fn clean_replay_is_silent() {
    let monitor = armed_monitor();
    replay(&monitor, Fault::None);
    assert!(monitor.is_clean(), "clean stream must not trip any check");
    assert_eq!(monitor.total_violations(), 0);
    assert!(monitor.offenders().is_empty());
    for &event in &MONITOR_EVENTS {
        assert_eq!(monitor.count(event), 0, "{}", event.name());
    }
}

#[test]
fn each_seeded_fault_fires_exactly_its_check() {
    let faults = [
        Fault::OverServe,
        Fault::Overcommit,
        Fault::DuplicateLaunch,
        Fault::CacheShrink,
        Fault::TimeTravel,
    ];
    for fault in faults {
        let monitor = armed_monitor();
        replay(&monitor, fault);
        let expected = fault.expected().unwrap();
        for &event in &MONITOR_EVENTS {
            let want = u64::from(event == expected);
            assert_eq!(
                monitor.count(event),
                want,
                "{fault:?}: counter {} expected {want}",
                event.name()
            );
        }
        assert_eq!(monitor.total_violations(), 1, "{fault:?}");
        assert!(!monitor.is_clean(), "{fault:?}");
    }
}

#[test]
fn object_keyed_faults_name_the_offender() {
    for (fault, seeded_round) in [
        (Fault::OverServe, 3),
        (Fault::DuplicateLaunch, 2),
        (Fault::TimeTravel, 2),
    ] {
        let monitor = armed_monitor();
        replay(&monitor, fault);
        let offenders = monitor.offenders();
        assert_eq!(offenders.len(), 1, "{fault:?}");
        assert_eq!(
            offenders[0].key, seeded_round,
            "{fault:?}: the object of the seeded round is named"
        );
    }
}

#[test]
fn region_check_fires_only_when_armed() {
    // Disarmed (the default station-level monitor): the duplicate
    // arrival is not an invariant failure.
    let monitor = armed_monitor();
    replay(&monitor, Fault::RegionRefetch);
    assert_eq!(monitor.count(Event::RegionSingleFlightViolations), 0);

    // Armed (a cluster-level monitor watching region-scoped arrivals):
    // the clean script stays silent, the seeded refetch fires exactly
    // its check.
    let monitor = armed_monitor().region_single_flight();
    replay(&monitor, Fault::None);
    assert!(monitor.is_clean(), "clean region stream stays clean");
    let monitor = armed_monitor().region_single_flight();
    replay(&monitor, Fault::RegionRefetch);
    for &event in &MONITOR_EVENTS {
        let want = u64::from(event == Event::RegionSingleFlightViolations);
        assert_eq!(monitor.count(event), want, "{}", event.name());
    }
    assert_eq!(monitor.offenders()[0].key, 1, "the refetched object");
}

#[test]
fn monitor_reset_rearms_the_checks() {
    let monitor = armed_monitor();
    replay(&monitor, Fault::OverServe);
    assert!(!monitor.is_clean());
    monitor.reset();
    assert!(monitor.is_clean());
    // The waiter ledger restarted: a clean replay stays clean, and the
    // same fault fires again.
    replay(&monitor, Fault::None);
    assert!(monitor.is_clean());
    replay(&monitor, Fault::OverServe);
    assert_eq!(monitor.count(Event::WaiterConservationViolations), 1);
}

#[test]
fn violations_fire_through_the_causal_composition() {
    // The same stream through the full CausalRecorder tee: the monitor
    // still sees every event, and its counters surface in the merged
    // snapshot next to the lifecycle/AoI channels.
    let causal = CausalRecorder::new(CausalConfig {
        budget_units: Some(BUDGET),
        ..CausalConfig::default()
    });
    replay(&causal, Fault::DuplicateLaunch);
    assert_eq!(causal.monitor().count(Event::SingleFlightViolations), 1);
    assert_eq!(causal.monitor().total_violations(), 1);
    let snapshot = causal.snapshot();
    let counter = snapshot
        .counters
        .iter()
        .find(|c| c.name == Event::SingleFlightViolations.name())
        .expect("violation counter in merged snapshot");
    assert_eq!(counter.value, 1);
    // And the clean composition reports nothing.
    causal.reset();
    replay(&causal, Fault::None);
    assert!(causal.monitor().is_clean());
}
