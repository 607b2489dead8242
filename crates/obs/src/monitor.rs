//! The online invariant monitor: a cheap, always-on health layer that
//! rides the [`Recorder`] seam and *counts* violations instead of
//! panicking.
//!
//! A simulation that silently breaks its own bookkeeping produces
//! plausible-looking numbers; assertions catch that in tests but cost a
//! crash in a million-round run. The [`InvariantMonitor`] takes the
//! middle road: it watches the event/sample/lifecycle streams every
//! round and, when an invariant fails, increments a dedicated violation
//! counter and attributes the failure to the triggering object — the
//! run keeps going, and the report says exactly what broke, where, and
//! how often.
//!
//! Checks (each maps to one [`Event`] violation counter):
//!
//! - **Waiter conservation** — no transfer serves more parked waiters
//!   than ever joined it ([`Event::WaiterConservationViolations`]).
//! - **Budget** — a round never commits more in-flight units than the
//!   configured refresh budget ([`Event::BudgetOvercommitViolations`]).
//! - **Single-flight** — at most one transfer in flight per
//!   `(object, version)` under coalescing
//!   ([`Event::SingleFlightViolations`]).
//! - **Cache accounting** — used units never shrink on an insert-only
//!   store ([`Event::CacheAccountingViolations`]).
//! - **Arrival order** — arrivals land at monotone ticks, never before
//!   their own launch ([`Event::ArrivalOrderViolations`]).
//! - **Region single-flight** (opt-in via
//!   [`InvariantMonitor::region_single_flight`]) — under a regional L2
//!   tier, an `(object, version)` pair is origin-fetched at most once
//!   across the whole region; a second arrival of the same pair means a
//!   cell paid backhaul for a copy a neighbor already held
//!   ([`Event::RegionSingleFlightViolations`]).

use std::cell::{Cell, RefCell};

use crate::ids::{Attr, Event, Sample, Stage};
use crate::lifecycle::{LifecycleEvent, Transition, NO_TICK};
use crate::recorder::Recorder;
use crate::snapshot::{AttrSnapshot, CounterSnapshot, Snapshot};
use crate::topk::{TopEntry, TopK};

/// The violation counters the monitor maintains, in export order.
pub const MONITOR_EVENTS: [Event; 6] = [
    Event::WaiterConservationViolations,
    Event::BudgetOvercommitViolations,
    Event::SingleFlightViolations,
    Event::CacheAccountingViolations,
    Event::ArrivalOrderViolations,
    Event::RegionSingleFlightViolations,
];

const INFLIGHT_CAPACITY: usize = 256;
const ORIGIN_CAPACITY: usize = 1024;

#[derive(Debug)]
struct State {
    /// `(object, version)` pairs currently believed in flight, oldest
    /// first; bounded, evicts silently when full.
    inflight: Vec<(u32, u64)>,
    /// Cumulative waiters parked (joined onto transfers).
    parked: u64,
    /// Cumulative waiters served off arrived transfers.
    served: u64,
    /// Last observed cache used-units gauge (NaN before the first).
    cached_units: f64,
    /// Latest arrival tick seen.
    last_arrival: u64,
    /// `(object, version)` pairs already origin-fetched somewhere in the
    /// region (only maintained when the region check is armed), oldest
    /// first; bounded, evicts silently when full.
    origin_fetched: Vec<(u32, u64)>,
    /// Worst offenders across every check.
    offenders: TopK,
}

/// The always-on invariant monitor. Compose behind a [`crate::Tee`] with
/// the other sinks; all recording stays allocation-free.
#[derive(Debug)]
pub struct InvariantMonitor {
    /// Refresh budget in units; `None` disables the budget check.
    budget: Option<u64>,
    /// `true` under naive re-fetching, where duplicate transfers are
    /// expected and the single-flight check must stay quiet.
    allow_duplicate_flights: bool,
    /// `true` when the region-wide origin single-flight check is armed
    /// (an L2 tier is coordinating origin fetches across cells).
    region_single_flight: bool,
    violations: [Cell<u64>; MONITOR_EVENTS.len()],
    state: RefCell<State>,
}

impl Default for InvariantMonitor {
    fn default() -> Self {
        Self::new()
    }
}

impl InvariantMonitor {
    /// A monitor with every check armed except budget (configure it with
    /// [`InvariantMonitor::with_budget`]).
    pub fn new() -> Self {
        Self {
            budget: None,
            allow_duplicate_flights: false,
            region_single_flight: false,
            violations: std::array::from_fn(|_| Cell::new(0)),
            state: RefCell::new(State {
                inflight: Vec::with_capacity(INFLIGHT_CAPACITY),
                parked: 0,
                served: 0,
                cached_units: f64::NAN,
                last_arrival: 0,
                origin_fetched: Vec::new(),
                offenders: TopK::new(8),
            }),
        }
    }

    /// Arm the budget check: flag any round committing more than
    /// `units` in-flight units.
    pub fn with_budget(mut self, units: u64) -> Self {
        self.budget = Some(units);
        self
    }

    /// Disarm the single-flight check (the naive re-fetching baseline
    /// launches duplicates by design).
    pub fn allow_duplicate_flights(mut self) -> Self {
        self.allow_duplicate_flights = true;
        self
    }

    /// Arm the region-wide origin single-flight check: every
    /// [`Transition::Arrived`] event is an origin fetch, and the same
    /// `(object, version)` arriving twice anywhere in the region means
    /// the L2 tier failed to share the first copy. Only arm this on a
    /// cluster-level recorder whose arrival stream is region-scoped.
    pub fn region_single_flight(mut self) -> Self {
        self.region_single_flight = true;
        self.state
            .borrow_mut()
            .origin_fetched
            .reserve(ORIGIN_CAPACITY);
        self
    }

    fn violation_slot(event: Event) -> Option<usize> {
        MONITOR_EVENTS.iter().position(|&e| e == event)
    }

    fn flag(&self, event: Event, object: u32) {
        let slot = Self::violation_slot(event).expect("monitor event");
        let cell = &self.violations[slot];
        cell.set(cell.get().saturating_add(1));
        self.state.borrow_mut().offenders.update(object, 1);
    }

    /// Times one check fired. Returns 0 for non-monitor events.
    pub fn count(&self, event: Event) -> u64 {
        Self::violation_slot(event).map_or(0, |i| self.violations[i].get())
    }

    /// Total violations across every check.
    pub fn total_violations(&self) -> u64 {
        self.violations.iter().map(Cell::get).sum()
    }

    /// Whether every invariant has held so far.
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// The objects most often implicated in violations.
    pub fn offenders(&self) -> Vec<TopEntry> {
        self.state.borrow().offenders.top()
    }

    /// Forget everything (checks stay armed as configured).
    pub fn reset(&self) {
        for c in &self.violations {
            c.set(0);
        }
        let mut st = self.state.borrow_mut();
        st.inflight.clear();
        st.parked = 0;
        st.served = 0;
        st.cached_units = f64::NAN;
        st.last_arrival = 0;
        st.origin_fetched.clear();
        st.offenders.reset();
    }
}

impl Recorder for InvariantMonitor {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, _event: Event, _n: u64) {}

    #[inline]
    fn span_ns(&self, _stage: Stage, _ns: u64) {}

    #[inline]
    fn attribute(&self, _attr: Attr, _key: u32, _weight: u64) {}

    fn sample(&self, sample: Sample, value: f64) {
        if !value.is_finite() {
            return;
        }
        match sample {
            Sample::CommittedUnits => {
                if let Some(budget) = self.budget {
                    if value > budget as f64 + 0.5 {
                        self.flag(Event::BudgetOvercommitViolations, 0);
                    }
                }
            }
            Sample::CachedUnits => {
                let prev = {
                    let mut st = self.state.borrow_mut();
                    let prev = st.cached_units;
                    st.cached_units = value;
                    prev
                };
                if prev.is_finite() && value < prev - 0.5 {
                    self.flag(Event::CacheAccountingViolations, 0);
                }
            }
            _ => {}
        }
    }

    fn lifecycle(&self, event: LifecycleEvent) {
        match event.transition {
            Transition::Joined => {
                let mut st = self.state.borrow_mut();
                st.parked = st.parked.saturating_add(u64::from(event.count));
            }
            Transition::Launched => {
                let dup = {
                    let mut st = self.state.borrow_mut();
                    let key = (event.object, event.version);
                    let dup = st.inflight.contains(&key);
                    if !dup {
                        if st.inflight.len() == INFLIGHT_CAPACITY {
                            st.inflight.remove(0);
                        }
                        st.inflight.push(key);
                    }
                    dup
                };
                if dup && !self.allow_duplicate_flights {
                    self.flag(Event::SingleFlightViolations, event.object);
                }
            }
            Transition::Arrived => {
                let (out_of_order, before_launch, region_dup) = {
                    let mut st = self.state.borrow_mut();
                    let key = (event.object, event.version);
                    if let Some(i) = st.inflight.iter().position(|&k| k == key) {
                        st.inflight.remove(i);
                    }
                    let out_of_order = event.tick < st.last_arrival;
                    st.last_arrival = st.last_arrival.max(event.tick);
                    let before_launch =
                        event.launch_tick != NO_TICK && event.tick < event.launch_tick;
                    let region_dup = if self.region_single_flight {
                        let dup = st.origin_fetched.contains(&key);
                        if !dup {
                            if st.origin_fetched.len() == ORIGIN_CAPACITY {
                                st.origin_fetched.remove(0);
                            }
                            st.origin_fetched.push(key);
                        }
                        dup
                    } else {
                        false
                    };
                    (out_of_order, before_launch, region_dup)
                };
                if out_of_order || before_launch {
                    self.flag(Event::ArrivalOrderViolations, event.object);
                }
                if region_dup {
                    self.flag(Event::RegionSingleFlightViolations, event.object);
                }
            }
            Transition::ServedFromWait => {
                let broke = {
                    let mut st = self.state.borrow_mut();
                    st.served = st.served.saturating_add(u64::from(event.count));
                    st.served > st.parked
                };
                if broke {
                    self.flag(Event::WaiterConservationViolations, event.object);
                }
            }
            _ => {}
        }
    }

    fn snapshot(&self) -> Snapshot {
        let counters = MONITOR_EVENTS
            .iter()
            .zip(&self.violations)
            .filter_map(|(&e, c)| {
                let value = c.get();
                (value > 0).then_some(CounterSnapshot {
                    name: e.name(),
                    value,
                })
            })
            .collect();
        let attrs = self
            .offenders()
            .into_iter()
            .map(|e| AttrSnapshot {
                channel: Attr::MonitorViolationsByObject.name(),
                label: Attr::MonitorViolationsByObject.label(e.key),
                weight: e.weight,
                error: e.error,
            })
            .collect();
        Snapshot {
            counters,
            attrs,
            ..Snapshot::default()
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Transition, object: u32, version: u64, tick: u64) -> LifecycleEvent {
        LifecycleEvent::new(t, object, version, tick)
    }

    #[test]
    fn clean_stream_stays_clean() {
        let mon = InvariantMonitor::new().with_budget(100);
        mon.lifecycle(ev(Transition::Launched, 1, 1, 0));
        mon.lifecycle(ev(Transition::Joined, 1, 1, 1).times(3));
        mon.sample(Sample::CommittedUnits, 40.0);
        mon.sample(Sample::CachedUnits, 10.0);
        mon.lifecycle(ev(Transition::Arrived, 1, 1, 2).at_launch(0));
        mon.lifecycle(ev(Transition::ServedFromWait, 1, 1, 2).times(3));
        mon.sample(Sample::CachedUnits, 15.0);
        assert!(mon.is_clean());
        assert!(mon.snapshot().is_empty());
    }

    #[test]
    fn waiter_conservation_fires_on_overserve() {
        let mon = InvariantMonitor::new();
        mon.lifecycle(ev(Transition::Joined, 5, 1, 0).times(2));
        mon.lifecycle(ev(Transition::ServedFromWait, 5, 1, 1).times(3));
        assert_eq!(mon.count(Event::WaiterConservationViolations), 1);
        assert_eq!(mon.offenders()[0].key, 5);
    }

    #[test]
    fn budget_overcommit_fires_only_past_the_budget() {
        let mon = InvariantMonitor::new().with_budget(50);
        mon.sample(Sample::CommittedUnits, 50.0);
        assert!(mon.is_clean(), "at budget is fine");
        mon.sample(Sample::CommittedUnits, 51.0);
        assert_eq!(mon.count(Event::BudgetOvercommitViolations), 1);
    }

    #[test]
    fn budget_check_is_disarmed_without_a_budget() {
        let mon = InvariantMonitor::new();
        mon.sample(Sample::CommittedUnits, 1e12);
        assert!(mon.is_clean());
    }

    #[test]
    fn single_flight_fires_on_duplicate_launch() {
        let mon = InvariantMonitor::new();
        mon.lifecycle(ev(Transition::Launched, 7, 3, 0));
        mon.lifecycle(ev(Transition::Launched, 7, 3, 1));
        assert_eq!(mon.count(Event::SingleFlightViolations), 1);
        // A different version is a different transfer.
        mon.lifecycle(ev(Transition::Launched, 7, 4, 1));
        assert_eq!(mon.count(Event::SingleFlightViolations), 1);
        // After arrival the slot frees up.
        mon.lifecycle(ev(Transition::Arrived, 7, 4, 2));
        mon.lifecycle(ev(Transition::Launched, 7, 4, 3));
        assert_eq!(mon.count(Event::SingleFlightViolations), 1);
    }

    #[test]
    fn naive_mode_disarms_single_flight() {
        let mon = InvariantMonitor::new().allow_duplicate_flights();
        mon.lifecycle(ev(Transition::Launched, 7, 3, 0));
        mon.lifecycle(ev(Transition::Launched, 7, 3, 1));
        assert!(mon.is_clean());
    }

    #[test]
    fn cache_accounting_fires_when_used_units_shrink() {
        let mon = InvariantMonitor::new();
        mon.sample(Sample::CachedUnits, 10.0);
        mon.sample(Sample::CachedUnits, 12.0);
        assert!(mon.is_clean());
        mon.sample(Sample::CachedUnits, 9.0);
        assert_eq!(mon.count(Event::CacheAccountingViolations), 1);
    }

    #[test]
    fn arrival_order_fires_on_time_travel() {
        let mon = InvariantMonitor::new();
        mon.lifecycle(ev(Transition::Arrived, 1, 1, 10));
        mon.lifecycle(ev(Transition::Arrived, 2, 1, 5));
        assert_eq!(mon.count(Event::ArrivalOrderViolations), 1);
        // Arriving before your own launch is also time travel.
        mon.lifecycle(ev(Transition::Arrived, 3, 1, 20).at_launch(25));
        assert_eq!(mon.count(Event::ArrivalOrderViolations), 2);
    }

    #[test]
    fn region_single_flight_fires_on_second_origin_fetch() {
        let mon = InvariantMonitor::new().region_single_flight();
        mon.lifecycle(ev(Transition::Arrived, 4, 2, 3));
        assert!(mon.is_clean(), "first origin fetch of (4, v2) is fine");
        // A different version is a legitimate refresh.
        mon.lifecycle(ev(Transition::Arrived, 4, 3, 5));
        assert!(mon.is_clean());
        // The same (object, version) arriving again means some cell
        // re-paid origin for a copy the region already held.
        mon.lifecycle(ev(Transition::Arrived, 4, 2, 7));
        assert_eq!(mon.count(Event::RegionSingleFlightViolations), 1);
        assert_eq!(mon.offenders()[0].key, 4);
    }

    #[test]
    fn region_single_flight_is_disarmed_by_default() {
        let mon = InvariantMonitor::new();
        mon.lifecycle(ev(Transition::Arrived, 4, 2, 3));
        mon.lifecycle(ev(Transition::Arrived, 4, 2, 7));
        assert_eq!(mon.count(Event::RegionSingleFlightViolations), 0);
    }

    #[test]
    fn snapshot_names_violations_and_offenders() {
        let mon = InvariantMonitor::new();
        mon.lifecycle(ev(Transition::Launched, 9, 1, 0));
        mon.lifecycle(ev(Transition::Launched, 9, 1, 1));
        let snap = mon.snapshot();
        assert_eq!(snap.counter("single_flight_violations"), Some(1));
        let attrs: Vec<_> = snap.attrs_on("monitor_violations_by_object").collect();
        assert_eq!(attrs[0].label, "obj#9");
        assert_eq!(attrs[0].weight, 1);
    }

    #[test]
    fn reset_clears_counts_but_keeps_checks_armed() {
        let mon = InvariantMonitor::new().with_budget(10);
        mon.sample(Sample::CommittedUnits, 11.0);
        assert!(!mon.is_clean());
        mon.reset();
        assert!(mon.is_clean());
        mon.sample(Sample::CommittedUnits, 11.0);
        assert_eq!(mon.count(Event::BudgetOvercommitViolations), 1);
    }
}
