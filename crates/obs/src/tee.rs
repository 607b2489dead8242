//! [`Tee`]: compose two recorders behind one [`Recorder`] parameter,
//! [`FlightRecorder`]: the canonical Stats + Trace + Series + TopK
//! stack, and [`CausalRecorder`]: the flight recorder extended with
//! lifecycle spans, AoI telemetry and the invariant monitor.
//!
//! A station takes exactly one recorder. `Tee` fans every recording call
//! out to two sinks, and nests — `Tee(Stats, Tee(Trace, Tee(Series,
//! TopK)))` is still one `Recorder`, fully monomorphized when used as a
//! generic parameter. Each delegate keeps its allocation-free recording
//! guarantee, so the composition does too: a tee'd call is two (or four)
//! inlined calls, no dispatch, no heap.

use crate::aoi::AoiRecorder;
use crate::ids::{Attr, Event, Sample, Stage};
use crate::lifecycle::{LifecycleEvent, LifecycleRecorder};
use crate::monitor::InvariantMonitor;
use crate::recorder::Recorder;
use crate::series::RoundSeries;
use crate::snapshot::Snapshot;
use crate::stats::StatsRecorder;
use crate::topk::TopKRecorder;
use crate::trace::TraceRecorder;

/// Fan every recording call out to two delegate recorders.
///
/// The fields are public so a composition handed to a station as
/// `Box<dyn Recorder>` can be recovered (via [`Recorder::as_any`]) and
/// taken apart at report time.
#[derive(Debug)]
pub struct Tee<A: Recorder, B: Recorder> {
    /// First delegate. Its snapshot entries win when both delegates
    /// export the same name.
    pub left: A,
    /// Second delegate.
    pub right: B,
}

impl<A: Recorder, B: Recorder> Tee<A, B> {
    /// Compose `left` and `right` behind one recorder.
    pub fn new(left: A, right: B) -> Self {
        Self { left, right }
    }
}

impl<A: Recorder + 'static, B: Recorder + 'static> Recorder for Tee<A, B> {
    #[inline]
    fn enabled(&self) -> bool {
        self.left.enabled() || self.right.enabled()
    }

    #[inline]
    fn add(&self, event: Event, n: u64) {
        self.left.add(event, n);
        self.right.add(event, n);
    }

    #[inline]
    fn sample(&self, sample: Sample, value: f64) {
        self.left.sample(sample, value);
        self.right.sample(sample, value);
    }

    #[inline]
    fn span_ns(&self, stage: Stage, ns: u64) {
        self.left.span_ns(stage, ns);
        self.right.span_ns(stage, ns);
    }

    /// Merge the delegates' snapshots per name: the left delegate wins
    /// on a name both recorded; right-only names are appended, so a
    /// sink contributing a *different* slice of the id space (AoI
    /// samples, monitor counters) survives next to the aggregate sink.
    /// Attribution rows are concatenated (channels don't collide).
    fn snapshot(&self) -> Snapshot {
        let mut left = self.left.snapshot();
        let right = self.right.snapshot();
        for c in right.counters {
            if left.counter(c.name).is_none() {
                left.counters.push(c);
            }
        }
        for s in right.samples {
            if left.sample(s.name).is_none() {
                left.samples.push(s);
            }
        }
        for s in right.spans {
            if left.span(s.name).is_none() {
                left.spans.push(s);
            }
        }
        left.attrs.extend(right.attrs);
        left
    }

    #[inline]
    fn begin_round(&self, tick: u64) {
        self.left.begin_round(tick);
        self.right.begin_round(tick);
    }

    #[inline]
    fn end_round(&self, tick: u64) {
        self.left.end_round(tick);
        self.right.end_round(tick);
    }

    #[inline]
    fn attribute(&self, attr: Attr, key: u32, weight: u64) {
        self.left.attribute(attr, key, weight);
        self.right.attribute(attr, key, weight);
    }

    #[inline]
    fn lifecycle(&self, event: LifecycleEvent) {
        self.left.lifecycle(event);
        self.right.lifecycle(event);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The full deterministic flight recorder: aggregate statistics, an
/// event-ring trace, a per-round time series, and top-K attribution,
/// composed from nested [`Tee`]s behind one [`Recorder`].
#[derive(Debug)]
pub struct FlightRecorder {
    tee: Tee<StatsRecorder, Tee<TraceRecorder, Tee<RoundSeries, TopKRecorder>>>,
}

impl FlightRecorder {
    /// A flight recorder whose trace ring holds `trace_capacity` events,
    /// whose series keeps `series_capacity` rounds (decimating beyond),
    /// and whose attribution tracks the `top_k` heaviest entities per
    /// channel. All allocation happens here.
    pub fn new(trace_capacity: usize, series_capacity: usize, top_k: usize) -> Self {
        Self {
            tee: Tee::new(
                StatsRecorder::new(),
                Tee::new(
                    TraceRecorder::with_capacity(trace_capacity),
                    Tee::new(
                        RoundSeries::with_capacity(series_capacity),
                        TopKRecorder::new(top_k),
                    ),
                ),
            ),
        }
    }

    /// The aggregate-statistics sink.
    pub fn stats(&self) -> &StatsRecorder {
        &self.tee.left
    }

    /// The event-ring trace sink.
    pub fn trace(&self) -> &TraceRecorder {
        &self.tee.right.left
    }

    /// The per-round time-series sink.
    pub fn series(&self) -> &RoundSeries {
        &self.tee.right.right.left
    }

    /// The top-K attribution sink.
    pub fn topk(&self) -> &TopKRecorder {
        &self.tee.right.right.right
    }

    /// Reset every sink (e.g. at the end of a warm-up phase) without
    /// deallocating.
    pub fn reset(&self) {
        self.stats().reset();
        self.trace().reset();
        self.series().reset();
        self.topk().reset();
    }
}

impl Recorder for FlightRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, event: Event, n: u64) {
        self.tee.add(event, n);
    }

    #[inline]
    fn sample(&self, sample: Sample, value: f64) {
        self.tee.sample(sample, value);
    }

    #[inline]
    fn span_ns(&self, stage: Stage, ns: u64) {
        self.tee.span_ns(stage, ns);
    }

    fn snapshot(&self) -> Snapshot {
        self.tee.snapshot()
    }

    #[inline]
    fn begin_round(&self, tick: u64) {
        self.tee.begin_round(tick);
    }

    #[inline]
    fn end_round(&self, tick: u64) {
        self.tee.end_round(tick);
    }

    #[inline]
    fn attribute(&self, attr: Attr, key: u32, weight: u64) {
        self.tee.attribute(attr, key, weight);
    }

    #[inline]
    fn lifecycle(&self, event: LifecycleEvent) {
        self.tee.lifecycle(event);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Capacities for a [`CausalRecorder`], with CI-sized defaults.
#[derive(Debug, Clone, Copy)]
pub struct CausalConfig {
    /// Trace-ring capacity in events.
    pub trace_capacity: usize,
    /// Per-round series capacity in rows (decimating beyond).
    pub series_capacity: usize,
    /// Heaviest entities tracked per attribution channel.
    pub top_k: usize,
    /// Concurrently open lifecycle spans tracked.
    pub open_spans: usize,
    /// Closed lifecycle spans retained (ring, overwriting oldest).
    pub closed_spans: usize,
    /// Dense object-key space for the AoI origin table.
    pub num_objects: usize,
    /// Refresh budget armed on the monitor (`None` disarms the check).
    pub budget_units: Option<u64>,
    /// Disarm the single-flight check (naive re-fetching baseline).
    pub allow_duplicate_flights: bool,
}

impl Default for CausalConfig {
    fn default() -> Self {
        Self {
            trace_capacity: 4096,
            series_capacity: 512,
            top_k: 8,
            open_spans: 256,
            closed_spans: 1024,
            num_objects: 1024,
            budget_units: None,
            allow_duplicate_flights: false,
        }
    }
}

/// The causal observability stack: the [`FlightRecorder`] plus
/// lifecycle spans, age-of-information telemetry and the online
/// invariant monitor, all behind one [`Recorder`].
///
/// This is the composition the extended experiments and the
/// `lifecycle_recorder_overhead` bench A/B use: every signal a round
/// emits — counters, samples, stage spans, attribution *and* lifecycle
/// transitions — fans out to seven allocation-free sinks.
#[derive(Debug)]
pub struct CausalRecorder {
    tee: Tee<FlightRecorder, Tee<LifecycleRecorder, Tee<AoiRecorder, InvariantMonitor>>>,
}

impl CausalRecorder {
    /// Build the full stack from one capacity config. All allocation
    /// happens here.
    pub fn new(config: CausalConfig) -> Self {
        let mut monitor = InvariantMonitor::new();
        if let Some(budget) = config.budget_units {
            monitor = monitor.with_budget(budget);
        }
        if config.allow_duplicate_flights {
            monitor = monitor.allow_duplicate_flights();
        }
        Self {
            tee: Tee::new(
                FlightRecorder::new(config.trace_capacity, config.series_capacity, config.top_k),
                Tee::new(
                    LifecycleRecorder::new(config.open_spans, config.closed_spans),
                    Tee::new(
                        AoiRecorder::new(config.num_objects, config.series_capacity, config.top_k),
                        monitor,
                    ),
                ),
            ),
        }
    }

    /// The point-event flight recorder (stats/trace/series/topk).
    pub fn flight(&self) -> &FlightRecorder {
        &self.tee.left
    }

    /// The lifecycle-span sink.
    pub fn lifecycle_spans(&self) -> &LifecycleRecorder {
        &self.tee.right.left
    }

    /// The age-of-information sink.
    pub fn aoi(&self) -> &AoiRecorder {
        &self.tee.right.right.left
    }

    /// The invariant monitor.
    pub fn monitor(&self) -> &InvariantMonitor {
        &self.tee.right.right.right
    }

    /// Reset every sink without deallocating.
    pub fn reset(&self) {
        self.flight().reset();
        self.lifecycle_spans().reset();
        self.aoi().reset();
        self.monitor().reset();
    }
}

impl Recorder for CausalRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, event: Event, n: u64) {
        self.tee.add(event, n);
    }

    #[inline]
    fn sample(&self, sample: Sample, value: f64) {
        self.tee.sample(sample, value);
    }

    #[inline]
    fn span_ns(&self, stage: Stage, ns: u64) {
        self.tee.span_ns(stage, ns);
    }

    fn snapshot(&self) -> Snapshot {
        self.tee.snapshot()
    }

    #[inline]
    fn begin_round(&self, tick: u64) {
        self.tee.begin_round(tick);
    }

    #[inline]
    fn end_round(&self, tick: u64) {
        self.tee.end_round(tick);
    }

    #[inline]
    fn attribute(&self, attr: Attr, key: u32, weight: u64) {
        self.tee.attribute(attr, key, weight);
    }

    #[inline]
    fn lifecycle(&self, event: LifecycleEvent) {
        self.tee.lifecycle(event);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::NullRecorder;

    #[test]
    fn tee_forwards_to_both_delegates() {
        let tee = Tee::new(StatsRecorder::new(), StatsRecorder::new());
        tee.incr(Event::Rounds);
        tee.sample(Sample::BatchSize, 5.0);
        tee.span_ns(Stage::Plan, 100);
        assert_eq!(tee.left.counter(Event::Rounds), 1);
        assert_eq!(tee.right.counter(Event::Rounds), 1);
        assert!(tee.left.snapshot().sample("batch_size").is_some());
        assert!(tee.right.snapshot().span("plan").is_some());
    }

    #[test]
    fn tee_of_nulls_is_disabled() {
        let tee = Tee::new(NullRecorder, NullRecorder);
        assert!(!tee.enabled());
        assert!(tee.snapshot().is_empty());
    }

    #[test]
    fn flight_recorder_routes_every_signal_to_its_sink() {
        let flight = FlightRecorder::new(256, 64, 4);
        assert!(flight.enabled());
        flight.begin_round(3);
        flight.incr(Event::Rounds);
        flight.add(Event::UnitsDownloaded, 12);
        flight.sample(Sample::BatchSize, 9.0);
        flight.span_ns(Stage::Plan, 400);
        flight.attribute(Attr::DownlinkUnitsByObject, 7, 12);
        flight.end_round(3);

        assert_eq!(flight.stats().counter(Event::Rounds), 1);
        assert!(!flight.trace().is_empty());
        let rows = flight.series().rows();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].tick, 3);
        assert_eq!(rows[0].units_fetched, 12);
        assert_eq!(flight.topk().top(Attr::DownlinkUnitsByObject)[0].key, 7);

        // The merged snapshot carries aggregates AND attribution.
        let snap = flight.snapshot();
        assert_eq!(snap.counter("rounds"), Some(1));
        assert!(snap.span("plan").is_some());
        let attrs: Vec<_> = snap.attrs_on("downlink_units_by_object").collect();
        assert_eq!(attrs.len(), 1);
        assert_eq!(attrs[0].label, "obj#7");
    }

    #[test]
    fn flight_recorder_reset_clears_every_sink() {
        let flight = FlightRecorder::new(64, 16, 4);
        flight.begin_round(0);
        flight.incr(Event::Rounds);
        flight.attribute(Attr::ServeStalenessByCell, 1, 5);
        flight.end_round(0);
        flight.reset();
        assert!(flight.snapshot().is_empty());
        assert!(flight.trace().is_empty());
        assert!(flight.series().is_empty());
    }

    #[test]
    fn boxed_flight_recorder_recovers_by_downcast() {
        let boxed: Box<dyn Recorder> = Box::new(FlightRecorder::new(64, 16, 4));
        boxed.incr(Event::Rounds);
        let flight = boxed
            .as_any()
            .downcast_ref::<FlightRecorder>()
            .expect("concrete type recoverable");
        assert_eq!(flight.stats().counter(Event::Rounds), 1);
    }

    #[test]
    fn snapshot_merge_unions_by_name_with_left_priority() {
        use crate::monitor::InvariantMonitor;

        // Left records rounds; right (a monitor) contributes a
        // violation counter the left knows nothing about. Both must
        // survive the merge.
        let tee = Tee::new(StatsRecorder::new(), InvariantMonitor::new());
        tee.incr(Event::Rounds);
        tee.lifecycle(LifecycleEvent::new(
            crate::lifecycle::Transition::Launched,
            1,
            1,
            0,
        ));
        tee.lifecycle(LifecycleEvent::new(
            crate::lifecycle::Transition::Launched,
            1,
            1,
            1,
        ));
        let snap = tee.snapshot();
        assert_eq!(snap.counter("rounds"), Some(1), "left section kept");
        assert_eq!(
            snap.counter("single_flight_violations"),
            Some(1),
            "right-only name appended"
        );

        // On a name collision the left value wins.
        let both = Tee::new(StatsRecorder::new(), StatsRecorder::new());
        both.left.add(Event::Rounds, 3);
        both.right.add(Event::Rounds, 9);
        assert_eq!(both.snapshot().counter("rounds"), Some(3));
    }

    #[test]
    fn causal_recorder_routes_every_signal_to_its_sink() {
        use crate::lifecycle::Transition;

        let rec = CausalRecorder::new(CausalConfig {
            budget_units: Some(100),
            num_objects: 16,
            ..CausalConfig::default()
        });
        assert!(rec.enabled());
        rec.begin_round(0);
        rec.incr(Event::Rounds);
        rec.sample(Sample::CommittedUnits, 40.0);
        rec.lifecycle(LifecycleEvent::new(Transition::Launched, 3, 1, 0));
        rec.end_round(0);
        rec.begin_round(4);
        rec.lifecycle(LifecycleEvent::new(Transition::Arrived, 3, 1, 4).at_launch(0));
        rec.lifecycle(LifecycleEvent::new(Transition::Served, 3, 1, 4).times(2));
        rec.end_round(4);

        assert_eq!(rec.flight().stats().counter(Event::Rounds), 1);
        assert_eq!(rec.lifecycle_spans().closed_len(), 1);
        assert_eq!(rec.aoi().peak_aoi(), 4);
        assert!(rec.monitor().is_clean());

        // One snapshot carries all of it.
        let snap = rec.snapshot();
        assert_eq!(snap.counter("rounds"), Some(1));
        assert!(snap.sample("aoi_at_serve").is_some());
        assert_eq!(snap.counter("lifecycle_spans_closed"), Some(1));
        assert!(snap.attrs_on("aoi_by_object").next().is_some());

        rec.reset();
        assert!(rec.snapshot().is_empty());
    }

    #[test]
    fn boxed_causal_recorder_recovers_by_downcast() {
        let boxed: Box<dyn Recorder> = Box::new(CausalRecorder::new(CausalConfig::default()));
        boxed.incr(Event::Rounds);
        let causal = boxed
            .as_any()
            .downcast_ref::<CausalRecorder>()
            .expect("concrete type recoverable");
        assert_eq!(causal.flight().stats().counter(Event::Rounds), 1);
    }
}
