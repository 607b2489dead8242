//! Causal transfer-lifecycle spans behind the [`Recorder`] seam.
//!
//! PR 7 gave downloads multi-round lifecycles (plan → launch/join →
//! in-flight rounds → arrival → serve); this module makes them visible.
//! Each transfer is tracked as an *async span* correlated by
//! `(object, version, launch tick)`: the hot path fires cheap, `Copy`
//! [`LifecycleEvent`]s through [`Recorder::lifecycle`], and the
//! [`LifecycleRecorder`] folds them into a bounded open-span table plus
//! a closed-span ring — allocation-free in steady state, like every
//! other sink in this crate.
//!
//! The recorder answers the question the point-event trace cannot:
//! "where did this request's 12.5-round wait go?" — because a span
//! remembers when it was planned, when its transfer launched, how many
//! waiters joined along the way, when the copy landed and how many
//! serves it fed before going stale. [`LifecycleRecorder::to_chrome_trace`]
//! renders the spans as Perfetto *async duration* events (`"ph": "b"` /
//! `"e"`, correlated by `id`), loadable next to the existing
//! [`crate::TraceRecorder`] ring.
//!
//! Timestamps here are **logical**: one sim tick maps to one synthetic
//! millisecond on the export timeline, so two identical runs produce
//! identical span files.

use std::cell::RefCell;

use crate::ids::{Attr, Event, Sample, Stage};
use crate::recorder::Recorder;
use crate::snapshot::{CounterSnapshot, Snapshot};

/// Sentinel for "tick not known / not reached" in a [`LifeSpan`].
pub const NO_TICK: u64 = u64::MAX;

/// One step in a transfer's (or waiting request's) lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transition {
    /// The planner committed budget to downloading the object.
    Planned,
    /// A transfer for `(object, version)` launched onto the network.
    Launched,
    /// `count` waiters joined the transfer already on the wire.
    Joined,
    /// The transfer's payload arrived at the station cache.
    Arrived,
    /// `count` parked waiters were served off the arrived copy.
    ServedFromWait,
    /// `count` requests were served from the cached copy directly.
    Served,
    /// The copy was invalidated (a newer version exists upstream) while
    /// the span was still live — the arrival or serve was stale.
    InvalidatedStale,
    /// `count` requests were served off a copy pulled from the regional
    /// L2 tier (a neighbor cell) over the inter-cell link.
    ServedFromL2,
    /// An L2 copy was installed into the local L1 cache (promotion) —
    /// the object's span gains a local residency without an origin
    /// download.
    PromotedToL1,
    /// A remote (L2) copy of this `(object, version)` was invalidated
    /// by the coherence channel because a fresher version landed at
    /// some cell in the region.
    InvalidatedRemote,
}

/// A `Copy` lifecycle notification fired from the hot path.
///
/// Objects are identified by their dense `u32` key (`ObjectId.0`) —
/// `basecache-obs` sits below the domain crates and cannot name their
/// id types. `launch_tick` is [`NO_TICK`] until the transfer launches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifecycleEvent {
    /// Which lifecycle step happened.
    pub transition: Transition,
    /// Dense object key (`ObjectId.0`).
    pub object: u32,
    /// Version the transfer carries (or the cached copy holds).
    pub version: u64,
    /// Tick the transfer launched, [`NO_TICK`] if not (yet) launched.
    pub launch_tick: u64,
    /// Sim tick the transition happened at.
    pub tick: u64,
    /// Multiplicity: how many requests this transition covers (batched
    /// call sites pass n instead of looping).
    pub count: u32,
}

impl LifecycleEvent {
    /// A single-request event (`count == 1`).
    pub fn new(transition: Transition, object: u32, version: u64, tick: u64) -> Self {
        Self {
            transition,
            object,
            version,
            launch_tick: NO_TICK,
            tick,
            count: 1,
        }
    }

    /// Attach the launch tick correlating this event to its transfer.
    pub fn at_launch(mut self, launch_tick: u64) -> Self {
        self.launch_tick = launch_tick;
        self
    }

    /// Set the multiplicity for batched call sites.
    pub fn times(mut self, count: u32) -> Self {
        self.count = count;
        self
    }
}

/// One materialized transfer span: everything the recorder learned about
/// a `(object, version)` lifecycle between its first and last event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LifeSpan {
    /// Dense object key.
    pub object: u32,
    /// Version the span tracks.
    pub version: u64,
    /// Tick of the first event (the plan, say), [`NO_TICK`] if the span
    /// opened at launch.
    pub opened_tick: u64,
    /// Tick the transfer launched, [`NO_TICK`] if it never did.
    pub launch_tick: u64,
    /// Tick the payload arrived, [`NO_TICK`] while in flight.
    pub arrived_tick: u64,
    /// Tick of the most recent event on this span.
    pub last_tick: u64,
    /// Waiters that joined the in-flight transfer.
    pub joined: u32,
    /// Requests served off the copy (on arrival or later).
    pub served: u32,
    /// Whether the copy was observed stale (invalidated in flight).
    pub stale: bool,
    /// Whether the span was still open when exported/evicted — its end
    /// timestamp is the last event seen, not a real completion.
    pub open: bool,
    /// Monotone span sequence number (Perfetto async-event `id`).
    pub seq: u64,
}

impl LifeSpan {
    fn start(object: u32, version: u64, tick: u64, seq: u64) -> Self {
        Self {
            object,
            version,
            opened_tick: tick,
            launch_tick: NO_TICK,
            arrived_tick: NO_TICK,
            last_tick: tick,
            joined: 0,
            served: 0,
            stale: false,
            open: true,
            seq,
        }
    }

    /// First tick the span covers on the export timeline.
    fn begin_tick(&self) -> u64 {
        let mut t = self.last_tick;
        for cand in [self.opened_tick, self.launch_tick, self.arrived_tick] {
            if cand != NO_TICK {
                t = t.min(cand);
            }
        }
        t
    }
}

#[derive(Debug)]
struct State {
    /// Spans still accumulating events; linear scan keyed by
    /// `(object, version)` — bounded, tiny, cache-friendly.
    open: Vec<LifeSpan>,
    /// Closed spans, oldest first once wrapped.
    ring: Vec<LifeSpan>,
    head: usize,
    /// Closed spans overwritten after the ring filled.
    dropped: u64,
    /// Next span sequence number.
    seq: u64,
}

/// A bounded recorder of transfer lifecycle spans. All allocation
/// happens in [`LifecycleRecorder::new`]; recording is a linear probe
/// over the open table plus ring writes — no hashing, no heap.
///
/// Spans close when their transfer has arrived and the enclosing round
/// ends (so same-round `ServedFromWait` events still find them); a full
/// open table evicts its oldest span into the ring marked `open`.
#[derive(Debug)]
pub struct LifecycleRecorder {
    open_capacity: usize,
    ring_capacity: usize,
    state: RefCell<State>,
}

impl LifecycleRecorder {
    /// A recorder tracking at most `open_capacity` concurrently live
    /// spans (min 4) and retaining the last `ring_capacity` closed spans
    /// (min 16).
    pub fn new(open_capacity: usize, ring_capacity: usize) -> Self {
        let open_capacity = open_capacity.max(4);
        let ring_capacity = ring_capacity.max(16);
        Self {
            open_capacity,
            ring_capacity,
            state: RefCell::new(State {
                open: Vec::with_capacity(open_capacity),
                ring: Vec::with_capacity(ring_capacity),
                head: 0,
                dropped: 0,
                seq: 0,
            }),
        }
    }

    fn close_into_ring(
        ring: &mut Vec<LifeSpan>,
        head: &mut usize,
        dropped: &mut u64,
        capacity: usize,
        span: LifeSpan,
    ) {
        if ring.len() < capacity {
            ring.push(span);
            *head = ring.len() % capacity;
        } else {
            ring[*head] = span;
            *head = (*head + 1) % capacity;
            *dropped += 1;
        }
    }

    /// Closed spans overwritten after the ring filled.
    pub fn dropped(&self) -> u64 {
        self.state.borrow().dropped
    }

    /// Copy out every retained span: closed spans oldest-first, then the
    /// still-open ones. Allocates; call at report time.
    pub fn spans(&self) -> Vec<LifeSpan> {
        let st = self.state.borrow();
        let mut out = Vec::with_capacity(st.ring.len() + st.open.len());
        if st.ring.len() == self.ring_capacity {
            for i in 0..st.ring.len() {
                out.push(st.ring[(st.head + i) % self.ring_capacity]);
            }
        } else {
            out.extend_from_slice(&st.ring);
        }
        out.extend_from_slice(&st.open);
        out
    }

    /// Forget everything without deallocating the tables.
    pub fn reset(&self) {
        let mut st = self.state.borrow_mut();
        st.open.clear();
        st.ring.clear();
        st.head = 0;
        st.dropped = 0;
        st.seq = 0;
    }

    /// Render every retained span as Perfetto async duration events
    /// (`"ph": "b"` / `"e"`, correlated by `id`), with the drop counter
    /// exported as top-level metadata so downstream diffing can tell a
    /// complete span set from a truncated one.
    ///
    /// One sim tick renders as one synthetic millisecond (`ts` is in
    /// microseconds), so the layout is deterministic across runs. Spans
    /// still open at export time close at their last-seen tick with an
    /// `"open": true` argument — the JSON stays well-formed even when
    /// the ring overwrote their history.
    pub fn to_chrome_trace(&self) -> String {
        let spans = self.spans();
        let mut lines: Vec<String> = Vec::with_capacity(spans.len() * 2 + 1);
        lines.push(
            "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 100, \
             \"args\": {\"name\": \"transfer lifecycles\"}}"
                .to_string(),
        );
        for s in &spans {
            let name = format!("transfer obj#{} v{}", s.object, s.version);
            let begin_ts = s.begin_tick().saturating_mul(1_000);
            // A still-open span closes at its last event; the `"open"`
            // arg on the `e` event marks the end as provisional.
            let end_ts = s.last_tick.saturating_mul(1_000).max(begin_ts);
            let launch = if s.launch_tick == NO_TICK {
                "null".to_string()
            } else {
                s.launch_tick.to_string()
            };
            lines.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"transfer\", \"ph\": \"b\", \"id\": {}, \
                 \"ts\": {}, \"pid\": 1, \"tid\": 100, \
                 \"args\": {{\"launch_tick\": {}, \"joined\": {}, \"served\": {}, \
                 \"stale\": {}}}}}",
                name, s.seq, begin_ts, launch, s.joined, s.served, s.stale
            ));
            lines.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"transfer\", \"ph\": \"e\", \"id\": {}, \
                 \"ts\": {}, \"pid\": 1, \"tid\": 100, \"args\": {{\"open\": {}}}}}",
                name, s.seq, end_ts, s.open
            ));
        }
        let mut out = String::from("{\n\"displayTimeUnit\": \"ms\",\n");
        out.push_str(&format!("\"droppedSpans\": {},\n", self.dropped()));
        out.push_str("\"traceEvents\": [\n");
        out.push_str(&lines.join(",\n"));
        out.push_str("\n]\n}\n");
        out
    }
}

impl Recorder for LifecycleRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, _event: Event, _n: u64) {}

    #[inline]
    fn sample(&self, _sample: Sample, _value: f64) {}

    #[inline]
    fn span_ns(&self, _stage: Stage, _ns: u64) {}

    #[inline]
    fn attribute(&self, _attr: Attr, _key: u32, _weight: u64) {}

    fn lifecycle(&self, event: LifecycleEvent) {
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let pos = st
            .open
            .iter()
            .position(|s| s.object == event.object && s.version == event.version);
        let idx = match pos {
            Some(i) => i,
            None => {
                if st.open.len() == self.open_capacity {
                    // Evict the oldest open span into the ring, still
                    // marked open — bounded memory beats completeness.
                    let oldest = st
                        .open
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, s)| s.seq)
                        .map(|(i, _)| i)
                        .expect("open table non-empty");
                    let evicted = st.open.swap_remove(oldest);
                    Self::close_into_ring(
                        &mut st.ring,
                        &mut st.head,
                        &mut st.dropped,
                        self.ring_capacity,
                        evicted,
                    );
                }
                let seq = st.seq;
                st.seq += 1;
                let mut span = LifeSpan::start(event.object, event.version, event.tick, seq);
                if event.transition == Transition::Launched {
                    span.opened_tick = NO_TICK;
                }
                st.open.push(span);
                st.open.len() - 1
            }
        };
        let span = &mut st.open[idx];
        span.last_tick = span.last_tick.max(event.tick);
        if event.launch_tick != NO_TICK {
            span.launch_tick = event.launch_tick;
        }
        match event.transition {
            Transition::Planned => {}
            Transition::Launched => {
                span.launch_tick = event.tick;
            }
            Transition::Joined => {
                span.joined = span.joined.saturating_add(event.count);
            }
            Transition::Arrived => {
                span.arrived_tick = event.tick;
            }
            Transition::ServedFromWait | Transition::Served | Transition::ServedFromL2 => {
                span.served = span.served.saturating_add(event.count);
            }
            Transition::PromotedToL1 => {
                // A promotion lands the copy locally just like an origin
                // arrival — close the span at end of round.
                span.arrived_tick = event.tick;
            }
            Transition::InvalidatedStale | Transition::InvalidatedRemote => {
                span.stale = true;
            }
        }
    }

    fn end_round(&self, _tick: u64) {
        // Close every span whose transfer has arrived: same-round serve
        // events have been folded in by now, and keeping arrived spans
        // open would only let the table evict live in-flight ones.
        let mut st = self.state.borrow_mut();
        let st = &mut *st;
        let mut i = 0;
        while i < st.open.len() {
            if st.open[i].arrived_tick != NO_TICK {
                let mut done = st.open.swap_remove(i);
                done.open = false;
                Self::close_into_ring(
                    &mut st.ring,
                    &mut st.head,
                    &mut st.dropped,
                    self.ring_capacity,
                    done,
                );
            } else {
                i += 1;
            }
        }
    }

    fn snapshot(&self) -> Snapshot {
        let st = self.state.borrow();
        let counters = [
            ("lifecycle_spans_closed", st.ring.len() as u64 + st.dropped),
            ("lifecycle_spans_open", st.open.len() as u64),
            ("lifecycle_spans_dropped", st.dropped),
        ]
        .into_iter()
        .filter(|&(_, value)| value > 0)
        .map(|(name, value)| CounterSnapshot { name, value })
        .collect();
        Snapshot {
            counters,
            ..Snapshot::default()
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// Test-only views of the open table and the closed-span ring.
#[cfg(test)]
impl LifecycleRecorder {
    /// Spans currently open (live transfers / waiting requests).
    pub(crate) fn open_len(&self) -> usize {
        self.state.borrow().open.len()
    }

    /// Closed spans retained in the ring.
    pub(crate) fn closed_len(&self) -> usize {
        self.state.borrow().ring.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: Transition, object: u32, version: u64, tick: u64) -> LifecycleEvent {
        LifecycleEvent::new(t, object, version, tick)
    }

    #[test]
    fn a_full_lifecycle_closes_into_one_span() {
        let rec = LifecycleRecorder::new(8, 32);
        rec.lifecycle(ev(Transition::Planned, 3, 7, 10));
        rec.lifecycle(ev(Transition::Launched, 3, 7, 10));
        rec.lifecycle(ev(Transition::Joined, 3, 7, 11).times(2));
        rec.lifecycle(ev(Transition::Arrived, 3, 7, 13).at_launch(10));
        rec.lifecycle(ev(Transition::ServedFromWait, 3, 7, 13).times(3));
        rec.end_round(13);
        assert_eq!(rec.open_len(), 0);
        assert_eq!(rec.closed_len(), 1);
        let s = rec.spans()[0];
        assert_eq!((s.object, s.version), (3, 7));
        assert_eq!(s.opened_tick, 10);
        assert_eq!(s.launch_tick, 10);
        assert_eq!(s.arrived_tick, 13);
        assert_eq!(s.joined, 2);
        assert_eq!(s.served, 3);
        assert!(!s.open);
        assert!(!s.stale);
    }

    #[test]
    fn in_flight_spans_stay_open_across_rounds() {
        let rec = LifecycleRecorder::new(8, 32);
        rec.lifecycle(ev(Transition::Launched, 1, 1, 5));
        rec.end_round(5);
        rec.end_round(6);
        assert_eq!(rec.open_len(), 1);
        rec.lifecycle(ev(Transition::Arrived, 1, 1, 7));
        rec.end_round(7);
        assert_eq!(rec.open_len(), 0);
        let s = rec.spans()[0];
        assert_eq!(s.launch_tick, 5);
        assert_eq!(s.arrived_tick, 7);
    }

    #[test]
    fn stale_invalidation_marks_the_span() {
        let rec = LifecycleRecorder::new(8, 32);
        rec.lifecycle(ev(Transition::Launched, 2, 4, 0));
        rec.lifecycle(ev(Transition::InvalidatedStale, 2, 4, 2));
        rec.lifecycle(ev(Transition::Arrived, 2, 4, 3));
        rec.end_round(3);
        assert!(rec.spans()[0].stale);
    }

    #[test]
    fn open_table_overflow_evicts_oldest_into_ring_marked_open() {
        let rec = LifecycleRecorder::new(4, 32);
        for o in 0..5u32 {
            rec.lifecycle(ev(Transition::Launched, o, 1, u64::from(o)));
        }
        assert_eq!(rec.open_len(), 4);
        assert_eq!(rec.closed_len(), 1);
        let evicted = rec.spans()[0];
        assert_eq!(evicted.object, 0, "oldest span evicted first");
        assert!(evicted.open, "evicted span stays marked open");
    }

    #[test]
    fn ring_overwrite_keeps_exact_drop_counter_and_wellformed_json() {
        let rec = LifecycleRecorder::new(4, 16);
        // 40 complete lifecycles through a ring of 16: 24 dropped.
        for i in 0..40u32 {
            rec.lifecycle(ev(Transition::Launched, i, 1, u64::from(i)));
            rec.lifecycle(ev(Transition::Arrived, i, 1, u64::from(i) + 2));
            rec.end_round(u64::from(i) + 2);
        }
        // Plus still-open spans at export time.
        rec.lifecycle(ev(Transition::Launched, 100, 1, 50));
        rec.lifecycle(ev(Transition::Launched, 101, 1, 51));
        assert_eq!(rec.closed_len(), 16);
        assert_eq!(rec.dropped(), 24);
        assert_eq!(rec.open_len(), 2);
        let json = rec.to_chrome_trace();
        let doc = crate::json::parse(&json).expect("exported trace parses");
        assert_eq!(
            doc.get("droppedSpans").and_then(|v| v.as_f64()),
            Some(24.0),
            "drop counter exported as metadata"
        );
        let events = doc
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .expect("traceEvents array");
        // Metadata line + (16 closed + 2 open) b/e pairs.
        assert_eq!(events.len(), 1 + 18 * 2);
        // Every b has a matching e with the same id, and open spans are
        // flagged.
        let mut begins = 0;
        let mut ends = 0;
        let mut open_flagged = 0;
        for e in events {
            match e.get("ph").and_then(|p| p.as_str()) {
                Some("b") => {
                    begins += 1;
                    assert!(e.get("id").is_some());
                    assert!(e.get("ts").and_then(|t| t.as_f64()).is_some());
                }
                Some("e") => {
                    ends += 1;
                    if e.get("args").and_then(|a| a.get("open"))
                        == Some(&crate::json::Value::Bool(true))
                    {
                        open_flagged += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(begins, 18);
        assert_eq!(ends, 18);
        assert_eq!(open_flagged, 2);
    }

    #[test]
    fn spans_order_closed_oldest_first_after_wrap() {
        let rec = LifecycleRecorder::new(4, 16);
        for i in 0..20u32 {
            rec.lifecycle(ev(Transition::Launched, i, 1, u64::from(i)));
            rec.lifecycle(ev(Transition::Arrived, i, 1, u64::from(i)));
            rec.end_round(u64::from(i));
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 16);
        assert_eq!(spans[0].object, 4, "oldest retained after 4 drops");
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
    }

    #[test]
    fn reset_clears_everything() {
        let rec = LifecycleRecorder::new(4, 16);
        rec.lifecycle(ev(Transition::Launched, 1, 1, 0));
        rec.lifecycle(ev(Transition::Arrived, 1, 1, 1));
        rec.end_round(1);
        rec.reset();
        assert_eq!(rec.open_len(), 0);
        assert_eq!(rec.closed_len(), 0);
        assert_eq!(rec.dropped(), 0);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn snapshot_reports_span_accounting() {
        let rec = LifecycleRecorder::new(4, 16);
        rec.lifecycle(ev(Transition::Launched, 1, 1, 0));
        rec.lifecycle(ev(Transition::Arrived, 1, 1, 1));
        rec.end_round(1);
        rec.lifecycle(ev(Transition::Launched, 2, 1, 2));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("lifecycle_spans_closed"), Some(1));
        assert_eq!(snap.counter("lifecycle_spans_open"), Some(1));
        assert_eq!(
            snap.counter("lifecycle_spans_dropped"),
            None,
            "zero omitted"
        );
    }
}
