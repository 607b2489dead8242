//! [`RoundSeries`]: a fixed-capacity per-round time series.
//!
//! Aggregate sinks answer "what happened on average"; the series answers
//! "what happened in round 4817". Each round contributes one row keyed
//! by **sim time** (the station tick — never wall-clock, so instrumented
//! runs stay deterministic), holding the round's batch size, mean score,
//! cache-hit ratio, downlink utilization, units fetched, and knapsack
//! profit realized vs. its bound.
//!
//! Storage is bounded: the row buffer is preallocated once and never
//! grows. When it fills, the series *decimates* — it drops every other
//! row in place and doubles its sampling stride — so a million-round run
//! ends with at most `capacity` rows spaced evenly across the whole run.
//! Decimation is purely index-arithmetic: deterministic and
//! allocation-free, preserving the steady-state guarantees of the
//! recorder seam.

use std::cell::RefCell;

use crate::ids::{Event, Sample, Stage};
use crate::recorder::Recorder;
use crate::snapshot::Snapshot;

/// One scheduling round's observables. Missing values (a policy that
/// never samples downlink utilization, say) stay `NaN` and export as
/// empty CSV fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundRow {
    /// Sim time (station tick) at which the round began.
    pub tick: u64,
    /// Requests in the round's batch.
    pub batch_size: f64,
    /// Mean client score delivered by the round.
    pub mean_score: f64,
    /// Fraction of requests served without a same-round download.
    pub hit_ratio: f64,
    /// Share of the round's download budget spent, in `[0, 1]`.
    pub downlink_util: f64,
    /// Data units downloaded from remote servers this round.
    pub units_fetched: u64,
    /// Knapsack value realized by the round's plan.
    pub plan_profit: f64,
    /// Upper bound on the round's achievable knapsack value.
    pub profit_bound: f64,
}

impl RoundRow {
    fn empty(tick: u64) -> Self {
        Self {
            tick,
            batch_size: f64::NAN,
            mean_score: f64::NAN,
            hit_ratio: f64::NAN,
            downlink_util: f64::NAN,
            units_fetched: 0,
            plan_profit: f64::NAN,
            profit_bound: f64::NAN,
        }
    }
}

#[derive(Debug)]
struct State {
    rows: Vec<RoundRow>,
    stride: u64,
    rounds_seen: u64,
    in_round: bool,
    cur: RoundRow,
}

/// A bounded, decimating per-round time series behind the [`Recorder`]
/// seam. Compose it with other sinks via [`crate::Tee`]; recover it from
/// a `Box<dyn Recorder>` with [`Recorder::as_any`].
#[derive(Debug)]
pub struct RoundSeries {
    capacity: usize,
    state: RefCell<State>,
}

impl RoundSeries {
    /// A series that keeps at most `capacity` rows (min 2). All
    /// allocation happens here; recording never touches the heap.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Self {
            capacity,
            state: RefCell::new(State {
                rows: Vec::with_capacity(capacity),
                stride: 1,
                rounds_seen: 0,
                in_round: false,
                cur: RoundRow::empty(0),
            }),
        }
    }

    /// Number of retained rows.
    pub fn len(&self) -> usize {
        self.state.borrow().rows.len()
    }

    /// Whether no round has been retained yet.
    /// (The `len` companion clippy's `len_without_is_empty` asks for.)
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current sampling stride: a row is kept every `stride` rounds.
    /// Starts at 1 and doubles on each decimation.
    pub fn stride(&self) -> u64 {
        self.state.borrow().stride
    }

    /// Total rounds observed (retained or not).
    pub fn rounds_seen(&self) -> u64 {
        self.state.borrow().rounds_seen
    }

    /// Copy out the retained rows, oldest first. Allocates; call at
    /// report time.
    pub fn rows(&self) -> Vec<RoundRow> {
        self.state.borrow().rows.clone()
    }

    /// Forget everything (e.g. at the end of a warm-up phase) without
    /// deallocating the row buffer.
    pub fn reset(&self) {
        let mut st = self.state.borrow_mut();
        st.rows.clear();
        st.stride = 1;
        st.rounds_seen = 0;
        st.in_round = false;
    }

    /// Render the retained rows as CSV. `NaN` fields export empty.
    ///
    /// The first line is a `#` metadata comment carrying the decimation
    /// stride and true round count, so a downstream diff can tell
    /// full-resolution data (stride 1) from decimated comparisons.
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = {
            let st = self.state.borrow();
            format!(
                "# decimation_stride={} rounds_seen={}\n",
                st.stride, st.rounds_seen
            )
        };
        out.push_str(
            "tick,batch_size,mean_score,hit_ratio,downlink_util,units_fetched,\
             plan_profit,profit_bound\n",
        );
        let fmt = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                String::new()
            }
        };
        for r in self.state.borrow().rows.iter() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                r.tick,
                fmt(r.batch_size),
                fmt(r.mean_score),
                fmt(r.hit_ratio),
                fmt(r.downlink_util),
                r.units_fetched,
                fmt(r.plan_profit),
                fmt(r.profit_bound),
            );
        }
        out
    }
}

impl Recorder for RoundSeries {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, event: Event, n: u64) {
        if event == Event::UnitsDownloaded {
            let mut st = self.state.borrow_mut();
            if st.in_round {
                st.cur.units_fetched = st.cur.units_fetched.saturating_add(n);
            }
        }
    }

    #[inline]
    fn sample(&self, sample: Sample, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut st = self.state.borrow_mut();
        if !st.in_round {
            return;
        }
        match sample {
            Sample::BatchSize => st.cur.batch_size = value,
            Sample::AverageScore => st.cur.mean_score = value,
            Sample::CacheHitRatio => st.cur.hit_ratio = value,
            Sample::DownlinkUtilization => st.cur.downlink_util = value,
            Sample::PlanProfit => st.cur.plan_profit = value,
            Sample::PlanProfitBound => st.cur.profit_bound = value,
            _ => {}
        }
    }

    #[inline]
    fn span_ns(&self, _stage: Stage, _ns: u64) {}

    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }

    #[inline]
    fn begin_round(&self, tick: u64) {
        let mut st = self.state.borrow_mut();
        st.cur = RoundRow::empty(tick);
        st.in_round = true;
    }

    fn end_round(&self, _tick: u64) {
        let mut st = self.state.borrow_mut();
        if !st.in_round {
            return;
        }
        st.in_round = false;
        let idx = st.rounds_seen;
        st.rounds_seen += 1;
        if !idx.is_multiple_of(st.stride) {
            return;
        }
        if st.rows.len() == self.capacity {
            // Decimate in place: retained rows sit at indices k·stride,
            // so keeping even k leaves rows at k·(2·stride) — exactly
            // the rows the doubled stride would have kept.
            let len = st.rows.len();
            let mut w = 0;
            let mut r = 0;
            while r < len {
                st.rows[w] = st.rows[r];
                w += 1;
                r += 2;
            }
            st.rows.truncate(w);
            st.stride *= 2;
            if !idx.is_multiple_of(st.stride) {
                return;
            }
        }
        let row = st.cur;
        st.rows.push(row);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_rounds(series: &RoundSeries, n: u64) {
        for t in 0..n {
            series.begin_round(t);
            series.sample(Sample::BatchSize, t as f64);
            series.add(Event::UnitsDownloaded, 10);
            series.end_round(t);
        }
    }

    #[test]
    fn rows_carry_round_observables() {
        let series = RoundSeries::with_capacity(8);
        series.begin_round(42);
        series.sample(Sample::BatchSize, 60.0);
        series.sample(Sample::AverageScore, 0.8);
        series.sample(Sample::CacheHitRatio, 0.25);
        series.sample(Sample::DownlinkUtilization, 0.9);
        series.sample(Sample::PlanProfit, 31.5);
        series.sample(Sample::PlanProfitBound, 44.0);
        series.add(Event::UnitsDownloaded, 36);
        series.add(Event::UnitsDownloaded, 4);
        series.end_round(42);

        let rows = series.rows();
        assert_eq!(rows.len(), 1);
        let r = rows[0];
        assert_eq!(r.tick, 42);
        assert_eq!(r.batch_size, 60.0);
        assert_eq!(r.mean_score, 0.8);
        assert_eq!(r.hit_ratio, 0.25);
        assert_eq!(r.downlink_util, 0.9);
        assert_eq!(r.units_fetched, 40);
        assert_eq!(r.plan_profit, 31.5);
        assert_eq!(r.profit_bound, 44.0);
    }

    #[test]
    fn recording_outside_a_round_is_ignored() {
        let series = RoundSeries::with_capacity(4);
        series.sample(Sample::BatchSize, 99.0);
        series.add(Event::UnitsDownloaded, 7);
        series.end_round(0);
        assert!(series.is_empty());
        assert_eq!(series.rounds_seen(), 0);
    }

    #[test]
    fn decimation_doubles_stride_and_stays_bounded() {
        let series = RoundSeries::with_capacity(8);
        run_rounds(&series, 100);
        assert_eq!(series.rounds_seen(), 100);
        assert!(series.len() <= 8, "len {} exceeds capacity", series.len());
        // 100 rounds into ≤8 slots needs stride 16: 0,16,32,...,96.
        assert_eq!(series.stride(), 16);
        let ticks: Vec<u64> = series.rows().iter().map(|r| r.tick).collect();
        assert_eq!(ticks, vec![0, 16, 32, 48, 64, 80, 96]);
    }

    #[test]
    fn retained_rows_are_evenly_spaced_after_many_rounds() {
        let series = RoundSeries::with_capacity(16);
        run_rounds(&series, 10_000);
        let rows = series.rows();
        assert!(rows.len() <= 16);
        let stride = series.stride();
        for (i, r) in rows.iter().enumerate() {
            assert_eq!(r.tick, i as u64 * stride, "row {i} off-stride");
        }
    }

    #[test]
    fn without_overflow_every_round_is_kept() {
        let series = RoundSeries::with_capacity(64);
        run_rounds(&series, 50);
        assert_eq!(series.len(), 50);
        assert_eq!(series.stride(), 1);
    }

    #[test]
    fn csv_exports_header_and_empty_fields_for_nan() {
        let series = RoundSeries::with_capacity(4);
        series.begin_round(7);
        series.sample(Sample::BatchSize, 3.0);
        series.end_round(7);
        let csv = series.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0], "# decimation_stride=1 rounds_seen=1",
            "metadata comment first"
        );
        assert_eq!(
            lines[1],
            "tick,batch_size,mean_score,hit_ratio,downlink_util,units_fetched,\
             plan_profit,profit_bound"
        );
        // Unset observables render empty, not "NaN".
        assert_eq!(lines[2], "7,3,,,,0,,");
    }

    #[test]
    fn reset_clears_rows_and_stride() {
        let series = RoundSeries::with_capacity(4);
        run_rounds(&series, 40);
        assert!(series.stride() > 1);
        series.reset();
        assert!(series.is_empty());
        assert_eq!(series.stride(), 1);
        assert_eq!(series.rounds_seen(), 0);
    }
}
