//! The benchmark's own [`Recorder`]: it receives the spans, samples and
//! counters the program already emits, keeps them in memory, and writes
//! the spans out as Chrome trace-event JSON when the run ends.
//!
//! The program hands a span over only when it closes, with its duration;
//! the recorder reads the clock once at that moment to place it on the
//! timeline. Parents are implied by the stage: `solve` runs inside
//! `plan`, everything else inside `step`.

use std::any::Any;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use basecache_obs::{Event, Recorder, Sample, Snapshot, Stage};

/// One closed span: which stage, of which cell's station, in which
/// round, when it ended (ns since the trace epoch) and how long it ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    pub stage: Stage,
    pub cell: u16,
    pub round: u64,
    pub end_ns: u64,
    pub dur_ns: u64,
}

/// Everything one traced pass recorded, shared by the recorders of all
/// the stations in it.
#[derive(Debug)]
pub struct TraceLog {
    epoch: Instant,
    pub spans: Vec<SpanRecord>,
    counters: [u64; Event::COUNT],
    sample_sum: [f64; Sample::COUNT],
    sample_count: [u64; Sample::COUNT],
    /// Solves that ended on a certificate (`SolverChosen` 0 or 3).
    pub certified_exits: u64,
}

impl Default for TraceLog {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            counters: [0; Event::COUNT],
            sample_sum: [0.0; Sample::COUNT],
            sample_count: [0; Sample::COUNT],
            certified_exits: 0,
        }
    }
}

impl TraceLog {
    /// Forget everything recorded so far (end of warm-up).
    pub fn reset(&mut self) {
        self.spans.clear();
        self.counters = [0; Event::COUNT];
        self.sample_sum = [0.0; Sample::COUNT];
        self.sample_count = [0; Sample::COUNT];
        self.certified_exits = 0;
    }

    pub fn counter(&self, event: Event) -> u64 {
        self.counters[event.index()]
    }

    /// Mean of the observations fed to `sample`, 0 when there were none.
    pub fn sample_mean(&self, sample: Sample) -> f64 {
        match self.sample_count[sample.index()] {
            0 => 0.0,
            n => self.sample_sum[sample.index()] / n as f64,
        }
    }

    pub fn sample_count(&self, sample: Sample) -> u64 {
        self.sample_count[sample.index()]
    }

    /// Durations of every recorded span of `stage`, in recording order.
    pub fn durations(&self, stage: Stage) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.dur_ns)
            .collect()
    }

    /// Write the first `limit` spans as Chrome trace-event JSON: one
    /// process per cell, complete (`"X"`) events carrying the round and
    /// the parent stage.
    pub fn write_chrome_trace(&self, out: &mut impl Write, limit: usize) -> io::Result<()> {
        let spans = &self.spans[..limit.min(self.spans.len())];
        writeln!(out, "{{\n\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [")?;
        let mut cells: Vec<u16> = spans.iter().map(|s| s.cell).collect();
        cells.sort_unstable();
        cells.dedup();
        let mut first = true;
        for cell in cells {
            separate(out, &mut first)?;
            write!(
                out,
                "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {}, \
                 \"args\": {{\"name\": \"cell {cell}\"}}}}",
                cell + 1
            )?;
        }
        for s in spans {
            separate(out, &mut first)?;
            let start = s.end_ns.saturating_sub(s.dur_ns);
            write!(
                out,
                "{{\"name\": \"{}\", \"ph\": \"X\", \"ts\": {}, \"dur\": {}, \"pid\": {}, \
                 \"tid\": 1, \"args\": {{\"round\": {}, \"parent\": \"{}\"}}}}",
                s.stage.name(),
                micros(start),
                micros(s.dur_ns),
                s.cell + 1,
                s.round,
                parent_of(s.stage)
            )?;
        }
        writeln!(out, "\n]\n}}")
    }
}

/// Write the comma between two array elements (nothing before the first).
fn separate(out: &mut impl Write, first: &mut bool) -> io::Result<()> {
    if std::mem::take(first) {
        Ok(())
    } else {
        out.write_all(b",\n")
    }
}

/// The stage a span of `stage` is nested in (`""` for the root).
pub fn parent_of(stage: Stage) -> &'static str {
    match stage {
        Stage::Step => "",
        Stage::Solve => Stage::Plan.name(),
        _ => Stage::Step.name(),
    }
}

/// Nanoseconds as the microsecond decimal Chrome trace events use.
fn micros(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// A handle on a [`TraceLog`], tagged with the cell whose station it is
/// installed in. `enabled()` is true, so the program takes its observed
/// path exactly as it would under any live recorder.
#[derive(Debug)]
pub struct BenchRecorder {
    cell: u16,
    /// The station's current round, from `begin_round`.
    round: AtomicU64,
    log: Arc<Mutex<TraceLog>>,
}

impl BenchRecorder {
    pub fn new(cell: u16, log: Arc<Mutex<TraceLog>>) -> Self {
        Self {
            cell,
            round: AtomicU64::new(0),
            log,
        }
    }

    fn log(&self) -> std::sync::MutexGuard<'_, TraceLog> {
        self.log.lock().expect("the benchmark is single-threaded")
    }
}

impl Recorder for BenchRecorder {
    fn enabled(&self) -> bool {
        true
    }

    fn add(&self, event: Event, n: u64) {
        let mut log = self.log();
        let slot = &mut log.counters[event.index()];
        *slot = slot.saturating_add(n);
    }

    fn sample(&self, sample: Sample, value: f64) {
        if !value.is_finite() {
            return;
        }
        let mut log = self.log();
        log.sample_sum[sample.index()] += value;
        log.sample_count[sample.index()] += 1;
        if sample == Sample::SolverChosen && (value == 0.0 || value == 3.0) {
            log.certified_exits += 1;
        }
    }

    fn span_ns(&self, stage: Stage, ns: u64) {
        let round = self.round.load(Relaxed);
        let mut log = self.log();
        let end_ns = u64::try_from(log.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX);
        log.spans.push(SpanRecord {
            stage,
            cell: self.cell,
            round,
            end_ns,
            dur_ns: ns,
        });
    }

    fn begin_round(&self, tick: u64) {
        self.round.store(tick, Relaxed);
    }

    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_obs::json::{parse, Value};
    use basecache_obs::Span;

    #[test]
    fn spans_carry_round_cell_and_parent_and_export_as_trace_events() {
        let log = Arc::new(Mutex::new(TraceLog::default()));
        let rec = BenchRecorder::new(2, Arc::clone(&log));
        rec.begin_round(41);
        {
            let _step = Span::enter(&rec, Stage::Step);
            let _plan = Span::enter(&rec, Stage::Plan);
            rec.span_ns(Stage::Solve, 1_500);
        }
        rec.add(Event::KnapsackItems, 7);
        rec.sample(Sample::SolverChosen, 3.0);
        rec.sample(Sample::SolverChosen, 2.0);
        rec.sample(Sample::CoreSize, f64::NAN);

        let log = log.lock().unwrap();
        let stages: Vec<Stage> = log.spans.iter().map(|s| s.stage).collect();
        assert_eq!(stages, [Stage::Solve, Stage::Plan, Stage::Step]);
        assert!(log.spans.iter().all(|s| s.round == 41 && s.cell == 2));
        assert_eq!(log.durations(Stage::Solve), [1_500]);
        assert_eq!(log.counter(Event::KnapsackItems), 7);
        assert_eq!(log.certified_exits, 1);
        assert_eq!(log.sample_mean(Sample::SolverChosen), 2.5);
        assert_eq!(log.sample_count(Sample::CoreSize), 0);

        let mut text = Vec::new();
        log.write_chrome_trace(&mut text, usize::MAX).unwrap();
        let root = parse(std::str::from_utf8(&text).unwrap()).expect("valid JSON");
        let events = root.get("traceEvents").and_then(Value::as_array).unwrap();
        assert_eq!(events.len(), 4, "one process name + three spans");
        let solve = events[1].as_object().unwrap();
        assert_eq!(solve.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(solve.get("name").and_then(Value::as_str), Some("solve"));
        assert_eq!(solve.get("dur").and_then(Value::as_f64), Some(1.5));
        assert_eq!(solve.get("pid").and_then(Value::as_f64), Some(3.0));
        let args = solve.get("args").and_then(Value::as_object).unwrap();
        assert_eq!(args.get("round").and_then(Value::as_f64), Some(41.0));
        assert_eq!(args.get("parent").and_then(Value::as_str), Some("plan"));
    }

    #[test]
    fn reset_forgets_warm_up() {
        let log = Arc::new(Mutex::new(TraceLog::default()));
        let rec = BenchRecorder::new(0, Arc::clone(&log));
        rec.span_ns(Stage::Step, 10);
        rec.add(Event::Rounds, 1);
        rec.sample(Sample::CoreSize, 4.0);
        let mut log = log.lock().unwrap();
        log.reset();
        assert!(log.spans.is_empty());
        assert_eq!(log.counter(Event::Rounds), 0);
        assert_eq!(log.sample_mean(Sample::CoreSize), 0.0);
    }
}
