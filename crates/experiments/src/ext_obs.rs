//! Extension experiment — causal observability profile of a
//! representative run.
//!
//! Drives the paper's on-demand DP policy with the full
//! [`CausalRecorder`] — aggregate stats, a bounded event trace, a
//! decimated per-round time series, top-K attribution, *and* the causal
//! layer: transfer-lifecycle spans, age-of-information telemetry and
//! the online invariant monitor — and reports where the round actually
//! goes: per-stage wall-clock (recency fill, planning, the DP solve,
//! cache refresh, serving), knapsack shape (items, capacity, DP cells
//! touched), delivered-quality distributions, *which* objects
//! dominated the downlink, and how stale the copies clients read were.
//! Under `--csv` the harness additionally writes the point-event
//! trace as Chrome-trace-event JSON (`ext_obs_trace.json`), the
//! lifecycle spans as Perfetto async events
//! (`ext_obs_lifecycle.json`), the round series and AoI trajectory as
//! CSV (`ext_obs_series.csv`, `ext_obs_aoi.csv`) and the attribution
//! channels with their Space-Saving error bounds (`ext_obs_topk.csv`).
//! The companion parity and allocation tests in `basecache-core` prove
//! the instrumentation itself is free; this module is the read-out
//! side. It is the one target that is not a figure: one profiled run's
//! report and seven exports, no swept axis and no labelled curves, so
//! it renders and exports itself behind its registry row.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::Policy;
use basecache_obs::{export, Attr, CausalConfig, CausalRecorder, Snapshot, TopEntry};
use basecache_workload::Popularity;

use crate::runner::{record_trace, run_station, RunConfig, RunResult};

/// Parameters of the profiled run.
#[derive(Debug, Clone)]
pub struct Params {
    /// The run to profile.
    pub config: RunConfig,
    /// Per-tick download budget (data units).
    pub budget: u64,
}

impl Params {
    /// Full-fidelity setup: the Figure 3 scale.
    pub fn paper() -> Self {
        Self {
            config: RunConfig {
                objects: 500,
                requests_per_tick: 100,
                update_period: 5,
                warmup_ticks: 50,
                measure_ticks: 200,
                popularity: Popularity::ZIPF1,
                seed: 77,
            },
            budget: 20,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        let mut p = Self::paper();
        p.config.objects = 100;
        p.config.requests_per_tick = 25;
        p.config.warmup_ticks = 10;
        p.config.measure_ticks = 60;
        Self { budget: 10, ..p }
    }
}

/// Everything the flight recorder captured over the profiled run,
/// already materialized (the recorder itself dies with the station).
#[derive(Debug, Clone)]
pub struct Profile {
    /// Headline statistics of the run (measured phase).
    pub result: RunResult,
    /// Aggregate counters / distributions / span timings.
    pub snapshot: Snapshot,
    /// The bounded event trace as Chrome-trace-event JSON.
    pub trace_json: String,
    /// Trace entries that fell off the ring (0 = full history kept).
    pub trace_dropped: u64,
    /// The per-round time series as CSV.
    pub series_csv: String,
    /// Retained series rows and the decimation stride they sit at.
    pub series_rows: usize,
    /// Current decimation stride (1 = every round retained).
    pub series_stride: u64,
    /// Rounds the series observed (before decimation).
    pub rounds_seen: u64,
    /// Heaviest downlink consumers by object (units, descending).
    pub top_objects: Vec<TopEntry>,
    /// Objects served stalest (weight = thousandths of lost recency).
    pub top_stale: Vec<TopEntry>,
    /// Every attribution channel as CSV, with Space-Saving error bounds.
    pub topk_csv: String,
    /// Transfer-lifecycle spans as Perfetto async-event JSON.
    pub lifecycle_json: String,
    /// Lifecycle spans captured (open + closed).
    pub lifecycle_spans: usize,
    /// Spans still open when the run ended.
    pub lifecycle_open: usize,
    /// Closed spans the lifecycle ring overwrote (0 = full history).
    pub lifecycle_dropped: u64,
    /// Age-of-information trajectory as CSV (decimating per-round rows).
    pub aoi_csv: String,
    /// Worst age observed at any serve, ticks.
    pub peak_aoi: u64,
    /// Objects accumulating the most age×serves (worst-AoI top-K).
    pub top_aoi: Vec<TopEntry>,
    /// Total invariant violations the online monitor flagged (0 on a
    /// correct run).
    pub monitor_violations: u64,
    /// The violation counters that fired, `(name, count)`.
    pub monitor_counters: Vec<(&'static str, u64)>,
}

/// Trace ring capacity for the profiled run. Big enough to hold every
/// event of the quick config; the paper config overflows it, which the
/// report calls out via `trace_dropped` (bounded memory is the point).
const TRACE_CAPACITY: usize = 8192;
/// Round-series row budget (decimation doubles the stride as needed).
const SERIES_CAPACITY: usize = 256;
/// Entities tracked per attribution channel.
const TOP_K: usize = 8;

/// Concurrently open lifecycle spans tracked before the oldest is
/// force-closed into the ring.
const OPEN_SPANS: usize = 512;
/// Closed lifecycle spans retained (ring, overwriting oldest).
const CLOSED_SPANS: usize = 4096;

/// Run the profiled simulation with the full causal recorder wired into
/// the station, and materialize everything it captured.
pub fn run(params: &Params) -> Profile {
    let config = &params.config;
    let recorder = CausalRecorder::new(CausalConfig {
        trace_capacity: TRACE_CAPACITY,
        series_capacity: SERIES_CAPACITY,
        top_k: TOP_K,
        open_spans: OPEN_SPANS,
        closed_spans: CLOSED_SPANS,
        num_objects: config.objects,
        budget_units: Some(params.budget),
        allow_duplicate_flights: false,
    });
    let policy = Policy::OnDemand {
        planner: OnDemandPlanner::paper_default(),
        budget_units: params.budget,
    };
    let station = run_station(config, policy, &record_trace(config), Box::new(recorder));
    let snapshot = station.obs_snapshot();
    let result = RunResult::of(&station);
    let causal = station
        .recorder()
        .as_any()
        .downcast_ref::<CausalRecorder>()
        .expect("station was built with a CausalRecorder");
    let flight = causal.flight();
    let spans = causal.lifecycle_spans().spans();
    let monitor = causal.monitor();
    let monitor_counters: Vec<(&'static str, u64)> = basecache_obs::MONITOR_EVENTS
        .iter()
        .filter_map(|&e| {
            let count = monitor.count(e);
            (count > 0).then_some((e.name(), count))
        })
        .collect();
    Profile {
        result,
        snapshot,
        trace_json: flight.trace().to_chrome_trace(),
        trace_dropped: flight.trace().dropped(),
        series_csv: flight.series().to_csv(),
        series_rows: flight.series().len(),
        series_stride: flight.series().stride(),
        rounds_seen: flight.series().rounds_seen(),
        top_objects: flight.topk().top(Attr::DownlinkUnitsByObject),
        top_stale: flight.topk().top(Attr::ServeStalenessByObject),
        topk_csv: flight.topk().to_csv(),
        lifecycle_json: causal.lifecycle_spans().to_chrome_trace(),
        lifecycle_spans: spans.len(),
        lifecycle_open: spans.iter().filter(|s| s.open).count(),
        lifecycle_dropped: causal.lifecycle_spans().dropped(),
        aoi_csv: causal.aoi().to_csv(),
        peak_aoi: causal.aoi().peak_aoi(),
        top_aoi: causal.aoi().top(),
        monitor_violations: monitor.total_violations(),
        monitor_counters,
    }
}

impl Profile {
    /// The files `--csv` writes: the aggregate snapshot, both Perfetto
    /// traces, the round series, the AoI trajectory and the attribution
    /// channels (inspect with `basecache-trace waits|aoi|report`).
    pub fn exports(&self) -> Vec<(&'static str, String)> {
        vec![
            ("ext_obs.csv", export::to_csv(&self.snapshot)),
            ("ext_obs.json", export::to_json(&self.snapshot)),
            ("ext_obs_trace.json", self.trace_json.clone()),
            ("ext_obs_series.csv", self.series_csv.clone()),
            ("ext_obs_lifecycle.json", self.lifecycle_json.clone()),
            ("ext_obs_aoi.csv", self.aoi_csv.clone()),
            ("ext_obs_topk.csv", self.topk_csv.clone()),
        ]
    }
}

fn write_top(out: &mut String, title: &str, unit: &str, entries: &[TopEntry], prefix: &str) {
    use std::fmt::Write as _;
    if entries.is_empty() {
        return;
    }
    let _ = writeln!(out, "{title}:");
    let _ = writeln!(out, "  {:<12}{:>14}{:>10}", "who", unit, "±err");
    for e in entries {
        let _ = writeln!(
            out,
            "  {:<12}{:>14}{:>10}",
            format!("{prefix}#{}", e.key),
            e.weight,
            e.error
        );
    }
}

/// Render the profile as an aligned text report.
pub fn to_table(profile: &Profile) -> String {
    use std::fmt::Write as _;
    let result = &profile.result;
    let snapshot = &profile.snapshot;
    let mut out = String::new();
    let _ = writeln!(out, "== Observability profile (on-demand DP) ==");
    let _ = writeln!(
        out,
        "   mean score {:.4}, {} units downloaded, {} requests served",
        result.mean_score.unwrap_or(f64::NAN),
        result.units_downloaded,
        result.requests_served
    );
    let _ = writeln!(out, "counters:");
    for c in &snapshot.counters {
        let _ = writeln!(out, "  {:<24}{:>14}", c.name, c.value);
    }
    let _ = writeln!(out, "samples:");
    let _ = writeln!(
        out,
        "  {:<24}{:>10}{:>12}{:>12}{:>12}",
        "name", "count", "mean", "p95", "max"
    );
    for s in &snapshot.samples {
        let _ = writeln!(
            out,
            "  {:<24}{:>10}{:>12.3}{:>12.3}{:>12.3}",
            s.name, s.count, s.mean, s.p95, s.max
        );
    }
    let _ = writeln!(out, "spans (wall clock):");
    let _ = writeln!(
        out,
        "  {:<24}{:>10}{:>12}{:>12}",
        "stage", "count", "mean_us", "p95_us"
    );
    for s in &snapshot.spans {
        let _ = writeln!(
            out,
            "  {:<24}{:>10}{:>12.2}{:>12.2}",
            s.name,
            s.count,
            s.mean_ns / 1_000.0,
            s.p95_ns / 1_000.0
        );
    }
    write_top(
        &mut out,
        "top downlink consumers (objects, data units)",
        "units",
        &profile.top_objects,
        "obj",
    );
    write_top(
        &mut out,
        "stalest served objects (milli-recency lost)",
        "m-recency",
        &profile.top_stale,
        "obj",
    );
    write_top(
        &mut out,
        "worst age-of-information (age x serves, ticks)",
        "age-ticks",
        &profile.top_aoi,
        "obj",
    );
    let _ = writeln!(
        out,
        "round series: {} rows retained of {} rounds (stride {})",
        profile.series_rows, profile.rounds_seen, profile.series_stride
    );
    let _ = writeln!(
        out,
        "trace ring: {} entries dropped{}",
        profile.trace_dropped,
        if profile.trace_dropped == 0 {
            " (full history)"
        } else {
            " (bounded memory: oldest rounds evicted)"
        }
    );
    let _ = writeln!(
        out,
        "lifecycle spans: {} captured ({} still open, {} dropped), peak AoI {} ticks",
        profile.lifecycle_spans,
        profile.lifecycle_open,
        profile.lifecycle_dropped,
        profile.peak_aoi
    );
    if profile.monitor_violations == 0 {
        let _ = writeln!(out, "invariant monitor: clean (0 violations)");
    } else {
        let _ = writeln!(
            out,
            "invariant monitor: {} VIOLATION(S)",
            profile.monitor_violations
        );
        for (name, count) in &profile.monitor_counters {
            let _ = writeln!(out, "  {name:<32}{count:>6}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Params {
        let mut p = Params::quick();
        p.config.warmup_ticks = 2;
        p.config.measure_ticks = 10;
        p
    }

    #[test]
    fn profile_covers_the_whole_request_path() {
        let profile = run(&tiny());
        assert!(profile.result.requests_served > 0);
        assert_eq!(profile.snapshot.counter("rounds"), Some(12));
        // The adaptive solve path usually certifies optimality without
        // filling a DP table, so `dp_cells_touched` may legitimately be
        // zero (and zero counters are elided from the snapshot); the
        // reduction statistics take its place as the solve's footprint.
        assert!(profile.snapshot.counter("knapsack_items").unwrap_or(0) > 0);
        assert!(profile.snapshot.sample("solver_chosen").is_some());
        assert!(profile.snapshot.sample("items_fixed").is_some());
        assert!(profile.snapshot.sample("core_size").is_some());
        for stage in ["step", "recency", "plan", "solve", "refresh", "serve"] {
            assert!(
                profile.snapshot.span(stage).is_some(),
                "missing span {stage}"
            );
        }
        let table = to_table(&profile);
        assert!(table.contains("solver_chosen"));
        assert!(table.contains("solve"));
    }

    #[test]
    fn flight_recorder_side_channels_are_populated() {
        let profile = run(&tiny());
        // The trace validates as Chrome-trace-event JSON and kept
        // everything (tiny run ≪ ring capacity).
        assert_eq!(profile.trace_dropped, 0);
        let parsed = basecache_obs::json::parse(&profile.trace_json).expect("valid trace JSON");
        assert!(parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some());
        // One series row per round, stride still 1 — and the export
        // leads with the decimation metadata comment.
        assert_eq!(profile.rounds_seen, 12);
        assert_eq!(profile.series_rows, 12);
        assert_eq!(profile.series_stride, 1);
        assert!(
            profile
                .series_csv
                .starts_with("# decimation_stride=1 rounds_seen=12"),
            "{}",
            profile.series_csv.lines().next().unwrap_or_default()
        );
        assert_eq!(
            profile.series_csv.lines().count(),
            14,
            "metadata + header + 12 rows"
        );
        // Attribution saw the downlink (Zipf demand downloads something
        // every round) and the report names the heavy hitters.
        assert!(!profile.top_objects.is_empty());
        let table = to_table(&profile);
        assert!(table.contains("top downlink consumers"), "{table}");
        assert!(table.contains("round series:"), "{table}");
    }

    #[test]
    fn causal_channels_are_populated_and_monitor_is_clean() {
        let profile = run(&tiny());
        // Lifecycle spans were captured and export as parseable
        // async-event JSON with the drop counter in the envelope.
        assert!(profile.lifecycle_spans > 0);
        assert_eq!(profile.lifecycle_dropped, 0, "tiny run fits the ring");
        let parsed =
            basecache_obs::json::parse(&profile.lifecycle_json).expect("valid lifecycle JSON");
        assert!(parsed.get("droppedSpans").is_some());
        assert!(parsed
            .get("traceEvents")
            .and_then(|v| v.as_array())
            .is_some_and(|evs| !evs.is_empty()));
        // The AoI trajectory exported with its decimation metadata, and
        // the update waves guarantee nonzero ages at serve time.
        assert!(profile.aoi_csv.starts_with("# decimation_stride="));
        assert!(profile.peak_aoi > 0, "waves make some serves aged");
        assert!(!profile.top_aoi.is_empty());
        // The attribution CSV carries the Space-Saving error column.
        assert!(profile.topk_csv.starts_with("channel,label,weight,error"));
        // A correct run trips zero invariants.
        assert_eq!(profile.monitor_violations, 0);
        assert!(profile.monitor_counters.is_empty());
        let table = to_table(&profile);
        assert!(table.contains("invariant monitor: clean"), "{table}");
        assert!(table.contains("lifecycle spans:"), "{table}");
    }

    #[test]
    fn top_objects_are_sorted_heaviest_first() {
        let profile = run(&tiny());
        let weights: Vec<u64> = profile.top_objects.iter().map(|e| e.weight).collect();
        let mut sorted = weights.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(weights, sorted);
    }
}
