//! Offline tooling for the flight recorder: trace-file validation and
//! summaries, plus a benchmark regression gate.
//!
//! Three jobs, shared by the `basecache-trace` binary and by
//! `scripts/check.sh`:
//!
//! 1. [`validate_trace`] — check that an exported trace is well-formed
//!    Chrome trace-event JSON (the format Perfetto and `chrome://tracing`
//!    load), not just syntactically valid JSON.
//! 2. [`summarize_trace`] — per-stage span totals and counter tallies,
//!    for a quick look without opening a trace viewer.
//! 3. [`diff_benches`] — compare two `BENCH_planner.json` files result by
//!    result with a noise threshold, so CI can fail on a real regression
//!    without flapping on timer jitter.
//! 4. [`summarize_waits`] / [`summarize_aoi`] / [`rollup_report`] —
//!    decompose lifecycle traces into queueing vs on-wire wait time,
//!    summarize age-of-information CSV series, and roll both into one
//!    report.
//!
//! Everything parses through [`basecache_obs::json`] — no external
//! dependencies, same as the rest of the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::fmt;

use basecache_obs::json::{parse, Value};

/// Counts extracted from a validated trace file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Total events in `traceEvents`.
    pub events: usize,
    /// Complete ("X") span events.
    pub spans: usize,
    /// Counter ("C") events.
    pub counters: usize,
    /// Instant ("i") events (round markers).
    pub instants: usize,
    /// Metadata ("M") events (thread names).
    pub metadata: usize,
    /// Async duration events ("b"/"e" pairs — transfer lifecycles).
    pub async_events: usize,
}

/// Validate `text` as a Chrome trace-event JSON file.
///
/// Beyond JSON well-formedness this checks the envelope
/// (`traceEvents` array present) and, per event, the fields each phase
/// requires: every event needs a string `ph` and `name`; spans ("X")
/// additionally need numeric `ts` and `dur`; counters ("C") need `ts`
/// and an `args` object; instants ("i") need `ts`; async begin/end
/// ("b"/"e", the lifecycle exporter) need numeric `ts` and an `id` to
/// correlate the pair. Unknown phases are rejected — the exporters only
/// emit these six (capital "B"/"E" nested-duration events are *not*
/// accepted: nothing here emits them, and Perfetto renders them on a
/// different track, so their appearance means a corrupted export).
pub fn validate_trace(text: &str) -> Result<TraceStats, String> {
    let root = parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let events = root
        .get("traceEvents")
        .ok_or("missing \"traceEvents\" key")?
        .as_array()
        .ok_or("\"traceEvents\" is not an array")?;
    let mut stats = TraceStats::default();
    for (i, ev) in events.iter().enumerate() {
        let fail = |msg: &str| format!("event #{i}: {msg}");
        let obj = ev.as_object().ok_or_else(|| fail("not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Value::as_str)
            .ok_or_else(|| fail("missing string \"ph\""))?;
        if obj.get("name").and_then(Value::as_str).is_none() {
            return Err(fail("missing string \"name\""));
        }
        let has_num = |key: &str| obj.get(key).and_then(Value::as_f64).is_some();
        match ph {
            "M" => stats.metadata += 1,
            "X" => {
                if !has_num("ts") || !has_num("dur") {
                    return Err(fail("span (\"X\") without numeric ts/dur"));
                }
                stats.spans += 1;
            }
            "C" => {
                if !has_num("ts") {
                    return Err(fail("counter (\"C\") without numeric ts"));
                }
                if obj.get("args").and_then(Value::as_object).is_none() {
                    return Err(fail("counter (\"C\") without args object"));
                }
                stats.counters += 1;
            }
            "i" => {
                if !has_num("ts") {
                    return Err(fail("instant (\"i\") without numeric ts"));
                }
                stats.instants += 1;
            }
            "b" | "e" => {
                if !has_num("ts") {
                    return Err(fail("async (\"b\"/\"e\") without numeric ts"));
                }
                if !has_num("id") {
                    return Err(fail("async (\"b\"/\"e\") without numeric id"));
                }
                stats.async_events += 1;
            }
            other => return Err(fail(&format!("unexpected phase {other:?}"))),
        }
        stats.events += 1;
    }
    Ok(stats)
}

/// Per-stage and per-counter totals of a trace file, as a printable
/// table. Validates first; errors are the same as [`validate_trace`].
pub fn summarize_trace(text: &str) -> Result<String, String> {
    let stats = validate_trace(text)?;
    let root = parse(text).expect("validated above");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("validated above");

    // tid → thread name, from "M" metadata.
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) == Some("M") {
            if let (Some(tid), Some(name)) = (
                ev.get("tid").and_then(Value::as_f64),
                ev.get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Value::as_str),
            ) {
                names.insert(tid as u64, name.to_string());
            }
        }
    }

    // Stage totals (spans, keyed by tid) and counter last-values.
    let mut span_us: BTreeMap<u64, (u64, f64)> = BTreeMap::new();
    let mut counter_totals: BTreeMap<String, f64> = BTreeMap::new();
    for ev in events {
        match ev.get("ph").and_then(Value::as_str) {
            Some("X") => {
                let tid = ev.get("tid").and_then(Value::as_f64).unwrap_or(0.0) as u64;
                let dur = ev.get("dur").and_then(Value::as_f64).unwrap_or(0.0);
                let e = span_us.entry(tid).or_default();
                e.0 += 1;
                e.1 += dur;
            }
            Some("C") => {
                let name = ev.get("name").and_then(Value::as_str).unwrap_or("?");
                if let Some(args) = ev.get("args").and_then(Value::as_object) {
                    for v in args.values() {
                        if let Some(x) = v.as_f64() {
                            *counter_totals.entry(name.to_string()).or_default() += x;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    let mut out = String::new();
    out.push_str(&format!(
        "{} events: {} spans, {} counters, {} round markers, {} metadata\n",
        stats.events, stats.spans, stats.counters, stats.instants, stats.metadata
    ));
    if !span_us.is_empty() {
        out.push_str("\nstage                 spans      total_us\n");
        for (tid, (count, total)) in &span_us {
            let name = names.get(tid).map(String::as_str).unwrap_or("?");
            out.push_str(&format!("{name:<20} {count:>6} {total:>13.3}\n"));
        }
    }
    if !counter_totals.is_empty() {
        out.push_str("\ncounter                        sum\n");
        for (name, total) in &counter_totals {
            out.push_str(&format!("{name:<24} {total:>12.3}\n"));
        }
    }
    Ok(out)
}

/// Aggregates over the closed/open lifecycle spans of one trace file.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WaitReport {
    /// Lifecycle spans found ("b" events).
    pub spans: usize,
    /// Spans whose end was provisional (`"open": true` on the "e" event).
    pub open: usize,
    /// Spans that never launched (`launch_tick` null) — pure queueing.
    pub never_launched: usize,
    /// Spans flagged stale at least once.
    pub stale: usize,
    /// Waiters that joined in-flight transfers, summed.
    pub joined: u64,
    /// Requests served off these spans, summed.
    pub served: u64,
    /// Spans the exporter's ring dropped (`droppedSpans` envelope key).
    pub dropped: u64,
    /// Total µs spans spent queued (requested but not yet launched).
    pub queueing_us: f64,
    /// Total µs spans spent on the wire (launched but not yet ended).
    pub on_wire_us: f64,
    /// Largest single-span queueing time, µs.
    pub max_queueing_us: f64,
    /// Largest single-span on-wire time, µs.
    pub max_on_wire_us: f64,
}

impl fmt::Display for WaitReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} lifecycle spans ({} open, {} never launched, {} stale, {} dropped)",
            self.spans, self.open, self.never_launched, self.stale, self.dropped
        )?;
        writeln!(
            f,
            "joined waiters: {}   serves: {}",
            self.joined, self.served
        )?;
        let n = self.spans.max(1) as f64;
        writeln!(
            f,
            "{:<12} {:>12} {:>12} {:>12}",
            "phase", "total_us", "mean_us", "max_us"
        )?;
        writeln!(
            f,
            "{:<12} {:>12.1} {:>12.1} {:>12.1}",
            "queueing",
            self.queueing_us,
            self.queueing_us / n,
            self.max_queueing_us
        )?;
        write!(
            f,
            "{:<12} {:>12.1} {:>12.1} {:>12.1}",
            "on_wire",
            self.on_wire_us,
            self.on_wire_us / n,
            self.max_on_wire_us
        )
    }
}

/// Decompose a lifecycle trace (async "b"/"e" events, as exported by
/// the `LifecycleRecorder`) into per-span queueing vs on-wire time.
///
/// Queueing runs from the span's begin (`ts` of the "b" event, the tick
/// the object was first requested or planned) to its `launch_tick`
/// argument; on-wire runs from the launch to the span's end. A span
/// with a null `launch_tick` never made it onto the network — its whole
/// duration is queueing. Works on any [`validate_trace`]-clean file;
/// files with no async events produce an all-zero report rather than an
/// error, so the plain `TraceRecorder` export is accepted too.
pub fn wait_decomposition(text: &str) -> Result<WaitReport, String> {
    validate_trace(text)?;
    let root = parse(text).expect("validated above");
    let events = root
        .get("traceEvents")
        .and_then(Value::as_array)
        .expect("validated above");
    let mut report = WaitReport {
        dropped: root
            .get("droppedSpans")
            .and_then(Value::as_f64)
            .unwrap_or(0.0) as u64,
        ..WaitReport::default()
    };

    // id → (begin_ts_us, launch_ts_us or None). Args live on the "b"
    // event; the "e" event carries the end ts and the open flag.
    let mut begins: BTreeMap<u64, (f64, Option<f64>)> = BTreeMap::new();
    let arg_num = |ev: &Value, key: &str| {
        ev.get("args")
            .and_then(|a| a.get(key))
            .and_then(Value::as_f64)
    };
    for ev in events {
        let id = match ev.get("id").and_then(Value::as_f64) {
            Some(id) => id as u64,
            None => continue,
        };
        match ev.get("ph").and_then(Value::as_str) {
            Some("b") => {
                let begin_ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(0.0);
                // launch_tick is in ticks; the exporter maps one tick to
                // 1000 µs on the synthetic timeline.
                let launch_ts = arg_num(ev, "launch_tick").map(|t| t * 1_000.0);
                report.spans += 1;
                report.joined += arg_num(ev, "joined").unwrap_or(0.0) as u64;
                report.served += arg_num(ev, "served").unwrap_or(0.0) as u64;
                if arg_num(ev, "stale").unwrap_or(0.0) > 0.0 {
                    report.stale += 1;
                }
                if launch_ts.is_none() {
                    report.never_launched += 1;
                }
                begins.insert(id, (begin_ts, launch_ts));
            }
            Some("e") => {
                let Some((begin_ts, launch_ts)) = begins.remove(&id) else {
                    return Err(format!("async end for id {id} without a begin"));
                };
                if ev.get("args").and_then(|a| a.get("open")) == Some(&Value::Bool(true)) {
                    report.open += 1;
                }
                let end_ts = ev.get("ts").and_then(Value::as_f64).unwrap_or(begin_ts);
                let (queueing, on_wire) = match launch_ts {
                    Some(launch) => {
                        let launch = launch.clamp(begin_ts, end_ts.max(begin_ts));
                        (launch - begin_ts, (end_ts - launch).max(0.0))
                    }
                    None => ((end_ts - begin_ts).max(0.0), 0.0),
                };
                report.queueing_us += queueing;
                report.on_wire_us += on_wire;
                report.max_queueing_us = report.max_queueing_us.max(queueing);
                report.max_on_wire_us = report.max_on_wire_us.max(on_wire);
            }
            _ => {}
        }
    }
    if let Some((&id, _)) = begins.iter().next() {
        return Err(format!("async begin for id {id} without an end"));
    }
    Ok(report)
}

/// [`wait_decomposition`] rendered as the printable table the
/// `basecache-trace waits` subcommand shows.
pub fn summarize_waits(text: &str) -> Result<String, String> {
    Ok(format!("{}\n", wait_decomposition(text)?))
}

/// Aggregates over an age-of-information CSV series (the
/// `AoiRecorder::to_csv` format).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AoiReport {
    /// Decimation stride the recorder settled on.
    pub stride: u64,
    /// Rounds the recorder observed (≥ rows × stride once decimated).
    pub rounds_seen: u64,
    /// Data rows in the series.
    pub rows: usize,
    /// Serves summed over the series.
    pub serves: u64,
    /// Refreshes summed over the series.
    pub refreshes: u64,
    /// Largest per-row peak age at serve, ticks.
    pub peak_aoi: u64,
    /// Serve-weighted mean age at serve, ticks (0 when nothing served).
    pub mean_aoi: f64,
}

impl fmt::Display for AoiReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} AoI rows over {} rounds (stride {})",
            self.rows, self.rounds_seen, self.stride
        )?;
        write!(
            f,
            "serves: {}   refreshes: {}   mean_aoi: {:.3}   peak_aoi: {}",
            self.serves, self.refreshes, self.mean_aoi, self.peak_aoi
        )
    }
}

/// Parse and summarize an AoI CSV series.
///
/// The expected shape is the `AoiRecorder::to_csv` export: a
/// `# decimation_stride=S rounds_seen=N` comment, the
/// `tick,serves,mean_aoi,peak_aoi,refreshes` header, then one row per
/// retained round (an empty `mean_aoi` cell means no serves that
/// round). The mean here is serve-weighted across rows, so decimation
/// doesn't skew it toward quiet rounds.
pub fn summarize_aoi(text: &str) -> Result<AoiReport, String> {
    let mut lines = text.lines();
    let meta = lines.next().ok_or("empty AoI CSV")?;
    let meta = meta
        .strip_prefix("# ")
        .ok_or("AoI CSV must start with a \"# decimation_stride=...\" comment")?;
    let mut report = AoiReport::default();
    for part in meta.split_whitespace() {
        if let Some(v) = part.strip_prefix("decimation_stride=") {
            report.stride = v.parse().map_err(|_| format!("bad stride {v:?}"))?;
        } else if let Some(v) = part.strip_prefix("rounds_seen=") {
            report.rounds_seen = v.parse().map_err(|_| format!("bad rounds_seen {v:?}"))?;
        }
    }
    if report.stride == 0 {
        return Err("metadata comment lacks decimation_stride".into());
    }
    match lines.next() {
        Some("tick,serves,mean_aoi,peak_aoi,refreshes") => {}
        other => return Err(format!("unexpected AoI CSV header {other:?}")),
    }
    let mut weighted = 0.0f64;
    for (i, line) in lines.enumerate() {
        let fail = |msg: &str| format!("row #{i}: {msg} in {line:?}");
        let cols: Vec<&str> = line.split(',').collect();
        let [_tick, serves, mean, peak, refreshes] = cols.as_slice() else {
            return Err(fail("expected 5 columns"));
        };
        let serves: u64 = serves.parse().map_err(|_| fail("bad serves"))?;
        let peak: u64 = peak.parse().map_err(|_| fail("bad peak_aoi"))?;
        let refreshes: u64 = refreshes.parse().map_err(|_| fail("bad refreshes"))?;
        if serves > 0 {
            let mean: f64 = mean.parse().map_err(|_| fail("bad mean_aoi"))?;
            weighted += mean * serves as f64;
        }
        report.rows += 1;
        report.serves += serves;
        report.refreshes += refreshes;
        report.peak_aoi = report.peak_aoi.max(peak);
    }
    if report.serves > 0 {
        report.mean_aoi = weighted / report.serves as f64;
    }
    Ok(report)
}

/// Human names of the `serves_by_tier` attribution keys, indexed by
/// tier code (0 = local L1 cache, 1 = regional L2 neighbor, 2 = origin).
const TIER_NAMES: [&str; 3] = ["L1 (local)", "L2 (neighbor)", "origin"];

/// Per-tier hit-ratio table from an exported obs snapshot JSON (the
/// `basecache_obs::export::to_json` format): sums the `serves_by_tier` attribution channel
/// (labels `tier#0`/`tier#1`/`tier#2`) and renders one row per tier
/// with its share of all serves.
///
/// Errors if the document is not a snapshot export, carries a label
/// outside the three known tiers, or has no tier attribution at all
/// (a single-tier run — the channel only exists when the cluster's
/// regional L2 tier is enabled).
pub fn tier_hit_table(snapshot_text: &str) -> Result<String, String> {
    let root = parse(snapshot_text).map_err(|e| format!("not valid JSON: {e}"))?;
    let attrs = root
        .get("attrs")
        .and_then(Value::as_array)
        .ok_or("missing \"attrs\" array (not an obs snapshot export?)")?;
    let mut tiers = [0u64; 3];
    let mut seen = false;
    for entry in attrs {
        let obj = entry.as_object().ok_or("attrs entry is not an object")?;
        if obj.get("channel").and_then(Value::as_str) != Some("serves_by_tier") {
            continue;
        }
        let label = obj
            .get("label")
            .and_then(Value::as_str)
            .ok_or("serves_by_tier entry without string label")?;
        let weight = obj
            .get("weight")
            .and_then(Value::as_f64)
            .ok_or("serves_by_tier entry without numeric weight")?;
        let slot = match label {
            "tier#0" => 0,
            "tier#1" => 1,
            "tier#2" => 2,
            other => return Err(format!("unknown tier label {other:?}")),
        };
        tiers[slot] += weight as u64;
        seen = true;
    }
    if !seen {
        return Err("no serves_by_tier attribution in snapshot (single-tier run?)".to_string());
    }
    let total: u64 = tiers.iter().sum();
    use fmt::Write as _;
    let mut out = format!("{:<14} {:>10} {:>8}\n", "tier", "serves", "ratio");
    for (name, &serves) in TIER_NAMES.iter().zip(&tiers) {
        let ratio = if total > 0 {
            serves as f64 / total as f64
        } else {
            0.0
        };
        let _ = writeln!(out, "{name:<14} {serves:>10} {ratio:>8.3}");
    }
    let _ = writeln!(out, "{:<14} {total:>10}", "total");
    Ok(out)
}

/// Summarize the adaptive solver's reduction telemetry from an obs
/// snapshot: how much of each instance the DP actually swept
/// (`core_size`, `items_fixed`) and — from the method-code
/// distribution — how often a solve ended in a bound certificate
/// (code 0) rather than a sweep (code 2). Recordings from before the
/// retired terminals still carry codes 1 (branch-and-bound, a search)
/// and 3 (the expanding-core endgame, a certificate) and the endgame's
/// `core_rounds` sample; the table reads them as it always did.
///
/// The `solver_chosen` sample is a streaming distribution, not a
/// histogram, so the certified share is derived: exact when every round
/// used one method, and still exact when the observed codes stay on one
/// side of the certificate boundary (`{2,3}` → `mean − 2`; `{0,1}` →
/// `1 − mean`); otherwise the table reports the mean code only.
///
/// Errors when the snapshot carries no `solver_chosen` observations
/// (no adaptive rounds recorded).
pub fn adaptive_solver_table(snapshot_text: &str) -> Result<String, String> {
    let root = parse(snapshot_text).map_err(|e| format!("not valid JSON: {e}"))?;
    let samples = root
        .get("samples")
        .and_then(Value::as_array)
        .ok_or("missing \"samples\" array (not an obs snapshot export?)")?;
    let find = |name: &str| -> Option<(f64, f64, f64, f64)> {
        samples.iter().find_map(|s| {
            let obj = s.as_object()?;
            if obj.get("name").and_then(Value::as_str) != Some(name) {
                return None;
            }
            let g = |k: &str| obj.get(k).and_then(Value::as_f64);
            Some((g("count")?, g("mean")?, g("min")?, g("max")?))
        })
    };
    let (count, mean, min, max) = find("solver_chosen")
        .filter(|&(c, ..)| c > 0.0)
        .ok_or("no solver_chosen observations in snapshot (no adaptive rounds?)")?;
    use fmt::Write as _;
    let mut out = format!(
        "{:<14} {:>8} {:>10} {:>8} {:>8}\n",
        "metric", "rounds", "mean", "min", "max"
    );
    let mut row = |label: &str, stats: Option<(f64, f64, f64, f64)>| {
        if let Some((c, m, lo, hi)) = stats {
            let _ = writeln!(out, "{label:<14} {c:>8.0} {m:>10.2} {lo:>8.0} {hi:>8.0}");
        }
    };
    row("method_code", Some((count, mean, min, max)));
    row("core_size", find("core_size"));
    row("items_fixed", find("items_fixed"));
    row("core_rounds", find("core_rounds"));
    let certified = if min == max {
        Some(if min == 0.0 || min == 3.0 { 1.0 } else { 0.0 })
    } else if min >= 2.0 {
        Some(mean - 2.0)
    } else if max <= 1.0 {
        Some(1.0 - mean)
    } else {
        None
    };
    match certified {
        Some(share) => {
            let _ = writeln!(
                out,
                "certified exits (codes 0/3): {:.1}% of {count:.0} solves",
                share * 100.0
            );
        }
        None => {
            let _ = writeln!(
                out,
                "mixed method codes (mean {mean:.2}) — certified share indeterminate"
            );
        }
    }
    Ok(out)
}

/// Roll a lifecycle trace and (optionally) an AoI series and an obs
/// snapshot into one report — the `basecache-trace report` subcommand.
/// The snapshot contributes the per-tier hit-ratio table when it
/// carries the `serves_by_tier` channel, and the adaptive-solver table
/// when adaptive rounds were sampled.
pub fn rollup_report(
    trace_text: &str,
    aoi_text: Option<&str>,
    snapshot_text: Option<&str>,
) -> Result<String, String> {
    let mut out = String::from("== transfer lifecycles ==\n");
    out.push_str(&format!("{}\n", wait_decomposition(trace_text)?));
    if let Some(aoi) = aoi_text {
        out.push_str("\n== age of information ==\n");
        out.push_str(&format!("{}\n", summarize_aoi(aoi)?));
    }
    if let Some(snapshot) = snapshot_text {
        out.push_str("\n== per-tier hit ratios ==\n");
        out.push_str(&tier_hit_table(snapshot)?);
        if let Ok(table) = adaptive_solver_table(snapshot) {
            out.push_str("\n== adaptive solver ==\n");
            out.push_str(&table);
        }
    }
    Ok(out)
}

/// One benchmark result compared across two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Benchmark name (e.g. `planner/round/adaptive`).
    pub name: String,
    /// Median in the baseline file, nanoseconds.
    pub base_ns: f64,
    /// Median in the candidate file, nanoseconds.
    pub new_ns: f64,
    /// Signed change, percent of baseline (positive = slower).
    pub delta_pct: f64,
    /// Whether the slowdown exceeds the threshold.
    pub regressed: bool,
}

/// Result of diffing two bench JSON files.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffReport {
    /// Rows for every name present in both files, in baseline order.
    pub rows: Vec<DiffRow>,
    /// Names only in the baseline (removed benches).
    pub only_in_base: Vec<String>,
    /// Names only in the candidate (new benches).
    pub only_in_new: Vec<String>,
    /// The threshold the rows were judged against, percent.
    pub threshold_pct: f64,
}

impl DiffReport {
    /// Rows whose slowdown exceeded the threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffRow> {
        self.rows.iter().filter(|r| r.regressed)
    }

    /// Whether any row regressed.
    pub fn has_regressions(&self) -> bool {
        self.rows.iter().any(|r| r.regressed)
    }
}

impl fmt::Display for DiffReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<40} {:>12} {:>12} {:>9}",
            "benchmark", "base_ns", "new_ns", "delta"
        )?;
        for r in &self.rows {
            let flag = if r.regressed { "  << REGRESSION" } else { "" };
            writeln!(
                f,
                "{:<40} {:>12.1} {:>12.1} {:>+8.1}%{}",
                r.name, r.base_ns, r.new_ns, r.delta_pct, flag
            )?;
        }
        for name in &self.only_in_base {
            writeln!(f, "{name:<40} (removed: only in baseline)")?;
        }
        for name in &self.only_in_new {
            writeln!(f, "{name:<40} (new: only in candidate)")?;
        }
        write!(
            f,
            "threshold: +{:.1}%, {} regression(s)",
            self.threshold_pct,
            self.regressions().count()
        )
    }
}

/// Extract `name → median_ns` from a `BENCH_planner.json` document,
/// preserving file order of the `results` array.
fn bench_medians(text: &str, which: &str) -> Result<Vec<(String, f64)>, String> {
    let root = parse(text).map_err(|e| format!("{which}: not valid JSON: {e}"))?;
    let results = root
        .get("results")
        .ok_or_else(|| format!("{which}: missing \"results\" array"))?
        .as_array()
        .ok_or_else(|| format!("{which}: \"results\" is not an array"))?;
    let mut out = Vec::with_capacity(results.len());
    for (i, r) in results.iter().enumerate() {
        let name = r
            .get("name")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{which}: result #{i} has no string \"name\""))?;
        let median = r
            .get("median_ns")
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("{which}: result {name:?} has no numeric \"median_ns\""))?;
        out.push((name.to_string(), median));
    }
    Ok(out)
}

/// Diff two `BENCH_planner.json` documents by `median_ns`.
///
/// A row regresses when the candidate's median is more than
/// `threshold_pct` percent above the baseline's. Speedups never
/// regress, however large. Benches present in only one file are listed
/// but don't fail the gate — renames and additions are routine.
pub fn diff_benches(base: &str, new: &str, threshold_pct: f64) -> Result<DiffReport, String> {
    diff_benches_filtered(base, new, threshold_pct, "")
}

/// [`diff_benches`] restricted to benches whose name starts with
/// `prefix` (the empty prefix keeps everything). Lets a CI gate enforce
/// a tight threshold on a stable family (say `planner/round/`) while a
/// broader, noisier sweep stays warn-only.
pub fn diff_benches_filtered(
    base: &str,
    new: &str,
    threshold_pct: f64,
    prefix: &str,
) -> Result<DiffReport, String> {
    let mut base_rows = bench_medians(base, "baseline")?;
    let mut new_rows = bench_medians(new, "candidate")?;
    base_rows.retain(|(n, _)| n.starts_with(prefix));
    new_rows.retain(|(n, _)| n.starts_with(prefix));
    let new_map: BTreeMap<&str, f64> = new_rows.iter().map(|(n, m)| (n.as_str(), *m)).collect();
    let base_names: BTreeMap<&str, ()> = base_rows.iter().map(|(n, _)| (n.as_str(), ())).collect();

    let mut report = DiffReport {
        threshold_pct,
        ..DiffReport::default()
    };
    for (name, base_ns) in &base_rows {
        match new_map.get(name.as_str()) {
            Some(&new_ns) => {
                let delta_pct = if *base_ns > 0.0 {
                    (new_ns - base_ns) / base_ns * 100.0
                } else {
                    0.0
                };
                report.rows.push(DiffRow {
                    name: name.clone(),
                    base_ns: *base_ns,
                    new_ns,
                    delta_pct,
                    regressed: delta_pct > threshold_pct,
                });
            }
            None => report.only_in_base.push(name.clone()),
        }
    }
    for (name, _) in &new_rows {
        if !base_names.contains_key(name.as_str()) {
            report.only_in_new.push(name.clone());
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_obs::{
        Event, LifecycleEvent, LifecycleRecorder, Recorder, Sample, Stage, TraceRecorder,
        Transition,
    };

    fn sample_trace() -> String {
        let rec = TraceRecorder::with_capacity(64);
        for tick in 0..3u64 {
            rec.begin_round(tick);
            rec.span_ns(Stage::Plan, 1_500);
            rec.span_ns(Stage::Step, 4_000);
            rec.incr(Event::Rounds);
            rec.sample(Sample::BatchSize, 5.0);
            rec.end_round(tick + 1);
        }
        rec.to_chrome_trace()
    }

    #[test]
    fn exported_trace_validates() {
        let stats = validate_trace(&sample_trace()).unwrap();
        assert_eq!(stats.spans, 6);
        assert_eq!(stats.counters, 6, "one Rounds + one BatchSize per round");
        assert_eq!(stats.instants, 3);
        assert!(stats.metadata >= 1, "thread names present");
    }

    #[test]
    fn garbage_and_wrong_shapes_are_rejected() {
        assert!(validate_trace("not json").is_err());
        assert!(validate_trace("{}").unwrap_err().contains("traceEvents"));
        assert!(validate_trace(r#"{"traceEvents": 5}"#).is_err());
        // A span without dur must be called out.
        let bad = r#"{"traceEvents": [{"ph": "X", "name": "plan", "pid": 1, "tid": 1, "ts": 0}]}"#;
        assert!(validate_trace(bad).unwrap_err().contains("ts/dur"));
        // Unknown phases are not silently accepted.
        let odd = r#"{"traceEvents": [{"ph": "B", "name": "x", "ts": 0}]}"#;
        assert!(validate_trace(odd)
            .unwrap_err()
            .contains("unexpected phase"));
    }

    #[test]
    fn summary_reports_stage_totals() {
        let text = summarize_trace(&sample_trace()).unwrap();
        assert!(text.contains("plan"), "stage name from metadata: {text}");
        assert!(text.contains("6 spans"), "{text}");
        assert!(text.contains("rounds"), "counter tally present: {text}");
    }

    /// One transfer planned at tick 0, launched at 2, arrived at 5
    /// with three parked waiters served; one plan that never launched
    /// (queue-only span, still open).
    fn lifecycle_trace() -> String {
        let rec = LifecycleRecorder::new(8, 32);
        rec.lifecycle(LifecycleEvent::new(Transition::Planned, 7, 1, 0));
        rec.lifecycle(LifecycleEvent::new(Transition::Launched, 7, 1, 2).at_launch(2));
        rec.lifecycle(LifecycleEvent::new(Transition::Joined, 7, 1, 3).times(2));
        rec.lifecycle(LifecycleEvent::new(Transition::Arrived, 7, 1, 5).at_launch(2));
        rec.lifecycle(
            LifecycleEvent::new(Transition::ServedFromWait, 7, 1, 5)
                .at_launch(2)
                .times(3),
        );
        rec.lifecycle(LifecycleEvent::new(Transition::Planned, 9, 4, 1));
        rec.end_round(6);
        rec.to_chrome_trace()
    }

    #[test]
    fn lifecycle_trace_validates_with_async_events() {
        let stats = validate_trace(&lifecycle_trace()).unwrap();
        assert_eq!(stats.async_events, 4, "two spans, one b/e pair each");
        assert!(stats.metadata >= 1);
        // Capital-B nested durations stay rejected even now that
        // lowercase async phases pass.
        let nested = r#"{"traceEvents": [{"ph": "B", "name": "x", "ts": 0, "id": 1}]}"#;
        assert!(validate_trace(nested)
            .unwrap_err()
            .contains("unexpected phase"));
        // Async events without an id can't be correlated.
        let no_id = r#"{"traceEvents": [{"ph": "b", "name": "x", "ts": 0}]}"#;
        assert!(validate_trace(no_id).unwrap_err().contains("id"));
    }

    #[test]
    fn wait_decomposition_splits_queueing_from_on_wire() {
        let report = wait_decomposition(&lifecycle_trace()).unwrap();
        assert_eq!(report.spans, 2);
        assert_eq!(report.never_launched, 1, "obj#9 never launched");
        assert_eq!(report.open, 1, "obj#9 swept open by end_round");
        assert_eq!(report.joined, 2);
        assert_eq!(report.served, 3);
        assert_eq!(report.dropped, 0);
        // obj#7: planned tick 0, launched 2, arrived 5 → 2 ticks
        // queued + 3 on the wire. obj#9: open from tick 1 to the sweep
        // at its last event (tick 1) → zero-length queueing.
        assert_eq!(report.queueing_us, 2_000.0);
        assert_eq!(report.on_wire_us, 3_000.0);
        assert_eq!(report.max_on_wire_us, 3_000.0);
        let text = summarize_waits(&lifecycle_trace()).unwrap();
        assert!(text.contains("queueing"), "{text}");
        assert!(text.contains("on_wire"), "{text}");
    }

    #[test]
    fn wait_decomposition_flags_unpaired_async_events() {
        let only_begin = r#"{"traceEvents": [
            {"ph": "b", "name": "t", "ts": 0, "id": 4, "args": {"launch_tick": null}}]}"#;
        assert!(wait_decomposition(only_begin)
            .unwrap_err()
            .contains("without an end"));
        let only_end = r#"{"traceEvents": [
            {"ph": "e", "name": "t", "ts": 0, "id": 4, "args": {"open": false}}]}"#;
        assert!(wait_decomposition(only_end)
            .unwrap_err()
            .contains("without a begin"));
        // A plain span/counter trace has no async events: empty report,
        // not an error.
        let report = wait_decomposition(&sample_trace()).unwrap();
        assert_eq!(report.spans, 0);
    }

    fn aoi_csv() -> &'static str {
        "# decimation_stride=2 rounds_seen=4\n\
         tick,serves,mean_aoi,peak_aoi,refreshes\n\
         0,2,1.5,3,1\n\
         2,0,,0,0\n\
         4,4,3,6,2\n"
    }

    #[test]
    fn aoi_summary_weights_mean_by_serves() {
        let report = summarize_aoi(aoi_csv()).unwrap();
        assert_eq!(report.stride, 2);
        assert_eq!(report.rounds_seen, 4);
        assert_eq!(report.rows, 3);
        assert_eq!(report.serves, 6);
        assert_eq!(report.refreshes, 3);
        assert_eq!(report.peak_aoi, 6);
        // (1.5·2 + 3·4) / 6 = 2.5 — the empty-mean row contributes
        // nothing.
        assert!((report.mean_aoi - 2.5).abs() < 1e-9, "{}", report.mean_aoi);
        assert!(report.to_string().contains("serves: 6"));
    }

    #[test]
    fn malformed_aoi_csv_is_rejected() {
        assert!(summarize_aoi("").is_err());
        assert!(summarize_aoi("tick,serves\n1,2\n")
            .unwrap_err()
            .contains("comment"));
        assert!(
            summarize_aoi("# rounds_seen=3\ntick,serves,mean_aoi,peak_aoi,refreshes\n")
                .unwrap_err()
                .contains("decimation_stride")
        );
        assert!(
            summarize_aoi("# decimation_stride=1 rounds_seen=1\nwrong,header\n")
                .unwrap_err()
                .contains("header")
        );
        assert!(summarize_aoi(
            "# decimation_stride=1 rounds_seen=1\ntick,serves,mean_aoi,peak_aoi,refreshes\n1,x,,0,0\n"
        )
        .unwrap_err()
        .contains("serves"));
    }

    fn tier_snapshot() -> &'static str {
        r#"{
  "counters": {"l2_transfers": 7},
  "samples": [
    {"name": "solver_chosen", "count": 10, "mean": 2.3, "std_dev": 0.46, "min": 2, "max": 3, "p95": 3},
    {"name": "core_size", "count": 10, "mean": 710.5, "std_dev": 40.0, "min": 640, "max": 780, "p95": 778},
    {"name": "items_fixed", "count": 10, "mean": 80000.0, "std_dev": 100.0, "min": 79900, "max": 80100, "p95": 80090},
    {"name": "core_rounds", "count": 10, "mean": 1.2, "std_dev": 0.4, "min": 1, "max": 2, "p95": 2}
  ],
  "spans": [],
  "attrs": [
    {"channel": "downlink_units_by_cell", "label": "cell#0", "weight": 4, "error": 0},
    {"channel": "serves_by_tier", "label": "tier#0", "weight": 120, "error": 0},
    {"channel": "serves_by_tier", "label": "tier#1", "weight": 60, "error": 0},
    {"channel": "serves_by_tier", "label": "tier#2", "weight": 20, "error": 0}
  ]
}"#
    }

    #[test]
    fn rollup_report_combines_sections() {
        let text = rollup_report(&lifecycle_trace(), Some(aoi_csv()), None).unwrap();
        assert!(text.contains("transfer lifecycles"), "{text}");
        assert!(text.contains("age of information"), "{text}");
        assert!(text.contains("queueing"), "{text}");
        assert!(text.contains("peak_aoi: 6"), "{text}");
        // Trace-only rollup skips the optional sections.
        let solo = rollup_report(&lifecycle_trace(), None, None).unwrap();
        assert!(!solo.contains("age of information"), "{solo}");
        assert!(!solo.contains("per-tier hit ratios"), "{solo}");
        // A snapshot with tier attribution adds the hit-ratio table, and
        // its solver samples add the adaptive-solver section.
        let tiered = rollup_report(&lifecycle_trace(), None, Some(tier_snapshot())).unwrap();
        assert!(tiered.contains("per-tier hit ratios"), "{tiered}");
        assert!(tiered.contains("L2 (neighbor)"), "{tiered}");
        assert!(tiered.contains("adaptive solver"), "{tiered}");
        assert!(tiered.contains("certified exits"), "{tiered}");
    }

    #[test]
    fn adaptive_table_derives_the_certified_share() {
        // Codes span {2,3}: the share is exactly mean − 2.
        let table = adaptive_solver_table(tier_snapshot()).unwrap();
        assert!(table.contains("method_code"), "{table}");
        assert!(table.contains("core_rounds"), "{table}");
        assert!(
            table.contains("certified exits (codes 0/3): 30.0% of 10 solves"),
            "{table}"
        );
        // A single observed code pins the share to 0% or 100%.
        let all_endgame = tier_snapshot().replace(
            r#""count": 10, "mean": 2.3, "std_dev": 0.46, "min": 2, "max": 3"#,
            r#""count": 4, "mean": 3, "std_dev": 0, "min": 3, "max": 3"#,
        );
        let table = adaptive_solver_table(&all_endgame).unwrap();
        assert!(table.contains("100.0% of 4 solves"), "{table}");
        // Codes straddling both boundaries are indeterminate.
        let mixed = tier_snapshot().replace(
            r#""count": 10, "mean": 2.3, "std_dev": 0.46, "min": 2, "max": 3"#,
            r#""count": 10, "mean": 1.4, "std_dev": 1.0, "min": 0, "max": 3"#,
        );
        let table = adaptive_solver_table(&mixed).unwrap();
        assert!(table.contains("indeterminate"), "{table}");
        // No solver samples at all: a clean error, and the rollup just
        // skips the section.
        let empty = r#"{"counters": {}, "samples": [], "spans": [], "attrs": [
            {"channel": "serves_by_tier", "label": "tier#0", "weight": 1, "error": 0}]}"#;
        assert!(adaptive_solver_table(empty)
            .unwrap_err()
            .contains("solver_chosen"));
        let rolled = rollup_report(&lifecycle_trace(), None, Some(empty)).unwrap();
        assert!(!rolled.contains("adaptive solver"), "{rolled}");
    }

    #[test]
    fn tier_table_computes_ratios() {
        let table = tier_hit_table(tier_snapshot()).unwrap();
        assert!(table.contains("L1 (local)"), "{table}");
        let l1 = table.lines().find(|l| l.starts_with("L1")).unwrap();
        assert!(l1.contains("120") && l1.contains("0.600"), "{l1}");
        let l2 = table.lines().find(|l| l.starts_with("L2")).unwrap();
        assert!(l2.contains("60") && l2.contains("0.300"), "{l2}");
        let origin = table.lines().find(|l| l.starts_with("origin")).unwrap();
        assert!(
            origin.contains("20") && origin.contains("0.100"),
            "{origin}"
        );
        assert!(table.contains("total") && table.contains("200"), "{table}");
    }

    #[test]
    fn tier_table_rejects_unusable_snapshots() {
        assert!(tier_hit_table("not json").unwrap_err().contains("JSON"));
        assert!(tier_hit_table(r#"{"counters": {}}"#)
            .unwrap_err()
            .contains("attrs"));
        // Snapshot without the channel: explicit single-tier error.
        let single = r#"{"attrs": [{"channel": "downlink_units_by_cell",
            "label": "cell#0", "weight": 4, "error": 0}]}"#;
        assert!(tier_hit_table(single).unwrap_err().contains("single-tier"));
        let bad = r#"{"attrs": [{"channel": "serves_by_tier",
            "label": "tier#9", "weight": 4, "error": 0}]}"#;
        assert!(tier_hit_table(bad).unwrap_err().contains("tier#9"));
    }

    fn bench_json(pairs: &[(&str, f64)]) -> String {
        let rows: Vec<String> = pairs
            .iter()
            .map(|(n, m)| format!(r#"{{"name": "{n}", "median_ns": {m}}}"#))
            .collect();
        format!(
            r#"{{"bench": "planner", "results": [{}]}}"#,
            rows.join(", ")
        )
    }

    #[test]
    fn self_diff_is_clean() {
        let a = bench_json(&[("planner/a", 100.0), ("planner/b", 2000.0)]);
        let report = diff_benches(&a, &a, 10.0).unwrap();
        assert!(!report.has_regressions());
        assert_eq!(report.rows.len(), 2);
        assert!(report.rows.iter().all(|r| r.delta_pct == 0.0));
        assert!(report.only_in_base.is_empty() && report.only_in_new.is_empty());
    }

    #[test]
    fn slowdown_beyond_threshold_regresses() {
        let base = bench_json(&[("planner/a", 100.0), ("planner/b", 100.0)]);
        let new = bench_json(&[("planner/a", 125.0), ("planner/b", 105.0)]);
        let report = diff_benches(&base, &new, 10.0).unwrap();
        assert!(report.has_regressions());
        let names: Vec<&str> = report.regressions().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["planner/a"], "+5% stays under a 10% threshold");
        // Raising the threshold clears it.
        assert!(!diff_benches(&base, &new, 30.0).unwrap().has_regressions());
    }

    #[test]
    fn speedups_never_regress() {
        let base = bench_json(&[("planner/a", 1000.0)]);
        let new = bench_json(&[("planner/a", 10.0)]);
        let report = diff_benches(&base, &new, 5.0).unwrap();
        assert!(!report.has_regressions());
        assert!(report.rows[0].delta_pct < -90.0);
    }

    #[test]
    fn prefix_filter_scopes_the_gate() {
        let base = bench_json(&[("planner/round/exact_dp", 100.0), ("cluster/round", 100.0)]);
        let new = bench_json(&[("planner/round/exact_dp", 102.0), ("cluster/round", 300.0)]);
        // The cluster bench tripled, but a gate scoped to planner/round/
        // only sees the 2% drift.
        let scoped = diff_benches_filtered(&base, &new, 10.0, "planner/round/").unwrap();
        assert!(!scoped.has_regressions());
        assert_eq!(scoped.rows.len(), 1);
        assert_eq!(scoped.rows[0].name, "planner/round/exact_dp");
        // Unscoped, the regression is caught; the empty prefix is the
        // plain diff.
        assert!(
            diff_benches_filtered(&base, &new, 10.0, "")
                .unwrap()
                .rows
                .len()
                == 2
        );
        assert!(diff_benches(&base, &new, 10.0).unwrap().has_regressions());
    }

    #[test]
    fn renames_are_reported_but_do_not_fail() {
        let base = bench_json(&[("planner/old", 100.0)]);
        let new = bench_json(&[("planner/new", 100.0)]);
        let report = diff_benches(&base, &new, 5.0).unwrap();
        assert!(!report.has_regressions());
        assert_eq!(report.only_in_base, ["planner/old"]);
        assert_eq!(report.only_in_new, ["planner/new"]);
    }

    #[test]
    fn malformed_bench_files_error_with_context() {
        let good = bench_json(&[("planner/a", 100.0)]);
        assert!(diff_benches("nope", &good, 5.0)
            .unwrap_err()
            .contains("baseline"));
        assert!(diff_benches(&good, "{}", 5.0)
            .unwrap_err()
            .contains("candidate"));
        let no_median = r#"{"results": [{"name": "x"}]}"#;
        assert!(diff_benches(&good, no_median, 5.0)
            .unwrap_err()
            .contains("median_ns"));
    }

    #[test]
    fn report_display_flags_regressions() {
        let base = bench_json(&[("planner/a", 100.0)]);
        let new = bench_json(&[("planner/a", 150.0)]);
        let report = diff_benches(&base, &new, 10.0).unwrap();
        let text = report.to_string();
        assert!(text.contains("REGRESSION"), "{text}");
        assert!(text.contains("+50.0%"), "{text}");
    }
}
