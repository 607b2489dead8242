//! Snapshot exporters: hand-rolled JSON and CSV (the workspace has no
//! serialization dependency), consumed by `basecache-experiments`'
//! reports and the bench harness.

use std::fmt::Write as _;

use crate::snapshot::Snapshot;

/// Render a snapshot as pretty-printed JSON with `counters`, `samples`,
/// `spans` and `attrs` sections.
pub fn to_json(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {");
    for (i, c) in snapshot.counters.iter().enumerate() {
        let comma = if i + 1 < snapshot.counters.len() {
            ","
        } else {
            ""
        };
        let _ = write!(out, "\n    \"{}\": {}{comma}", c.name, c.value);
    }
    if !snapshot.counters.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n  \"samples\": [");
    for (i, s) in snapshot.samples.iter().enumerate() {
        let comma = if i + 1 < snapshot.samples.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"count\": {}, \"mean\": {}, \"std_dev\": {}, \
             \"min\": {}, \"max\": {}, \"p95\": {}}}{comma}",
            s.name,
            s.count,
            json_f64(s.mean),
            json_f64(s.std_dev),
            json_f64(s.min),
            json_f64(s.max),
            json_f64(s.p95),
        );
    }
    if !snapshot.samples.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"spans\": [");
    for (i, s) in snapshot.spans.iter().enumerate() {
        let comma = if i + 1 < snapshot.spans.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"name\": \"{}\", \"count\": {}, \"total_ns\": {}, \
             \"mean_ns\": {}, \"p95_ns\": {}}}{comma}",
            s.name,
            s.count,
            s.total_ns,
            json_f64(s.mean_ns),
            json_f64(s.p95_ns),
        );
    }
    if !snapshot.spans.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"attrs\": [");
    for (i, a) in snapshot.attrs.iter().enumerate() {
        let comma = if i + 1 < snapshot.attrs.len() {
            ","
        } else {
            ""
        };
        let _ = write!(
            out,
            "\n    {{\"channel\": \"{}\", \"label\": {}, \"weight\": {}, \
             \"error\": {}}}{comma}",
            a.channel,
            json_str(&a.label),
            a.weight,
            a.error,
        );
    }
    if !snapshot.attrs.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Render a snapshot as CSV: one row per entry, with a `kind` column
/// distinguishing counters, samples, spans and attribution rows.
///
/// Columns: `kind,name,count,value,mean,std_dev,min,max,p95`. Counters
/// fill `value` only; samples fill the distribution columns; spans report
/// nanoseconds with `value` = `total_ns`; attribution rows name the
/// entity as `channel/label`, fill `value` with the estimated weight and
/// `max` with its Space-Saving error bound. Fields are quoted per
/// RFC 4180 when they contain commas, quotes or newlines — attribution
/// labels are dynamic, so this is load-bearing, not defensive.
pub fn to_csv(snapshot: &Snapshot) -> String {
    let mut out = String::from("kind,name,count,value,mean,std_dev,min,max,p95\n");
    for c in &snapshot.counters {
        let _ = writeln!(out, "counter,{},,{},,,,,", csv_field(c.name), c.value);
    }
    for s in &snapshot.samples {
        let _ = writeln!(
            out,
            "sample,{},{},,{},{},{},{},{}",
            csv_field(s.name),
            s.count,
            s.mean,
            s.std_dev,
            s.min,
            s.max,
            s.p95
        );
    }
    for s in &snapshot.spans {
        let _ = writeln!(
            out,
            "span,{},{},{},{},,,,{}",
            csv_field(s.name),
            s.count,
            s.total_ns,
            s.mean_ns,
            s.p95_ns
        );
    }
    for a in &snapshot.attrs {
        let name = format!("{}/{}", a.channel, a.label);
        let _ = writeln!(
            out,
            "attr,{},,{},,,,{},",
            csv_field(&name),
            a.weight,
            a.error
        );
    }
    out
}

/// A finite `f64` rendered so it round-trips as JSON (no NaN/inf tokens).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// A string rendered as a quoted JSON string with escapes. Static id
/// names never need this, but attribution labels are dynamic.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A CSV field quoted per RFC 4180 when it contains a comma, quote or
/// line break; passed through verbatim otherwise.
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{Attr, Event, Sample, Stage};
    use crate::json::Value;
    use crate::recorder::Recorder;
    use crate::snapshot::{AttrSnapshot, CounterSnapshot, SampleSnapshot, SpanSnapshot};
    use crate::stats::StatsRecorder;
    use crate::topk::TopKRecorder;
    use basecache_sim::StreamRng;

    fn snapshot() -> Snapshot {
        let rec = StatsRecorder::new();
        rec.add(Event::Rounds, 3);
        rec.add(Event::UnitsDownloaded, 120);
        rec.sample(Sample::BatchSize, 10.0);
        rec.sample(Sample::BatchSize, 20.0);
        rec.span_ns(Stage::Plan, 1_500);
        rec.snapshot()
    }

    fn snapshot_with_attrs() -> Snapshot {
        let topk = TopKRecorder::new(4);
        topk.attribute(Attr::DownlinkUnitsByObject, 7, 40);
        topk.attribute(Attr::DownlinkUnitsByCell, 3, 9);
        let mut snap = snapshot();
        snap.attrs = topk.snapshot().attrs;
        snap
    }

    #[test]
    fn json_contains_every_section() {
        let json = to_json(&snapshot());
        assert!(json.contains("\"rounds\": 3"));
        assert!(json.contains("\"units_downloaded\": 120"));
        assert!(json.contains("\"name\": \"batch_size\", \"count\": 2, \"mean\": 15"));
        assert!(json.contains("\"name\": \"plan\", \"count\": 1, \"total_ns\": 1500"));
    }

    #[test]
    fn empty_snapshot_is_valid_json_scaffolding() {
        let json = to_json(&Snapshot::default());
        assert!(json.contains("\"counters\": {}"));
        assert!(json.contains("\"samples\": []"));
        assert!(json.contains("\"spans\": []"));
        assert!(json.contains("\"attrs\": []"));
        crate::json::parse(&json).expect("scaffolding parses");
    }

    #[test]
    fn csv_has_one_row_per_entry_plus_header() {
        let csv = to_csv(&snapshot_with_attrs());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "kind,name,count,value,mean,std_dev,min,max,p95");
        assert_eq!(lines.len(), 1 + 2 + 1 + 1 + 2);
        // Counters leave the observation-count column empty: a counter
        // has a value, not a number of observations.
        assert!(lines.iter().any(|l| l.starts_with("counter,rounds,,3")));
        assert!(lines.iter().any(|l| l.starts_with("sample,batch_size,2")));
        assert!(lines.iter().any(|l| l.starts_with("span,plan,1,1500")));
        assert!(lines
            .iter()
            .any(|l| l.starts_with("attr,downlink_units_by_object/obj#7,,40")));
    }

    #[test]
    fn csv_quotes_comma_bearing_names_per_rfc4180() {
        let mut snap = Snapshot::default();
        snap.attrs.push(AttrSnapshot {
            channel: "downlink_units_by_object",
            label: "obj#7, partition \"A\"".to_string(),
            weight: 12,
            error: 0,
        });
        let csv = to_csv(&snap);
        let row = csv.lines().nth(1).expect("one attr row");
        assert_eq!(
            row,
            "attr,\"downlink_units_by_object/obj#7, partition \"\"A\"\"\",,12,,,,0,"
        );
        // The quoted field still reads back as one field: splitting on
        // raw commas outside quotes yields the 9 schema columns.
        let mut fields = 1;
        let mut in_quotes = false;
        for c in row.chars() {
            match c {
                '"' => in_quotes = !in_quotes,
                ',' if !in_quotes => fields += 1,
                _ => {}
            }
        }
        assert_eq!(fields, 9);
    }

    /// The tree [`to_json`] promises for `snap`.
    fn expected_tree(snap: &Snapshot) -> Value {
        let num = Value::Number;
        let text = |s: &str| Value::String(s.to_string());
        let obj = |pairs: Vec<(&str, Value)>| {
            Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
        };
        let counters = snap.counters.iter().map(|c| (c.name, num(c.value as f64)));
        let samples = snap.samples.iter().map(|s| {
            obj(vec![
                ("name", text(s.name)),
                ("count", num(s.count as f64)),
                ("mean", num(s.mean)),
                ("std_dev", num(s.std_dev)),
                ("min", num(s.min)),
                ("max", num(s.max)),
                ("p95", num(s.p95)),
            ])
        });
        let spans = snap.spans.iter().map(|s| {
            obj(vec![
                ("name", text(s.name)),
                ("count", num(s.count as f64)),
                ("total_ns", num(s.total_ns as f64)),
                ("mean_ns", num(s.mean_ns)),
                ("p95_ns", num(s.p95_ns)),
            ])
        });
        let attrs = snap.attrs.iter().map(|a| {
            obj(vec![
                ("channel", text(a.channel)),
                ("label", text(&a.label)),
                ("weight", num(a.weight as f64)),
                ("error", num(a.error as f64)),
            ])
        });
        obj(vec![
            ("counters", obj(counters.collect())),
            ("samples", Value::Array(samples.collect())),
            ("spans", Value::Array(spans.collect())),
            ("attrs", Value::Array(attrs.collect())),
        ])
    }

    /// A snapshot with arbitrary finite floats and dynamic labels full of
    /// quotes, backslashes, control characters and non-BMP text.
    fn random_snapshot(rng: &mut StreamRng) -> Snapshot {
        const PALETTE: [char; 10] = ['x', '#', ',', '"', '\\', '\n', '\u{7}', 'é', '€', '😀'];
        let float = |rng: &mut StreamRng| {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                x
            } else {
                rng.random()
            }
        };
        let mut snap = Snapshot::default();
        for e in Event::ALL {
            if rng.random_range(0..4u32) == 0 {
                let value = rng.next_u64();
                snap.counters.push(CounterSnapshot {
                    name: e.name(),
                    value,
                });
            }
        }
        for s in Sample::ALL.iter().take(rng.random_range(0..4usize)) {
            snap.samples.push(SampleSnapshot {
                name: s.name(),
                count: rng.next_u64(),
                mean: float(rng),
                std_dev: float(rng),
                min: float(rng),
                max: float(rng),
                p95: float(rng),
            });
        }
        for s in Stage::ALL.iter().take(rng.random_range(0..3usize)) {
            snap.spans.push(SpanSnapshot {
                name: s.name(),
                count: rng.next_u64(),
                total_ns: rng.next_u64(),
                mean_ns: float(rng),
                p95_ns: float(rng),
            });
        }
        for _ in 0..rng.random_range(0..5usize) {
            let len = rng.random_range(0..10usize);
            snap.attrs.push(AttrSnapshot {
                channel: Attr::ALL[rng.random_range(0..Attr::ALL.len())].name(),
                label: (0..len)
                    .map(|_| PALETTE[rng.random_range(0..PALETTE.len())])
                    .collect(),
                weight: rng.next_u64(),
                error: rng.next_u64(),
            });
        }
        snap
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let round_trip = |snap: &Snapshot| {
            let json = to_json(snap);
            assert_eq!(crate::json::parse(&json), Ok(expected_tree(snap)), "{json}");
        };
        round_trip(&snapshot_with_attrs());
        basecache_sim::check::run_cases("obs/export/round-trip", 128, |_, rng| {
            round_trip(&random_snapshot(rng));
        });
    }
}
