//! A minimal, dependency-free timing harness.
//!
//! `cargo bench` runs each bench target as a plain binary
//! (`harness = false`); this module provides the warmup → calibrate →
//! sample loop those binaries share. Per benchmark it reports the
//! per-iteration **median**, **mean** and **min** over a fixed number of
//! samples, where each sample times enough iterations to amortize clock
//! overhead.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 15;
/// Warmup budget before calibration.
const WARMUP: Duration = Duration::from_millis(200);
/// Target wall-clock length of one timed sample.
const MIN_SAMPLE_TIME: Duration = Duration::from_millis(10);
/// Floor on iterations batched into one timed sample. A single slow
/// warmup call (first-touch page faults, a scheduler hiccup) used to
/// calibrate expensive benches down to one iteration per sample, which
/// makes every sample a raw clock read of a noisy call; at least two
/// iterations amortizes one-off spikes into the sample mean.
const MIN_ITERS_PER_SAMPLE: u64 = 2;

/// One benchmark's timing summary. All figures are nanoseconds per
/// iteration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// The benchmark's name (slash-separated groups, Criterion style).
    pub name: String,
    /// Iterations batched into each timed sample.
    pub iters_per_sample: u64,
    /// Per-iteration nanoseconds, one entry per sample.
    pub samples_ns: Vec<f64>,
}

impl Measurement {
    /// Mean nanoseconds per iteration over all samples.
    pub fn mean_ns(&self) -> f64 {
        self.samples_ns.iter().sum::<f64>() / self.samples_ns.len() as f64
    }

    /// Median nanoseconds per iteration (midpoint average for even
    /// sample counts).
    pub fn median_ns(&self) -> f64 {
        let mut sorted = self.samples_ns.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
        let n = sorted.len();
        if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        }
    }

    /// Fastest observed sample, nanoseconds per iteration.
    pub fn min_ns(&self) -> f64 {
        self.samples_ns
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// One line of JSON for this measurement (no trailing newline).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"name\": \"{}\", \"median_ns\": {:.1}, \"mean_ns\": {:.1}, \"min_ns\": {:.1}, \"iters_per_sample\": {}, \"samples\": {}}}",
            self.name,
            self.median_ns(),
            self.mean_ns(),
            self.min_ns(),
            self.iters_per_sample,
            self.samples_ns.len(),
        )
    }
}

/// The body of a bench record's `"results"` array: one measurement per
/// line, the shape `basecache-trace diff` reads.
pub fn results_json(results: &[Measurement]) -> String {
    let lines: Vec<String> = results
        .iter()
        .map(|m| format!("    {}", m.to_json()))
        .collect();
    lines.join(",\n")
}

/// Write `BENCH_<bench>.json` at the repo root: a suite's measurements
/// under `"results"`, preceded by its headline figures — `(key, value)`
/// pairs, each value already rendered as JSON — if it has any.
pub fn write_record(bench: &str, headlines: &[(&str, String)], results: &[Measurement]) {
    let path = format!("{}/../../BENCH_{bench}.json", env!("CARGO_MANIFEST_DIR"));
    let headlines: String = headlines
        .iter()
        .map(|(key, value)| format!("  \"{key}\": {value},\n"))
        .collect();
    let out = format!(
        "{{\n  \"bench\": \"{bench}\",\n{headlines}  \"results\": [\n{}\n  ]\n}}\n",
        results_json(results)
    );
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("\nwrote {path}");
}

/// Time `f` with the default sample count and print a report line.
pub fn bench<T>(name: &str, f: impl FnMut() -> T) -> Measurement {
    bench_n(name, DEFAULT_SAMPLES, f)
}

/// Time `f` over `samples` timed samples (use fewer for expensive
/// whole-experiment benches) and print a report line.
pub fn bench_n<T>(name: &str, samples: usize, mut f: impl FnMut() -> T) -> Measurement {
    assert!(samples > 0, "need at least one sample");
    // Warmup, remembering the *fastest* call for calibration: the
    // steady-state cost is what the timed samples will see, and any
    // single warmup call can be inflated by first-touch effects.
    let warm_start = Instant::now();
    let mut calls = 0u32;
    let mut fastest = Duration::MAX;
    while calls < 3 || warm_start.elapsed() < WARMUP {
        let t = Instant::now();
        black_box(f());
        fastest = fastest.min(t.elapsed());
        calls += 1;
    }
    let per_call_ns = fastest.as_nanos().max(1);
    let iters_per_sample = (MIN_SAMPLE_TIME.as_nanos() / per_call_ns)
        .clamp(MIN_ITERS_PER_SAMPLE as u128, 1_000_000) as u64;

    let mut samples_ns = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..iters_per_sample {
            black_box(f());
        }
        samples_ns.push(t.elapsed().as_nanos() as f64 / iters_per_sample as f64);
    }
    let m = Measurement {
        name: name.to_string(),
        iters_per_sample,
        samples_ns,
    };
    report(&m);
    m
}

/// Time a *stateful* `f` — one whose cost depends on how often it has
/// run, such as a simulation round — on a fixed schedule: `warmup`
/// untimed calls, then `samples` samples of `iters` calls each, and
/// print a report line. [`bench_n`] warms up for a fixed *time*, so a
/// faster build would time later, differently hard calls; here every
/// build times the same ones.
pub fn bench_schedule<T>(
    name: &str,
    warmup: usize,
    samples: usize,
    iters: u64,
    mut f: impl FnMut() -> T,
) -> Measurement {
    assert!(samples > 0 && iters > 0, "need at least one timed call");
    for _ in 0..warmup {
        black_box(f());
    }
    let samples_ns = (0..samples)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    let m = Measurement {
        name: name.to_string(),
        iters_per_sample: iters,
        samples_ns,
    };
    report(&m);
    m
}

/// Print one aligned report line for a measurement.
pub fn report(m: &Measurement) {
    println!(
        "{:<48} median {:>12}  mean {:>12}  min {:>12}",
        m.name,
        format_ns(m.median_ns()),
        format_ns(m.mean_ns()),
        format_ns(m.min_ns()),
    );
}

/// Render nanoseconds with an adaptive unit (ns / µs / ms / s).
pub fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_are_consistent() {
        let m = Measurement {
            name: "t".into(),
            iters_per_sample: 1,
            samples_ns: vec![3.0, 1.0, 2.0, 10.0],
        };
        assert_eq!(m.median_ns(), 2.5);
        assert_eq!(m.mean_ns(), 4.0);
        assert_eq!(m.min_ns(), 1.0);
        assert!(m.to_json().contains("\"median_ns\": 2.5"));
        let two = results_json(&[m.clone(), m]);
        assert_eq!(two.lines().count(), 2);
        assert!(two.lines().next().unwrap().ends_with("},"));
        assert!(two.ends_with('}'));
    }

    #[test]
    fn bench_runs_and_reports() {
        let mut x = 0u64;
        let m = bench_n("harness/self_test", 3, || {
            x = x.wrapping_add(1);
            x
        });
        assert_eq!(m.samples_ns.len(), 3);
        assert!(m.min_ns() >= 0.0);
    }

    #[test]
    fn slow_benches_keep_the_min_iters_floor() {
        // A call longer than the sample target would calibrate to one
        // iteration per sample without the floor.
        let m = bench_n("harness/slow_floor", 1, || {
            std::thread::sleep(Duration::from_millis(12))
        });
        assert_eq!(m.iters_per_sample, MIN_ITERS_PER_SAMPLE);
    }

    #[test]
    fn format_picks_sane_units() {
        assert!(format_ns(12.0).ends_with("ns"));
        assert!(format_ns(12_000.0).ends_with("µs"));
        assert!(format_ns(12_000_000.0).ends_with("ms"));
        assert!(format_ns(12_000_000_000.0).ends_with("s"));
    }
}
