//! `cargo run -p basecache-bench --release` — the headline planner
//! benchmark suite, including the observability overhead comparison.
//! Writes `BENCH_planner.json` at the repo root; see
//! [`basecache_bench::planner_suite`] for what is measured. The other
//! bench targets (`knapsack_solvers`, `cluster`, `sim_engine`, `figures`,
//! `cache_policies`) run under `cargo bench`.
//!
//! `cargo run -p basecache-bench --release -- diff <base> <new> ...`
//! delegates to the [`basecache_trace`] regression gate, so the suite
//! and its gate ship as one tool: run the suite, then diff the fresh
//! `BENCH_planner.json` against the committed baseline.
//!
//! `cargo run -p basecache-bench --release -- massive [--smoke]` runs
//! the round-engine suite ([`basecache_bench::massive_suite`]) on its
//! own, without rewriting the JSON.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("diff") => return run_diff(&args[1..]),
        // `massive [--smoke]`: the round-engine suite standalone —
        // `--smoke` runs it at reduced scale (scripts/check.sh uses
        // this so the pipeline executes on every check).
        Some("massive") => {
            basecache_bench::massive_suite::run_standalone(args.iter().any(|a| a == "--smoke"));
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    basecache_bench::planner_suite::run();
    ExitCode::SUCCESS
}

/// `diff <base.json> <new.json> [--threshold-pct N] [--warn-only]`,
/// matching the `basecache-trace` CLI flags.
fn run_diff(rest: &[String]) -> ExitCode {
    let mut threshold_pct = 10.0f64;
    let mut warn_only = false;
    let mut files = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--threshold-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => threshold_pct = v,
                None => return diff_usage(),
            },
            "--warn-only" => warn_only = true,
            other if !other.starts_with('-') => files.push(other.to_string()),
            _ => return diff_usage(),
        }
    }
    let [base_path, new_path] = files.as_slice() else {
        return diff_usage();
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("bench diff: cannot read {path}: {e}");
            ExitCode::from(2)
        })
    };
    let (base, new) = match (read(base_path), read(new_path)) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    match basecache_trace::diff_benches(&base, &new, threshold_pct) {
        Ok(report) => {
            println!("{report}");
            if report.has_regressions() && !warn_only {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("bench diff: {e}");
            ExitCode::FAILURE
        }
    }
}

fn diff_usage() -> ExitCode {
    eprintln!("usage: bench diff <base.json> <new.json> [--threshold-pct N] [--warn-only]");
    ExitCode::from(2)
}
