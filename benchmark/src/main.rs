//! The basecache end-to-end benchmark: one process, one pinned thread,
//! one workload. See `README.md` beside `Cargo.toml` for the method.
//!
//! ```text
//! basecache-benchmark --workload W [--seed N] [--seconds S] [--trace 0|1]
//!                     [--out DIR] [--smoke]
//! ```
//!
//! `--trace 0` (default) repeats identical untraced passes for about
//! `--seconds` and reports the end-to-end metrics; `--trace 1` runs two
//! untraced passes, one traced pass, the verify pass and the layer
//! replays, and reports the per-layer metrics. Either way the last line
//! of standard output is the result as one JSON object, and the exit
//! code is non-zero if any check failed.

mod cluster;
mod engine;
mod host;
mod metrics;
mod recorder;
mod replay;
mod sim;
mod station;
mod stats;

use std::io::Write;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use basecache_obs::{Event, Sample, Stage};

use crate::metrics::{ratio, Metrics, END_TO_END, PER_LAYER};
use crate::recorder::TraceLog;
use crate::sim::{Observe, RoundFacts, Sim, Tape};
use crate::stats::{gated, merge_min, p50_p95, Digest};

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

/// The four workloads, by the names `BENCHMARK.json` gives them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    StationPaper,
    StationInflight,
    EngineMassive,
    ClusterRoaming,
}

/// Warm-up and timed rounds of one pass, and of the (shorter) verify
/// pass. Sized so that a pass takes a few seconds and the driver's whole
/// schedule of runs fits its time cap; never fewer than 200 timed
/// rounds, so at least ten samples lie beyond the 95th percentile.
#[derive(Debug, Clone, Copy)]
struct Rounds {
    warmup: usize,
    timed: usize,
    verify_warmup: usize,
    verify_timed: usize,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        Some(match name {
            "station-paper" => Self::StationPaper,
            "station-inflight" => Self::StationInflight,
            "engine-massive" => Self::EngineMassive,
            "cluster-roaming" => Self::ClusterRoaming,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Self::StationPaper => "station-paper",
            Self::StationInflight => "station-inflight",
            Self::EngineMassive => "engine-massive",
            Self::ClusterRoaming => "cluster-roaming",
        }
    }

    fn rounds(self, smoke: bool) -> Rounds {
        let full = match self {
            Self::StationPaper | Self::StationInflight => Rounds {
                warmup: 500,
                timed: 3_000,
                verify_warmup: 100,
                verify_timed: 500,
            },
            Self::EngineMassive => Rounds {
                warmup: 80,
                timed: 200,
                verify_warmup: 10,
                verify_timed: 31,
            },
            Self::ClusterRoaming => Rounds {
                warmup: 200,
                timed: 1_000,
                verify_warmup: 100,
                verify_timed: 500,
            },
        };
        if !smoke {
            return full;
        }
        Rounds {
            warmup: full.warmup / 50,
            timed: (full.timed / 50).max(20),
            verify_warmup: full.verify_warmup / 50,
            verify_timed: (full.verify_timed / 50).max(11),
        }
    }

    /// Generate the fixture from `seed` and construct the program, ready
    /// to step `rounds` rounds.
    fn build(self, seed: u64, smoke: bool, rounds: usize, observe: &Observe) -> Box<dyn Sim> {
        match self {
            Self::StationPaper => Box::new(station::Station::build(seed, false, rounds, observe)),
            Self::StationInflight => Box::new(station::Station::build(seed, true, rounds, observe)),
            Self::EngineMassive => {
                let scale = if smoke { engine::SMOKE } else { engine::FULL };
                Box::new(engine::Engine::build(seed, scale, rounds, observe))
            }
            Self::ClusterRoaming => {
                let clients = if smoke { 64 } else { 3_200 };
                Box::new(cluster::Cluster::build(seed, clients, observe))
            }
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        // Replaced below: the flag is required.
        workload: Workload::StationPaper,
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
        out: "out".to_string(),
    };
    let mut workload = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--out" => args.out = value()?,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// What one pass over a workload measured.
#[derive(Debug, Default)]
struct Pass {
    /// Pass start to first timed round: fixture, construction, warm-up.
    setup_s: f64,
    /// Wall time of each timed round (updates and churn, then the step).
    round_ns: Vec<u64>,
    /// Per timed round: the slower of the reference-kernel runs just
    /// before and just after it.
    gate_ns: Vec<u64>,
    digest: u64,
    issued: u64,
    served: u64,
    units: u64,
    cache_hits: u64,
    /// Σ over timed rounds of mean score × requests answered.
    score_sum: f64,
    wait_ticks: f64,
    attempted: u64,
    failed: u64,
    /// The first few failures, for the report.
    failures: Vec<String>,
    allocations: u64,
    allocated_bytes: u64,
}

impl Pass {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }
}

/// Which rounds a pass steps and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// Full length, plain rounds.
    Measure,
    /// Verify length, rounds re-planned with the exact DP.
    Verify,
}

/// Invariants every round must keep, whatever the workload.
fn check_round(
    facts: &RoundFacts,
    issued_so_far: u64,
    served_so_far: u64,
    cap: Option<u64>,
) -> Result<(), String> {
    let unit = |x: f64| x.is_finite() && (0.0..=1.0).contains(&x);
    if !unit(facts.score) || !unit(facts.recency) {
        return Err(format!(
            "round {}: score {} or recency {} outside [0, 1]",
            facts.tick, facts.score, facts.recency
        ));
    }
    if served_so_far + facts.still_waiting != issued_so_far {
        return Err(format!(
            "round {}: {served_so_far} answered + {} waiting != {issued_so_far} issued",
            facts.tick, facts.still_waiting
        ));
    }
    if cap.is_some_and(|cap| facts.units > cap) {
        return Err(format!(
            "round {}: {} units downloaded over a budget of {cap:?}",
            facts.tick, facts.units
        ));
    }
    Ok(())
}

/// One pass: build from the seed, warm up, then time every round. The
/// program is returned for the caller to read layer metrics off.
fn run_pass(
    args: &Args,
    observe: &Observe,
    kind: Kind,
    mut tape: Option<&mut Tape>,
) -> (Pass, Box<dyn Sim>) {
    let rounds = args.workload.rounds(args.smoke);
    let (warmup, timed) = match kind {
        Kind::Measure => (rounds.warmup, rounds.timed),
        Kind::Verify => (rounds.verify_warmup, rounds.verify_timed),
    };
    let mut pass = Pass {
        round_ns: Vec::with_capacity(timed),
        gate_ns: Vec::with_capacity(timed),
        attempted: timed as u64,
        ..Pass::default()
    };

    let started = Instant::now();
    let mut sim = args
        .workload
        .build(args.seed, args.smoke, warmup + timed, observe);
    // Requests issued and answered since round 0: requests parked during
    // warm-up are answered in timed rounds, so conservation is checked
    // on running totals.
    let (mut issued, mut served) = (0u64, 0u64);
    for i in 0..warmup {
        let facts = sim.round(i);
        issued += facts.issued;
        served += facts.served;
    }
    sim.warmed_up();
    if let Observe::Trace(log) = observe {
        log.lock().expect("single-threaded").reset();
    }
    let waited_before = sim.wait_ticks();
    let cap = sim.unit_cap();
    pass.setup_s = started.elapsed().as_secs_f64();

    let mut digest = Digest::default();
    let counting = matches!(observe, Observe::Nothing);
    if counting {
        host::start_counting();
    }
    let mut kernel_before = host::reference_kernel_ns();
    for i in warmup..warmup + timed {
        let started = Instant::now();
        let outcome = catch_unwind(AssertUnwindSafe(|| match kind {
            Kind::Measure => Ok(sim.round(i)),
            Kind::Verify => sim.checked_round(i),
        }));
        let elapsed = started.elapsed();
        let kernel_after = host::reference_kernel_ns();
        let gate = kernel_before.max(kernel_after);
        kernel_before = kernel_after;
        let facts = match outcome {
            Ok(Ok(facts)) => facts,
            Ok(Err(mismatch)) => {
                pass.fail(mismatch);
                continue;
            }
            Err(_) => {
                // The program's state is unknown after a panic: the rest
                // of the pass counts as failed.
                let rest = (warmup + timed - i) as u64;
                pass.fail(format!("round {i} panicked; {rest} rounds lost"));
                pass.failed += rest - 1;
                break;
            }
        };
        pass.round_ns.push(elapsed.as_nanos() as u64);
        pass.gate_ns.push(gate);
        issued += facts.issued;
        served += facts.served;
        if let Err(broken) = check_round(&facts, issued, served, cap) {
            pass.fail(broken);
        }
        pass.issued += facts.issued;
        pass.served += facts.served;
        pass.units += facts.units;
        pass.cache_hits += facts.cache_hits;
        pass.score_sum += facts.score * facts.served as f64;
        for word in [
            facts.tick,
            facts.issued,
            facts.served,
            facts.still_waiting,
            facts.units,
            facts.cache_hits,
        ] {
            digest.u64(word);
        }
        digest.f64(facts.score);
        digest.f64(facts.recency);
        facts.extra.iter().for_each(|&word| digest.u64(word));
        if let Some(tape) = tape.as_deref_mut() {
            sim.record(i, tape);
        }
    }
    if counting {
        (pass.allocations, pass.allocated_bytes) = host::stop_counting();
    }
    pass.digest = digest.value();
    pass.wait_ticks = sim.wait_ticks() - waited_before;
    (pass, sim)
}

/// Print a fact that is not a metric, in the metrics' layout.
fn note(name: &str, value: impl std::fmt::Display) {
    println!("{name:<40} {value}");
}

/// What a run reports on its last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Metrics,
}

/// Sum the passes' failures into the report's counts, printing the first
/// few of each.
fn tally<'a>(passes: impl IntoIterator<Item = &'a Pass>) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    for pass in passes {
        attempted += pass.attempted;
        failed += pass.failed;
        for failure in &pass.failures {
            println!("FAILED {failure}");
        }
    }
    (attempted, failed)
}

/// A reference-kernel run this much slower than the run's fastest marks
/// the host as slowed by something else for the moment.
const GATE_TOLERANCE: f64 = 1.06;

/// Per-round minima over the passes' samples taken at full host speed
/// (rounds never seen at full speed left out), the same over every
/// sample, and the fastest reference-kernel run.
fn merge_passes(passes: &[Pass]) -> (Vec<u64>, Vec<u64>, u64) {
    // A pass cut short by a panic has no time for its lost rounds.
    let complete = || {
        passes
            .iter()
            .filter(|p| p.round_ns.len() as u64 == p.attempted)
    };
    let fastest_kernel = complete()
        .flat_map(|p| &p.gate_ns)
        .min()
        .copied()
        .unwrap_or(0);
    let limit = (fastest_kernel as f64 * GATE_TOLERANCE) as u64;
    let (mut clean, mut every) = (Vec::new(), Vec::new());
    for pass in complete() {
        merge_min(&mut clean, &gated(&pass.round_ns, &pass.gate_ns, limit));
        merge_min(&mut every, &pass.round_ns);
    }
    clean.retain(|&ns| ns != u64::MAX);
    (clean, every, fastest_kernel)
}

/// `--trace 0`: identical untraced passes for about `--seconds` (at
/// least three; half as long again while fewer than half the rounds
/// have been seen at full host speed); for every round its fastest clean
/// sighting; end-to-end metrics.
fn measure(args: &Args) -> Report {
    let started = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let (clean, every, fastest_kernel) = loop {
        passes.push(run_pass(args, &Observe::Nothing, Kind::Measure, None).0);
        let merged = merge_passes(&passes);
        let n = passes.len();
        let spent = started.elapsed().as_secs_f64();
        let next_ends = spent + spent / n as f64;
        let enough = if args.smoke {
            n >= 2
        } else if merged.0.len() * 2 < merged.1.len() {
            n >= 3 && next_ends > args.seconds * 1.5
        } else {
            n >= 3 && next_ends > args.seconds
        };
        if enough || n >= 40 {
            break merged;
        }
    };
    let first = &passes[0];
    let (attempted, failed) = tally(&passes);
    // The host's slow spells do not know which round is running, so the
    // rounds seen at full speed are a fair sample of all of them.
    let merged = if clean.len() >= 50.min(every.len()) {
        &clean
    } else {
        println!("NOTE too few rounds seen at full speed; using every sample");
        &every
    };

    let same_outcome = passes.iter().all(|p| p.digest == first.digest);
    if !same_outcome {
        println!("FAILED passes of one seed disagree on the outcome digest");
    }
    let (ungated_p50, ungated_p95) = p50_p95(&every);
    note("passes", passes.len());
    note("timed_rounds_per_pass", every.len());
    note("rounds_seen_at_full_speed", clean.len());
    note("reference_kernel_ns", fastest_kernel);
    note("ungated_round_p50_us", ungated_p50 as f64 / 1e3);
    note("ungated_round_p95_us", ungated_p95 as f64 / 1e3);
    note("outcome_digest", format_args!("{:016x}", first.digest));

    let (p50, p95) = p50_p95(merged);
    let total_ns: u64 = merged.iter().sum();
    let issued_per_round = first.issued as f64 / first.attempted as f64;
    let fastest_setup = passes
        .iter()
        .map(|p| p.setup_s)
        .fold(f64::INFINITY, f64::min);
    let mut m = Metrics::new(END_TO_END);
    m.set("setup_s", fastest_setup);
    m.set(
        "requests_per_s",
        ratio(
            issued_per_round * merged.len() as f64 * 1e9,
            total_ns as f64,
        ),
    );
    m.set("round_p50_us", p50 as f64 / 1e3);
    m.set("round_p95_us", p95 as f64 / 1e3);
    m.set("avg_score", ratio(first.score_sum, first.served as f64));
    m.set(
        "origin_units_per_request",
        ratio(first.units as f64, first.issued as f64),
    );
    m.set(
        "response_rounds_mean",
        1.0 + ratio(first.wait_ticks, first.served as f64),
    );
    m.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(-1.0));

    Report {
        correct: same_outcome && failed == 0,
        attempted,
        failed,
        metrics: m,
    }
}

/// The `core.*` and `knapsack.*` metrics every workload shares, read
/// off the traced pass's log. Stage means are per station step, so the
/// children of a step sum (with the unattributed rest) to its mean.
fn span_metrics(log: &TraceLog, rounds: usize, m: &mut Metrics) {
    let total_us = |stage| log.durations(stage).iter().sum::<u64>() as f64 / 1e3;
    let steps = log.durations(Stage::Step).len() as f64;
    let per_step = |stage| ratio(total_us(stage), steps);
    let step = per_step(Stage::Step);
    let fetch = per_step(Stage::Fetch);
    let recency = per_step(Stage::Recency);
    let plan = per_step(Stage::Plan);
    let solve = per_step(Stage::Solve);
    let refresh = per_step(Stage::Refresh);
    let serve = per_step(Stage::Serve);
    let children = fetch + recency + plan + refresh + serve;
    m.set("core.step_us_mean", step);
    m.set("core.fetch_us_mean", fetch);
    m.set("core.recency_us_mean", recency);
    m.set("core.assemble_us_mean", plan - solve);
    m.set("core.refresh_us_mean", refresh);
    m.set("core.serve_us_mean", serve);
    m.set("core.unattributed_us_mean", step - children);
    m.set("core.span_coverage", ratio(children, step));
    m.set(
        "core.engine.dirty_objects_mean",
        log.sample_mean(Sample::DirtyObjects),
    );
    m.set(
        "core.engine.rescored_requests_mean",
        log.sample_mean(Sample::RescoredRequests),
    );

    let solves = log.durations(Stage::Solve);
    let solved = solves.len() as f64;
    m.set(
        "knapsack.solve_us_mean",
        ratio(total_us(Stage::Solve), solved),
    );
    m.set("knapsack.solve_us_p95", p50_p95(&solves).1 as f64 / 1e3);
    m.set(
        "knapsack.items_mean",
        ratio(log.counter(Event::KnapsackItems) as f64, solved),
    );
    m.set("knapsack.core_size_mean", log.sample_mean(Sample::CoreSize));
    m.set(
        "knapsack.items_fixed_mean",
        log.sample_mean(Sample::ItemsFixed),
    );
    m.set(
        "knapsack.core_rounds_mean",
        log.sample_mean(Sample::CoreRounds),
    );
    m.set(
        "knapsack.dp_cells_per_round",
        log.counter(Event::DpCellsTouched) as f64 / rounds as f64,
    );
    m.set(
        "knapsack.certified_exit_ratio",
        ratio(
            log.certified_exits as f64,
            log.sample_count(Sample::SolverChosen) as f64,
        ),
    );
}

/// Spans written to the trace file: the head of the timed rounds. Every
/// span stays in memory for the metrics; the file is capped because
/// `basecache-trace validate` takes time quadratic in the event count
/// (34 s for 18 000 events).
const TRACE_FILE_SPANS: usize = 4_000;

/// `--trace 1`: two untraced passes, the traced pass, the verify pass
/// and the layer replays; per-layer metrics.
fn trace(args: &Args, fans_out: bool, pinned: bool) -> std::io::Result<Report> {
    let rounds = args.workload.rounds(args.smoke).timed;
    let (first, _) = run_pass(args, &Observe::Nothing, Kind::Measure, None);
    let (second, _) = run_pass(args, &Observe::Nothing, Kind::Measure, None);
    let single_p50 = p50_p95(&first.round_ns).0 as f64;
    let second_p50 = p50_p95(&second.round_ns).0 as f64;

    let log = Arc::new(Mutex::new(TraceLog::default()));
    let mut tape = Tape::default();
    let (traced, sim) = run_pass(
        args,
        &Observe::Trace(Arc::clone(&log)),
        Kind::Measure,
        Some(&mut tape),
    );
    let log = log.lock().expect("single-threaded");
    let traced_mean_us = ratio(
        traced.round_ns.iter().sum::<u64>() as f64 / 1e3,
        traced.round_ns.len() as f64,
    );

    let mut m = Metrics::new(PER_LAYER);
    span_metrics(&log, rounds, &mut m);
    sim.layer_metrics(rounds, &mut m);
    drop(sim);
    replay::replay_layers(&tape, &mut m);
    m.set(
        "core.cache_hit_ratio",
        ratio(traced.cache_hits as f64, traced.served as f64),
    );
    if args.workload == Workload::ClusterRoaming {
        // One cluster round is sixteen station steps plus coordination.
        let cells = ratio(
            log.durations(Stage::Step).iter().sum::<u64>() as f64 / 1e3,
            rounds as f64,
        );
        let advance = m.get("workload.cluster_advance_us_mean");
        m.set("cluster.step_us_mean", traced_mean_us);
        m.set("cluster.cells_us_mean", cells);
        m.set("cluster.overhead_us_mean", traced_mean_us - cells - advance);
    }
    m.set(
        "obs.trace_overhead_ratio",
        ratio(p50_p95(&traced.round_ns).0 as f64, single_p50),
    );
    m.set(
        "alloc.count_per_round",
        first.allocations as f64 / rounds as f64,
    );
    m.set(
        "alloc.bytes_per_round",
        first.allocated_bytes as f64 / rounds as f64,
    );
    m.set("sim.pool_fans_out", f64::from(u8::from(fans_out)));
    m.set("host.pinned", f64::from(u8::from(pinned)));
    m.set(
        "host.pass_spread",
        ratio(single_p50.max(second_p50), single_p50.min(second_p50)),
    );
    m.set("host.single_pass_p50_us", single_p50 / 1e3);

    std::fs::create_dir_all(&args.out)?;
    let path = format!("{}/{}.trace.json", args.out, args.workload.name());
    let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
    log.write_chrome_trace(&mut file, TRACE_FILE_SPANS)?;
    file.flush()?;
    note("trace", &path);

    let (verified, sim) = run_pass(args, &Observe::Causal, Kind::Verify, None);
    let violations = sim.monitor_violations();
    m.set("obs.monitor_violations", violations as f64);
    if violations > 0 {
        println!("FAILED the invariant monitor counted {violations} violations");
    }

    let same_outcome = first.digest == second.digest && first.digest == traced.digest;
    if !same_outcome {
        println!(
            "FAILED outcome digests differ: untraced {:016x} and {:016x}, traced {:016x}",
            first.digest, second.digest, traced.digest
        );
    }
    note("outcome_digest", format_args!("{:016x}", first.digest));
    let (attempted, failed) = tally([&first, &second, &traced, &verified]);
    Ok(Report {
        correct: same_outcome && failed == 0 && violations == 0,
        attempted,
        failed,
        metrics: m,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(problem) => {
            eprintln!("basecache-benchmark: {problem}");
            return ExitCode::from(2);
        }
    };
    // Whether a worker pool would fan out here, asked before pinning
    // narrows the answer. The benchmark itself never uses one: parallel
    // paths are out of scope until the host has four cores.
    let fans_out = std::thread::available_parallelism().is_ok_and(|n| n.get() > 1);
    let pinned = host::pin_to_one_cpu();
    println!(
        "workload {} seed {} trace {} pinned {pinned}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );

    let report = if args.trace {
        match trace(&args, fans_out, pinned) {
            Ok(report) => report,
            Err(problem) => {
                eprintln!("basecache-benchmark: writing the trace: {problem}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        measure(&args)
    };
    report.metrics.print();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        report.correct,
        report.attempted,
        report.failed,
        report.metrics.to_json()
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts() -> RoundFacts {
        RoundFacts {
            tick: 7,
            issued: 10,
            served: 8,
            still_waiting: 2,
            units: 5,
            score: 0.9,
            recency: 0.8,
            ..RoundFacts::default()
        }
    }

    #[test]
    fn a_sound_round_passes_every_check() {
        assert_eq!(check_round(&facts(), 110, 108, Some(5)), Ok(()));
        assert_eq!(check_round(&facts(), 110, 108, None), Ok(()));
    }

    #[test]
    fn lost_requests_wild_scores_and_overspending_are_caught() {
        let lost = check_round(&facts(), 111, 108, None).unwrap_err();
        assert!(
            lost.contains("108 answered + 2 waiting != 111 issued"),
            "{lost}"
        );

        for bad in [f64::NAN, -0.1, 1.000001, f64::INFINITY] {
            let wild = RoundFacts {
                score: bad,
                ..facts()
            };
            assert!(check_round(&wild, 110, 108, None).is_err(), "score {bad}");
            let wild = RoundFacts {
                recency: bad,
                ..facts()
            };
            assert!(check_round(&wild, 110, 108, None).is_err(), "recency {bad}");
        }

        let over = check_round(&facts(), 110, 108, Some(4)).unwrap_err();
        assert!(over.contains("5 units"), "{over}");
    }

    #[test]
    fn only_samples_taken_at_full_speed_win_a_round() {
        let pass = |round_ns: Vec<u64>, gate_ns: Vec<u64>| Pass {
            attempted: round_ns.len() as u64,
            round_ns,
            gate_ns,
            ..Pass::default()
        };
        let passes = [
            pass(vec![90, 50, 70], vec![130, 100, 130]),
            pass(vec![60, 55, 80], vec![100, 104, 150]),
            // Cut short by a panic: ignored altogether.
            Pass {
                attempted: 3,
                ..pass(vec![1], vec![100])
            },
        ];
        let (clean, every, fastest_kernel) = merge_passes(&passes);
        assert_eq!(fastest_kernel, 100);
        assert_eq!(every, [60, 50, 70]);
        assert_eq!(clean, [60, 50], "round 2 was never seen at full speed");
    }
}
