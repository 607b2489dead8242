//! A flight-recorded run: the paper's on-demand planner at Figure 3
//! scale with the full causal recorder wired into the station, and
//! everything it captured written out for `basecache-trace` to read.
//!
//! Run with:
//! ```text
//! cargo run --release --example flight_recorder -- out/
//! cargo run -p basecache-trace -- summarize out/trace.json
//! cargo run -p basecache-trace -- waits out/lifecycle.json
//! cargo run -p basecache-trace -- report out/lifecycle.json out/aoi.csv out/snapshot.json
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use basecache::core::planner::OnDemandPlanner;
use basecache::core::Policy;
use basecache::obs::{export, CausalConfig, CausalRecorder};
use basecache::workload::Popularity;
use basecache_experiments::runner::{record_trace, run_station, RunConfig};

const BUDGET: u64 = 20;

fn main() -> std::io::Result<ExitCode> {
    let Some(dir) = std::env::args().nth(1).map(PathBuf::from) else {
        eprintln!("usage: flight_recorder OUT_DIR");
        return Ok(ExitCode::FAILURE);
    };
    let config = RunConfig {
        objects: 500,
        requests_per_tick: 100,
        update_period: 5,
        warmup_ticks: 50,
        measure_ticks: 200,
        popularity: Popularity::ZIPF1,
        seed: 77,
    };
    // Bounded memory at any run length: the trace ring keeps the newest
    // events, the round series and AoI trajectory decimate, and the
    // lifecycle ring overwrites the oldest closed spans.
    let recorder = CausalRecorder::new(CausalConfig {
        trace_capacity: 8192,
        series_capacity: 256,
        top_k: 8,
        open_spans: 512,
        closed_spans: 4096,
        num_objects: config.objects,
        budget_units: Some(BUDGET),
        allow_duplicate_flights: false,
    });
    let policy = Policy::OnDemand {
        planner: OnDemandPlanner::paper_default(),
        budget_units: BUDGET,
    };
    let station = run_station(&config, policy, &record_trace(&config), Box::new(recorder));
    let snapshot = station.obs_snapshot();
    let causal = station
        .recorder()
        .as_any()
        .downcast_ref::<CausalRecorder>()
        .expect("station was built with a CausalRecorder");
    let flight = causal.flight();
    let files = [
        ("snapshot.json", export::to_json(&snapshot)),
        ("snapshot.csv", export::to_csv(&snapshot)),
        ("trace.json", flight.trace().to_chrome_trace()),
        ("series.csv", flight.series().to_csv()),
        ("lifecycle.json", causal.lifecycle_spans().to_chrome_trace()),
        ("aoi.csv", causal.aoi().to_csv()),
        ("topk.csv", flight.topk().to_csv()),
    ];
    std::fs::create_dir_all(&dir)?;
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        println!("wrote {}", path.display());
    }

    let violations = causal.monitor().total_violations();
    println!("invariant monitor: {violations} violation(s)");
    Ok(if violations == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
