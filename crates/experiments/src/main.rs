//! Experiment CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [all|fig2|fig3|fig4|fig5a|fig5b|fig6a|fig6b|table1|ext-*]... [--quick] [--csv DIR]
//! ```
//!
//! An unknown target is an error: usage on stderr, exit 1, nothing run.

use std::path::PathBuf;
use std::process::ExitCode;

use basecache_experiments::{
    ext_adaptive, ext_adaptive_solver, ext_bounded_cache, ext_broadcast, ext_cluster,
    ext_estimators, ext_flash_crowd, ext_hybrid, ext_latency, ext_multicell, ext_obs, ext_poisson,
    fig2, fig3, fig4, fig5, fig6, report::Figure, table1,
};
use basecache_workload::Correlation;

/// Every target the CLI knows. [`usage`] prints this list and
/// [`parse_args`] checks each argument against it, before anything runs.
const TARGETS: [&str; 22] = [
    "all",
    "fig2",
    "fig3",
    "fig4",
    "fig5a",
    "fig5b",
    "fig6a",
    "fig6b",
    "table1",
    "ext-adaptive",
    "ext-adaptive-solver",
    "ext-hybrid",
    "ext-estimators",
    "ext-flash-crowd",
    "ext-latency",
    "ext-poisson",
    "ext-multicell",
    "ext-cluster",
    "ext-cluster-l2",
    "ext-broadcast",
    "ext-bounded-cache",
    "ext-obs",
];

#[derive(Debug)]
struct Options {
    targets: Vec<String>,
    quick: bool,
    csv_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut targets = Vec::new();
    let mut quick = false;
    let mut csv_dir = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--csv" => {
                let dir = args.next().ok_or("--csv needs a directory argument")?;
                csv_dir = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                return Err(usage());
            }
            t if TARGETS.contains(&t) => targets.push(t.to_string()),
            t if !t.starts_with('-') => {
                return Err(format!("unknown target `{t}`\n{}", usage()));
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    if targets.is_empty() {
        targets.push("all".to_string());
    }
    Ok(Options {
        targets,
        quick,
        csv_dir,
    })
}

fn usage() -> String {
    format!(
        "usage: experiments [{}]... [--quick] [--csv DIR]",
        TARGETS.join("|")
    )
}

fn emit(fig: &Figure, opts: &Options, file: &str) {
    print!("{}", fig.to_table());
    println!();
    if let Some(dir) = &opts.csv_dir {
        match fig.write_csv(dir, file) {
            Ok(()) => println!("  (csv written to {}/{file})", dir.display()),
            Err(e) => eprintln!("  csv write failed: {e}"),
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let all = opts.targets.iter().any(|t| t == "all");
    let want = |name: &str| all || opts.targets.iter().any(|t| t == name);

    if want("table1") {
        print!("{}", table1::run(4).to_table());
        println!();
    }
    if want("fig2") {
        let p = if opts.quick {
            fig2::Params::quick()
        } else {
            fig2::Params::paper()
        };
        emit(&fig2::run(&p), &opts, "fig2.csv");
    }
    if want("fig3") {
        let p = if opts.quick {
            fig3::Params::quick()
        } else {
            fig3::Params::paper()
        };
        let (low, high) = fig3::run(&p);
        emit(&low, &opts, "fig3_low.csv");
        emit(&high, &opts, "fig3_high.csv");
    }
    if want("fig4") {
        let p = if opts.quick {
            fig4::Params::quick()
        } else {
            fig4::Params::paper()
        };
        emit(&fig4::run(&p), &opts, "fig4.csv");
    }
    if want("fig5a") || want("fig5b") {
        let p = if opts.quick {
            fig5::Params::quick()
        } else {
            fig5::Params::paper()
        };
        if want("fig5a") {
            emit(
                &fig5::run_panel(&p, Correlation::Negative, "a: small objects hot"),
                &opts,
                "fig5a.csv",
            );
        }
        if want("fig5b") {
            emit(
                &fig5::run_panel(&p, Correlation::Positive, "b: large objects hot"),
                &opts,
                "fig5b.csv",
            );
        }
    }
    if want("fig6a") || want("fig6b") {
        let p = if opts.quick {
            fig6::Params::quick()
        } else {
            fig6::Params::paper()
        };
        if want("fig6a") {
            emit(
                &fig6::run_panel(&p, Correlation::Negative, "a: small objects freshest"),
                &opts,
                "fig6a.csv",
            );
        }
        if want("fig6b") {
            emit(
                &fig6::run_panel(&p, Correlation::Positive, "b: large objects freshest"),
                &opts,
                "fig6b.csv",
            );
        }
    }

    if want("ext-adaptive") {
        let p = if opts.quick {
            ext_adaptive::Params::quick()
        } else {
            ext_adaptive::Params::paper()
        };
        emit(&ext_adaptive::run(&p), &opts, "ext_adaptive.csv");
    }
    if want("ext-adaptive-solver") {
        let p = if opts.quick {
            ext_adaptive_solver::Params::quick()
        } else {
            ext_adaptive_solver::Params::paper()
        };
        emit(
            &ext_adaptive_solver::run(&p),
            &opts,
            "ext_adaptive_solver.csv",
        );
    }
    if want("ext-hybrid") {
        let p = if opts.quick {
            ext_hybrid::Params::quick()
        } else {
            ext_hybrid::Params::paper()
        };
        emit(&ext_hybrid::run(&p), &opts, "ext_hybrid.csv");
    }
    if want("ext-estimators") {
        let p = if opts.quick {
            ext_estimators::Params::quick()
        } else {
            ext_estimators::Params::paper()
        };
        emit(&ext_estimators::run(&p), &opts, "ext_estimators.csv");
    }
    if want("ext-flash-crowd") {
        let p = if opts.quick {
            ext_flash_crowd::Params::quick()
        } else {
            ext_flash_crowd::Params::paper()
        };
        emit(&ext_flash_crowd::run(&p), &opts, "ext_flash_crowd.csv");
    }
    if want("ext-latency") {
        let p = if opts.quick {
            ext_latency::Params::quick()
        } else {
            ext_latency::Params::paper()
        };
        emit(&ext_latency::run(&p), &opts, "ext_latency.csv");
    }
    if want("ext-multicell") {
        let p = if opts.quick {
            ext_multicell::Params::quick()
        } else {
            ext_multicell::Params::paper()
        };
        emit(&ext_multicell::run(&p), &opts, "ext_multicell.csv");
    }
    if want("ext-cluster") {
        let p = if opts.quick {
            ext_cluster::Params::quick()
        } else {
            ext_cluster::Params::paper()
        };
        emit(&ext_cluster::run(&p), &opts, "ext_cluster.csv");
    }
    if want("ext-cluster-l2") {
        let p = if opts.quick {
            ext_cluster::L2Params::quick()
        } else {
            ext_cluster::L2Params::paper()
        };
        emit(&ext_cluster::run_l2(&p), &opts, "ext_cluster_l2.csv");
    }
    if want("ext-poisson") {
        let p = if opts.quick {
            ext_poisson::Params::quick()
        } else {
            ext_poisson::Params::paper()
        };
        emit(&ext_poisson::run(&p), &opts, "ext_poisson.csv");
    }
    if want("ext-broadcast") {
        let p = if opts.quick {
            ext_broadcast::Params::quick()
        } else {
            ext_broadcast::Params::paper()
        };
        emit(&ext_broadcast::run(&p), &opts, "ext_broadcast.csv");
    }
    if want("ext-bounded-cache") {
        let p = if opts.quick {
            ext_bounded_cache::Params::quick()
        } else {
            ext_bounded_cache::Params::paper()
        };
        emit(&ext_bounded_cache::run(&p), &opts, "ext_bounded_cache.csv");
    }

    // Deliberately excluded from `all`: the profile's span timings are
    // wall-clock, so its output can never be byte-identical across runs
    // the way every other target's CSV is.
    if opts.targets.iter().any(|t| t == "ext-obs") {
        let p = if opts.quick {
            ext_obs::Params::quick()
        } else {
            ext_obs::Params::paper()
        };
        let profile = ext_obs::run(&p);
        print!("{}", ext_obs::to_table(&profile));
        println!();
        if let Some(dir) = &opts.csv_dir {
            let write_all = || -> std::io::Result<()> {
                basecache_obs::export::write_csv(&profile.snapshot, &dir.join("ext_obs.csv"))?;
                basecache_obs::export::write_json(&profile.snapshot, &dir.join("ext_obs.json"))?;
                std::fs::write(dir.join("ext_obs_trace.json"), &profile.trace_json)?;
                std::fs::write(dir.join("ext_obs_series.csv"), &profile.series_csv)?;
                std::fs::write(dir.join("ext_obs_lifecycle.json"), &profile.lifecycle_json)?;
                std::fs::write(dir.join("ext_obs_aoi.csv"), &profile.aoi_csv)?;
                std::fs::write(dir.join("ext_obs_topk.csv"), &profile.topk_csv)?;
                Ok(())
            };
            match write_all() {
                Ok(()) => println!(
                    "  (obs profile written to {dir}/ext_obs.{{csv,json}}; \
                     Perfetto traces to {dir}/ext_obs_trace.json and \
                     {dir}/ext_obs_lifecycle.json; \
                     round series to {dir}/ext_obs_series.csv; \
                     AoI trajectory to {dir}/ext_obs_aoi.csv; \
                     attribution to {dir}/ext_obs_topk.csv \
                     [inspect with `basecache-trace waits|aoi|report`])",
                    dir = dir.display()
                ),
                Err(e) => eprintln!("  obs export failed: {e}"),
            }
        }
    }

    ExitCode::SUCCESS
}
