//! Reproduction harness: regenerates every table and figure of the
//! paper's evaluation, and the `ext-*` extension experiments.
//!
//! **An experiment is a row.** [`TARGETS`] is the one table of what the
//! harness can run: a CLI name, whether `all` includes it, and a
//! `fn(quick) -> Output` that picks the module's `Params::quick()` or
//! `Params::paper()` preset, calls its `run`, and says what to print and
//! which files `--csv` writes ([`report::Output`]). The CLI's usage
//! text, its argument check and `all`, `benches/figures.rs`,
//! `tests/determinism.rs` and the registry test all walk that table;
//! nothing else lists the experiments. Rows run in table order: Table 1
//! and Figures 2–6 (paper §3.1, §3.2, §4.1, §4.2) first, then the
//! extensions.
//!
//! Three shared pieces in [`runner`] keep a module down to what is its
//! own — its parameters, its station set-up and its labels:
//!
//! * [`runner::sweep_series`]: swept values + series labels + a per-point
//!   closure → [`runner::parallel_sweep`] → one [`report::Series`] per
//!   label. Every swept figure is built with it.
//! * [`runner::RunConfig`], embedded in the `Params` of every experiment
//!   that runs the paper's time-stepped set-up (objects, request rate,
//!   update period, warm-up, measurement, popularity, seed), next to the
//!   fields that are the experiment's own.
//! * [`runner::drive`], the one `BaseStationSim` run loop (update waves,
//!   warm-up reset, a per-tick hook), over a trace recorded once per
//!   sweep by [`runner::record_trace`] / [`runner::record_requests`].
//!
//! **Adding an experiment** is one module (a `Params` with `paper()` and
//! `quick()`, and a `run` returning a [`report::Figure`]), one
//! [`TARGETS`] row, and — for an `all` row — its CSV under `results/`
//! (`experiments all --csv results`); the golden, registry and
//! determinism tests pick the row up from the table.
//!
//! Run everything from the CLI:
//!
//! ```text
//! cargo run -p basecache-experiments --release -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ext_adaptive;
pub mod ext_adaptive_solver;
pub mod ext_bounded_cache;
pub mod ext_broadcast;
pub mod ext_cluster;
pub mod ext_estimators;
pub mod ext_flash_crowd;
pub mod ext_hybrid;
pub mod ext_latency;
pub mod ext_obs;
pub mod ext_poisson;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod report;
pub mod runner;
pub mod solution_space;
pub mod table1;

use basecache_workload::Correlation;

use report::{Figure, Output};

/// One runnable experiment: a row of [`TARGETS`].
pub struct Target {
    /// The name the CLI takes.
    pub name: &'static str,
    /// Whether `all` runs it.
    pub in_all: bool,
    /// Run it — CI-sized if `quick`, else at full fidelity — and return
    /// what to print and the files to write.
    pub run: fn(quick: bool) -> Output,
}

/// The one place `quick` is read: the CI-sized preset or the full one.
fn preset<P>(quick: bool, paper: fn() -> P, ci_sized: fn() -> P) -> P {
    if quick {
        ci_sized()
    } else {
        paper()
    }
}

/// A row `all` runs whose output is one figure, written to `$file`:
/// `$module::run` on the `$module::Params` preset, or `$run` on the
/// `$params` preset where a module holds more than one figure.
macro_rules! figure {
    ($name:literal, $module:ident, $file:literal) => {
        figure!($name, $module::Params, $file, $module::run)
    };
    ($name:literal, $params:ty, $file:literal, $run:expr) => {
        Target {
            name: $name,
            in_all: true,
            run: |quick| {
                let params = preset(quick, <$params>::paper, <$params>::quick);
                let run: fn(&$params) -> Figure = $run;
                Output::figures(vec![($file, run(&params))])
            },
        }
    };
}

/// Every target, in the order `all` runs them.
pub const TARGETS: &[Target] = &[
    Target {
        name: "table1",
        in_all: true,
        run: |_| Output {
            text: table1::run(4).to_table(),
            ..Output::default()
        },
    },
    figure!("fig2", fig2, "fig2.csv"),
    Target {
        name: "fig3",
        in_all: true,
        run: |quick| {
            let (low, high) = fig3::run(&preset(quick, fig3::Params::paper, fig3::Params::quick));
            Output::figures(vec![("fig3_low.csv", low), ("fig3_high.csv", high)])
        },
    },
    figure!("fig4", fig4, "fig4.csv"),
    figure!("fig5a", fig5::Params, "fig5a.csv", |p| fig5::run_panel(
        p,
        Correlation::Negative,
        "a: small objects hot"
    )),
    figure!("fig5b", fig5::Params, "fig5b.csv", |p| fig5::run_panel(
        p,
        Correlation::Positive,
        "b: large objects hot"
    )),
    figure!("fig6a", fig6::Params, "fig6a.csv", |p| fig6::run_panel(
        p,
        Correlation::Negative,
        "a: small objects freshest"
    )),
    figure!("fig6b", fig6::Params, "fig6b.csv", |p| fig6::run_panel(
        p,
        Correlation::Positive,
        "b: large objects freshest"
    )),
    figure!("ext-adaptive", ext_adaptive, "ext_adaptive.csv"),
    figure!(
        "ext-adaptive-solver",
        ext_adaptive_solver,
        "ext_adaptive_solver.csv"
    ),
    figure!("ext-hybrid", ext_hybrid, "ext_hybrid.csv"),
    figure!("ext-estimators", ext_estimators, "ext_estimators.csv"),
    figure!("ext-flash-crowd", ext_flash_crowd, "ext_flash_crowd.csv"),
    figure!("ext-latency", ext_latency, "ext_latency.csv"),
    figure!("ext-cluster", ext_cluster, "ext_cluster.csv"),
    figure!(
        "ext-cluster-l2",
        ext_cluster::L2Params,
        "ext_cluster_l2.csv",
        ext_cluster::run_l2
    ),
    figure!("ext-poisson", ext_poisson, "ext_poisson.csv"),
    figure!("ext-broadcast", ext_broadcast, "ext_broadcast.csv"),
    figure!(
        "ext-bounded-cache",
        ext_bounded_cache,
        "ext_bounded_cache.csv"
    ),
    // Not in `all`: the profile's span timings are wall-clock, so its
    // output can never be byte-identical across runs the way every
    // other target's CSV is.
    Target {
        name: "ext-obs",
        in_all: false,
        run: |quick| {
            let profile = ext_obs::run(&preset(
                quick,
                ext_obs::Params::paper,
                ext_obs::Params::quick,
            ));
            Output {
                text: ext_obs::to_table(&profile),
                exports: profile.exports(),
                ..Output::default()
            }
        },
    },
];
