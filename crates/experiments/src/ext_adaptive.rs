//! Extension experiment — closed-loop adaptive budgets (the paper's
//! Section 6 future work, in the loop).
//!
//! "In future work, we will develop techniques to determine how much
//! data the base station should download to satisfy a set of requests.
//! ... Our analysis shows that under some circumstances there is not a
//! great benefit to downloading large amounts of data. In these cases
//! the techniques will choose a smaller upper bound." We sweep fixed
//! per-tick budgets to map the score-vs-bandwidth frontier, then run the
//! adaptive policy (per-round knee of the DP solution-space trace) and
//! place its operating point on the same axes. A good adaptive policy
//! sits on the frontier's knee: near-maximal score at a fraction of the
//! bandwidth.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::Policy;
use basecache_workload::Popularity;

use crate::report::{Figure, Series};
use crate::runner::{record_trace, run_policy, sweep_series, RunConfig};

/// Parameters of the adaptive-budget experiment.
#[derive(Debug, Clone)]
pub struct Params {
    /// The run every budget (and the adaptive policy) is measured on.
    pub config: RunConfig,
    /// Fixed per-tick budgets to sweep.
    pub fixed_budgets: Vec<u64>,
    /// Adaptive policy: marginal-gain window (units).
    pub window: u64,
    /// Adaptive policy: marginal-gain threshold (benefit per unit).
    pub threshold: f64,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            config: RunConfig {
                objects: 500,
                requests_per_tick: 100,
                update_period: 5,
                warmup_ticks: 50,
                measure_ticks: 200,
                popularity: Popularity::ZIPF1,
                seed: 12_000,
            },
            fixed_budgets: vec![5, 10, 20, 40, 80, 160, 320],
            window: 10,
            threshold: 0.08,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            config: RunConfig {
                objects: 100,
                requests_per_tick: 25,
                warmup_ticks: 15,
                measure_ticks: 80,
                ..Self::paper().config
            },
            fixed_budgets: vec![2, 5, 10, 25, 60],
            ..Self::paper()
        }
    }
}

/// Run the experiment: the fixed-budget frontier plus the adaptive
/// operating point, on (units downloaded per tick, average score) axes.
pub fn run(params: &Params) -> Figure {
    let config = params.config;
    let planner = OnDemandPlanner::paper_default();
    let trace = record_trace(&config);
    // A policy's point on the score-vs-bandwidth plane.
    let on_plane = |policy| {
        let result = run_policy(&config, policy, &trace);
        (
            result.units_downloaded as f64 / config.measure_ticks as f64,
            result.mean_score.expect("requests served"),
        )
    };

    let mut series = sweep_series(&params.fixed_budgets, ["fixed budgets"], |&budget| {
        let (units, score) = on_plane(Policy::OnDemand {
            planner,
            budget_units: budget,
        });
        (units, [score])
    });
    let adaptive = on_plane(Policy::OnDemandAdaptive {
        planner,
        max_budget: config.objects as u64,
        window: params.window,
        threshold: params.threshold,
    });
    series.push(Series::new("adaptive (knee of DP trace)", vec![adaptive]));

    Figure::new(
        "Extension: adaptive download budget vs fixed-budget frontier",
        "units downloaded per time unit (consumed)",
        "average delivered score",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_sits_near_the_frontier_knee() {
        let fig = run(&Params::quick());
        let fixed = &fig.series[0];
        let (adaptive_units, adaptive_score) = fig.series[1].points[0];

        let max_fixed_score = fixed
            .points
            .iter()
            .map(|&(_, s)| s)
            .fold(f64::MIN, f64::max);
        let max_fixed_units = fixed
            .points
            .iter()
            .map(|&(u, _)| u)
            .fold(f64::MIN, f64::max);

        // Near-maximal quality…
        assert!(
            adaptive_score > 0.93 * max_fixed_score,
            "adaptive score {adaptive_score} too far below best fixed {max_fixed_score}"
        );
        // …at materially less bandwidth than the biggest fixed budget's
        // actual consumption.
        assert!(
            adaptive_units < 0.9 * max_fixed_units,
            "adaptive consumed {adaptive_units}/tick, frontier max {max_fixed_units}/tick"
        );
        assert!(adaptive_units > 0.0, "adaptive must download something");
    }

    #[test]
    fn fixed_frontier_is_monotone_in_consumption() {
        let fig = run(&Params::quick());
        let fixed = &fig.series[0];
        for w in fixed.points.windows(2) {
            assert!(w[1].0 >= w[0].0 - 1e-9, "consumption grows with budget");
            assert!(w[1].1 >= w[0].1 - 0.02, "score ~grows with budget");
        }
    }
}
