//! Figure 3 — average recency of data delivered to clients as the
//! download budget grows, under low and high update frequency.
//!
//! Setup (paper §3.2): 500 unit-size objects, uniform access, 100
//! requests per time unit; the per-tick download budget `k` sweeps 1..100
//! objects; cache warmed 50 time units, 100 measured. Asynchronous =
//! round-robin refresh of `k` objects per tick; on-demand = the `k`
//! requested objects with the lowest cached recency. Both policies replay
//! the identical request trace. Recency decays as `x' = x/(1+x)` per
//! missed update. Two panels: updates every 10 time units (low) and
//! every time unit (high).

use basecache_core::Policy;
use basecache_workload::Popularity;

use crate::report::Figure;
use crate::runner::{record_trace, run_policy, sweep_series, RunConfig};

/// Parameters of the Figure 3 reproduction.
#[derive(Debug, Clone)]
pub struct Params {
    /// The low-update-frequency panel's run at every budget (paper: 500
    /// objects, uniform access, 100 requests per time unit, updates
    /// every 10, 50 warm-up and 100 measured time units).
    pub config: RunConfig,
    /// Budgets (objects per tick) to sweep (paper: 1..=100).
    pub budgets: Vec<usize>,
    /// The high-update-frequency panel's update period (paper: 1).
    pub high_freq_period: u64,
}

impl Params {
    /// The paper's full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            config: RunConfig {
                objects: 500,
                requests_per_tick: 100,
                update_period: 10,
                warmup_ticks: 50,
                measure_ticks: 100,
                popularity: Popularity::Uniform,
                seed: 3000,
            },
            budgets: (1..=100).step_by(3).chain(std::iter::once(100)).collect(),
            high_freq_period: 1,
        }
    }

    /// A CI-sized setup preserving the curve shapes.
    pub fn quick() -> Self {
        Self {
            config: RunConfig {
                objects: 100,
                requests_per_tick: 20,
                warmup_ticks: 10,
                measure_ticks: 30,
                ..Self::paper().config
            },
            budgets: vec![1, 2, 5, 10, 20],
            ..Self::paper()
        }
    }
}

/// One panel of Figure 3 (one update frequency).
pub fn run_panel(params: &Params, update_period: u64, panel: &str) -> Figure {
    let mut config = params.config;
    config.update_period = update_period;
    // Both policies replay the exact same trace (paired comparison).
    let trace = record_trace(&config);
    let labels = ["on-demand", "asynchronous"];
    let series = sweep_series(&params.budgets, labels, |&k| {
        let recency = |policy| {
            run_policy(&config, policy, &trace)
                .mean_recency
                .expect("measured phase serves requests")
        };
        let od = recency(Policy::OnDemandLowestRecency { k_objects: k });
        let asy = recency(Policy::AsyncRoundRobin { k_objects: k });
        (k as f64, [od, asy])
    });
    Figure::new(
        format!("Figure 3 ({panel}): average recency vs data downloaded per time unit"),
        "objects downloaded per time unit",
        "average delivered recency",
        series,
    )
}

/// Run both panels: (low update frequency, high update frequency).
pub fn run(params: &Params) -> (Figure, Figure) {
    (
        run_panel(params, params.config.update_period, "low update frequency"),
        run_panel(params, params.high_freq_period, "high update frequency"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_reproduces_figure_shape() {
        let params = Params::quick();
        let (low, high) = run(&params);

        for fig in [&low, &high] {
            let od = &fig.series[0];
            let asy = &fig.series[1];
            // On-demand dominates asynchronous at every budget.
            for (&(k, od_y), &(_, asy_y)) in od.points.iter().zip(&asy.points) {
                assert!(
                    od_y >= asy_y - 1e-9,
                    "{}: on-demand {od_y} < async {asy_y} at k={k}",
                    fig.title
                );
            }
            // On-demand recency grows with budget.
            for w in od.points.windows(2) {
                assert!(
                    w[1].1 >= w[0].1 - 0.02,
                    "{} on-demand not ~monotone",
                    fig.title
                );
            }
        }

        // As budget approaches the request rate, on-demand approaches 1
        // ("most requested objects can be downloaded, so the recency
        // approaches 1").
        let od_top = low.series[0].last_y().unwrap();
        assert!(od_top > 0.95, "low-freq on-demand at full budget: {od_top}");

        // High update frequency hurts the asynchronous approach much
        // more than on-demand ("when objects are updated with high
        // frequency, the asynchronous approach performs poorly").
        let gap_low = low.series[0].last_y().unwrap() - low.series[1].last_y().unwrap();
        let gap_high = high.series[0].last_y().unwrap() - high.series[1].last_y().unwrap();
        assert!(
            gap_high > gap_low,
            "on-demand advantage must widen at high update frequency \
             (low gap {gap_low}, high gap {gap_high})"
        );
    }
}
