//! Extension experiment — push–pull hybrid vs pure on-demand vs pure
//! asynchronous at equal per-tick budgets.
//!
//! The paper pits on-demand against asynchronous refresh; the natural
//! third point (cf. Acharya et al.'s "balancing push and pull", the
//! paper's reference \[6\]) serves demand first and pushes fresh copies of
//! the stalest cached objects with whatever budget remains.
//!
//! Prefetch only pays when the budget is *intermittently* binding: in a
//! steady stream where the budget always covers demand, on-demand
//! already downloads every stale requested object, and the hybrid's
//! pushes buy nothing. We therefore drive a **bursty** workload — quiet
//! ticks alternating with demand spikes — where the hybrid banks its
//! quiet-tick budget as cache freshness that the spikes then consume.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::Policy;
use basecache_sim::RngStreams;
use basecache_workload::{Popularity, RequestGenerator, RequestTrace, TargetRecency};

use crate::report::Figure;
use crate::runner::{run_policy, sweep_series, RunConfig};

/// Parameters of the hybrid comparison.
#[derive(Debug, Clone)]
pub struct Params {
    /// The run every policy is measured on. Its `requests_per_tick` is
    /// unused: demand comes from the bursty [`Params::trace`].
    pub config: RunConfig,
    /// Requests during a quiet tick.
    pub quiet_rate: usize,
    /// Requests during a burst tick.
    pub burst_rate: usize,
    /// Every `burst_every`-th tick is a burst.
    pub burst_every: u64,
    /// Per-tick budgets (data units) to sweep.
    pub budgets: Vec<u64>,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            config: RunConfig {
                objects: 500,
                requests_per_tick: 0,
                update_period: 5,
                warmup_ticks: 50,
                measure_ticks: 200,
                popularity: Popularity::ZIPF1,
                seed: 8000,
            },
            quiet_rate: 10,
            burst_rate: 250,
            burst_every: 5,
            budgets: vec![5, 10, 20, 40, 80],
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            config: RunConfig {
                objects: 100,
                warmup_ticks: 15,
                measure_ticks: 80,
                ..Self::paper().config
            },
            quiet_rate: 3,
            burst_rate: 60,
            budgets: vec![3, 8, 15, 30],
            ..Self::paper()
        }
    }

    /// The bursty request trace (shared by every policy under test).
    pub fn trace(&self) -> RequestTrace {
        let config = &self.config;
        let pop = config.popularity.build(config.objects);
        let quiet = RequestGenerator::new(pop.clone(), self.quiet_rate, TargetRecency::AlwaysFresh);
        let burst = RequestGenerator::new(pop, self.burst_rate, TargetRecency::AlwaysFresh);
        let mut rng = RngStreams::new(config.seed).stream("hybrid/requests");
        let total = config.warmup_ticks + config.measure_ticks;
        let batches = (0..total)
            .map(|t| {
                if t % self.burst_every == self.burst_every - 1 {
                    burst.batch(&mut rng)
                } else {
                    quiet.batch(&mut rng)
                }
            })
            .collect();
        RequestTrace::from_batches(batches)
    }
}

/// Run the hybrid comparison: average delivered score vs budget for the
/// three policies over the identical bursty request trace.
pub fn run(params: &Params) -> Figure {
    let trace = params.trace();
    let planner = OnDemandPlanner::paper_default();
    let labels = ["on-demand", "hybrid push-pull", "asynchronous"];
    let series = sweep_series(&params.budgets, labels, |&budget| {
        let score = |policy| {
            run_policy(&params.config, policy, &trace)
                .mean_score
                .expect("requests served")
        };
        let od = score(Policy::OnDemand {
            planner,
            budget_units: budget,
        });
        let hy = score(Policy::Hybrid {
            planner,
            budget_units: budget,
        });
        let asy = score(Policy::AsyncRoundRobin {
            k_objects: budget as usize,
        });
        (budget as f64, [od, hy, asy])
    });
    Figure::new(
        "Extension: hybrid push-pull vs on-demand vs async",
        "download budget per time unit (units)",
        "average delivered score",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_dominates_both_baselines() {
        let fig = run(&Params::quick());
        let od = &fig.series[0];
        let hy = &fig.series[1];
        let asy = &fig.series[2];
        for ((&(b, od_y), &(_, hy_y)), &(_, asy_y)) in
            od.points.iter().zip(&hy.points).zip(&asy.points)
        {
            assert!(
                hy_y >= od_y - 1e-9,
                "hybrid ({hy_y}) must not lose to on-demand ({od_y}) at budget {b}"
            );
            assert!(
                hy_y >= asy_y - 1e-9,
                "hybrid ({hy_y}) must not lose to async ({asy_y}) at budget {b}"
            );
        }
        // Somewhere in the sweep the leftover budget buys real score.
        let gains: f64 = od
            .points
            .iter()
            .zip(&hy.points)
            .map(|(&(_, o), &(_, h))| h - o)
            .sum();
        assert!(gains > 0.0, "hybrid must strictly help at some budget");
    }
}
