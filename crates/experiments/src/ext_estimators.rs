//! Extension experiment — how recency-estimation quality degrades the
//! on-demand planner.
//!
//! The paper assumes the base station knows each cached copy's recency.
//! Here the planner runs on (a) that oracle, (b) invalidation-report
//! counting with configurable report loss, and (c) TTL aging with a
//! mis-specified assumed period. Delivered quality is always measured
//! against the truth, so estimator error shows up directly as lost
//! average score.

use basecache_core::estimator::{ReportEstimator, TtlEstimator};
use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::{Catalog, ReportLog};
use basecache_sim::{RngStreams, SimTime};
use basecache_workload::{Popularity, RequestTrace};

use crate::report::Figure;
use crate::runner::{drive, record_trace, sweep_series, RunConfig};

/// Parameters of the estimator comparison.
#[derive(Debug, Clone)]
pub struct Params {
    /// The run every estimator is measured on; its `update_period` is
    /// the true one.
    pub config: RunConfig,
    /// The TTL estimator's (wrong) assumed period.
    pub ttl_assumed_period: u64,
    /// Probability an invalidation report is lost in transit.
    pub report_loss: f64,
    /// Per-tick budgets (data units) to sweep.
    pub budgets: Vec<u64>,
}

impl Params {
    /// Full-fidelity setup: updates every 5 ticks, TTL believes 15,
    /// 30% of reports lost.
    pub fn paper() -> Self {
        Self {
            config: RunConfig {
                objects: 500,
                requests_per_tick: 100,
                update_period: 5,
                warmup_ticks: 50,
                measure_ticks: 200,
                popularity: Popularity::Uniform,
                seed: 9000,
            },
            ttl_assumed_period: 15,
            report_loss: 0.3,
            budgets: vec![5, 10, 20, 40, 80],
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            config: RunConfig {
                objects: 100,
                requests_per_tick: 25,
                warmup_ticks: 15,
                measure_ticks: 60,
                ..Self::paper().config
            },
            budgets: vec![2, 5, 10, 20],
            ..Self::paper()
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Variant {
    Oracle,
    Reports,
    Ttl,
}

fn run_variant(params: &Params, trace: &RequestTrace, budget: u64, variant: Variant) -> f64 {
    let config = &params.config;
    let catalog = Catalog::uniform_unit(config.objects);
    let planner = OnDemandPlanner::paper_default();
    let builder = StationBuilder::new(catalog.clone()).on_demand(planner, budget);
    let builder = match variant {
        Variant::Oracle => builder.oracle(),
        Variant::Reports => builder.estimator(Box::new(ReportEstimator::new(config.objects))),
        Variant::Ttl => builder.estimator(Box::new(TtlEstimator::new(params.ttl_assumed_period))),
    };
    let mut station = builder.build().expect("estimator experiment is valid");
    let mut log = ReportLog::new(&catalog);
    let mut loss_rng = RngStreams::new(config.seed).stream("est/report-loss");

    let period = config.update_period;
    drive(
        &mut station,
        trace,
        period,
        config.warmup_ticks,
        |station, t| {
            if t % period == 0 {
                log.record_wave();
                // One report per wave, subject to loss.
                let report = log.cut_report(SimTime::from_ticks(t));
                if loss_rng.random::<f64>() >= params.report_loss {
                    station.deliver_report(&report);
                }
            }
        },
    );
    station.stats().score.mean().expect("requests served")
}

/// Run the estimator comparison: true delivered score vs budget under
/// each estimation regime.
pub fn run(params: &Params) -> Figure {
    let trace = record_trace(&params.config);
    let labels = [
        "oracle (paper's assumption)",
        "invalidation reports (lossy)",
        "ttl (mis-specified)",
    ];
    let series = sweep_series(&params.budgets, labels, |&budget| {
        let scores = [Variant::Oracle, Variant::Reports, Variant::Ttl]
            .map(|variant| run_variant(params, &trace, budget, variant));
        (budget as f64, scores)
    });
    Figure::new(
        "Extension: recency estimation quality vs planner performance",
        "download budget per time unit (units)",
        "average delivered score (truth)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_dominates_and_reports_beat_misspecified_ttl() {
        let fig = run(&Params::quick());
        let oracle = &fig.series[0];
        let reports = &fig.series[1];
        let ttl = &fig.series[2];
        let mut reports_beat_ttl = 0usize;
        for ((&(b, o), &(_, r)), &(_, t)) in
            oracle.points.iter().zip(&reports.points).zip(&ttl.points)
        {
            assert!(
                o >= r - 0.01,
                "oracle ({o}) must ~dominate reports ({r}) at budget {b}"
            );
            assert!(
                o >= t - 0.01,
                "oracle ({o}) must ~dominate ttl ({t}) at budget {b}"
            );
            if r > t {
                reports_beat_ttl += 1;
            }
        }
        assert!(
            reports_beat_ttl * 2 >= oracle.points.len(),
            "lossy reports should usually beat a 3x-mis-specified TTL"
        );
    }
}
