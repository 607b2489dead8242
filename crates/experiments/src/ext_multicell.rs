//! Extension experiment — multiple cells contending on one fixed-network
//! backbone.
//!
//! The paper scopes to a single cell: "We do not consider the workload
//! on servers from clients in other cells." This experiment lifts that
//! assumption: `N` base stations, each serving its own cell's demand,
//! download over one shared fluid backbone. As cells are added, each
//! station's misses queue behind everyone else's traffic — mean waits
//! grow superlinearly once the backbone saturates, which is exactly the
//! "bandwidth contention" the paper's introduction warns about.

use basecache_core::pipeline::LatencyAwareSim;
use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::{Catalog, Downlink, Link, SharedLink};
use basecache_sim::{RngStreams, SimDuration};
use basecache_workload::{Popularity, RequestTrace};

use crate::report::Figure;
use crate::runner::{record_requests, sweep_series};

/// Parameters of the multi-cell contention sweep.
#[derive(Debug, Clone)]
pub struct Params {
    /// Objects per catalog (each cell serves the same catalog).
    pub objects: usize,
    /// Requests per time unit per cell.
    pub requests_per_tick: usize,
    /// Update period in ticks.
    pub update_period: u64,
    /// Ticks simulated.
    pub ticks: u64,
    /// Backbone bandwidth in units/tick (shared by all cells).
    pub backbone_bandwidth: u64,
    /// Backbone propagation latency in ticks.
    pub backbone_latency: u64,
    /// Per-cell per-tick refresh budget in units.
    pub refresh_budget: u64,
    /// Cell counts to sweep.
    pub cell_counts: Vec<usize>,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            objects: 300,
            requests_per_tick: 50,
            update_period: 5,
            ticks: 250,
            backbone_bandwidth: 40,
            backbone_latency: 2,
            refresh_budget: 15,
            cell_counts: vec![1, 2, 4, 8],
            seed: 15_000,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            objects: 80,
            requests_per_tick: 15,
            ticks: 80,
            backbone_bandwidth: 12,
            refresh_budget: 6,
            cell_counts: vec![1, 3, 6],
            ..Self::paper()
        }
    }
}

/// One sweep point: (mean wait of queued requests, mean delivered score,
/// backbone utilization) averaged over the cells.
pub fn run_point(params: &Params, cells: usize) -> [f64; 3] {
    let backbone = SharedLink::new(Link::new(
        params.backbone_bandwidth,
        SimDuration::from_ticks(params.backbone_latency),
    ));
    let streams = RngStreams::new(params.seed);

    let mut stations: Vec<LatencyAwareSim> = (0..cells)
        .map(|_| {
            StationBuilder::new(Catalog::uniform_unit(params.objects))
                .on_demand(OnDemandPlanner::paper_default(), params.refresh_budget)
                .build_latency_aware(
                    backbone.clone(),
                    Downlink::new(params.requests_per_tick as u64 * 2, SimDuration::ZERO),
                )
                .expect("valid latency configuration")
        })
        .collect();
    let traces: Vec<RequestTrace> = (0..cells)
        .map(|c| {
            record_requests(
                Popularity::ZIPF1,
                params.objects,
                params.requests_per_tick,
                params.ticks,
                &mut streams.stream_indexed("multicell/requests", c as u64),
            )
        })
        .collect();

    for t in 0..params.ticks {
        for (station, trace) in stations.iter_mut().zip(&traces) {
            if t % params.update_period == 0 {
                station.apply_update_wave();
            }
            station.step(trace.batch(t as usize).expect("trace covers run"));
        }
    }
    // Drain.
    let drain = params.backbone_latency
        + cells as u64 * params.objects as u64 / params.backbone_bandwidth.max(1)
        + 10;
    for _ in 0..drain {
        for station in &mut stations {
            station.step(&[]);
        }
    }

    let mut wait_sum = 0.0;
    let mut score_sum = 0.0;
    for station in &stations {
        wait_sum += station.stats().wait_ticks.mean().unwrap_or(0.0);
        score_sum += station.stats().score.mean().unwrap_or(1.0);
    }
    let utilization = stations[0]
        .fixed_net()
        .utilization(basecache_sim::SimTime::from_ticks(params.ticks + drain));
    [
        wait_sum / cells as f64,
        score_sum / cells as f64,
        utilization,
    ]
}

/// Run the sweep: per-cell mean wait, score and backbone utilization vs
/// number of cells.
pub fn run(params: &Params) -> Figure {
    // Each point owns its backbone, so the points are independent.
    let labels = [
        "mean wait of cache misses (ticks)",
        "average delivered score",
        "backbone utilization",
    ];
    let series = sweep_series(&params.cell_counts, labels, |&cells| {
        (cells as f64, run_point(params, cells))
    });
    Figure::new(
        "Extension: cells contending on one fixed-network backbone",
        "number of cells",
        "mixed units (see series)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contention_grows_with_cell_count() {
        let fig = run(&Params::quick());
        let waits = &fig.series[0];
        let scores = &fig.series[1];
        let util = &fig.series[2];

        for w in waits.points.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "per-cell waits must grow with contention: {waits:?}"
            );
        }
        let first_wait = waits.points.first().unwrap().1;
        let last_wait = waits.last_y().unwrap();
        assert!(
            last_wait > 2.0 * first_wait.max(0.5),
            "saturated backbone should hurt substantially ({first_wait} -> {last_wait})"
        );
        // Scores do not improve with contention.
        let first_score = scores.points.first().unwrap().1;
        let last_score = scores.last_y().unwrap();
        assert!(last_score <= first_score + 1e-9);
        // More cells load the backbone harder (until it saturates, where
        // utilization plateaus — the drain tail keeps it below 1.0).
        let first_util = util.points.first().unwrap().1;
        let last_util = util.last_y().unwrap();
        assert!(last_util > first_util, "backbone load must grow: {util:?}");
        assert!(last_util <= 1.0 + 1e-9);
    }
}
