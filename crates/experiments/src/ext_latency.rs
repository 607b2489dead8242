//! Extension experiment — fixed-network latency, client response time
//! and downlink idleness.
//!
//! The paper's introduction motivates on-demand caching with two costs
//! the Section 3/4 analyses then abstract away: remote access is *slow*
//! (clients wait) and waiting leaves the wireless downlink *idle*. The
//! latency-aware simulation puts them back: we sweep the fixed-network
//! latency and report the mean wait of cache-miss requests, the average
//! delivered score, and the downlink's accumulated idle ticks.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::{Catalog, Downlink, Link, SharedLink};
use basecache_sim::{RngStreams, SimDuration};
use basecache_workload::{Popularity, RequestTrace};

use crate::report::Figure;
use crate::runner::{record_requests, sweep_series};

/// Parameters of the latency sweep.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of unit-size objects.
    pub objects: usize,
    /// Requests per time unit.
    pub requests_per_tick: usize,
    /// Update period in ticks.
    pub update_period: u64,
    /// Ticks simulated (plus a drain tail).
    pub ticks: u64,
    /// Fixed-network bandwidth in units/tick.
    pub bandwidth: u64,
    /// Per-tick refresh budget in units.
    pub refresh_budget: u64,
    /// Latencies (ticks) to sweep.
    pub latencies: Vec<u64>,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            objects: 500,
            requests_per_tick: 100,
            update_period: 5,
            ticks: 300,
            bandwidth: 50,
            refresh_budget: 30,
            latencies: vec![0, 1, 2, 5, 10, 20, 50],
            seed: 10_000,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            objects: 100,
            requests_per_tick: 25,
            ticks: 80,
            latencies: vec![0, 2, 10, 30],
            ..Self::paper()
        }
    }
}

/// One latency point over the sweep's shared trace: (mean wait of
/// queued requests, mean score, downlink idle ticks).
fn run_point(params: &Params, trace: &RequestTrace, latency: u64) -> [f64; 3] {
    let mut sim = StationBuilder::new(Catalog::uniform_unit(params.objects))
        .on_demand(OnDemandPlanner::paper_default(), params.refresh_budget)
        .build_latency_aware(
            SharedLink::new(Link::new(
                params.bandwidth,
                SimDuration::from_ticks(latency),
            )),
            Downlink::new(params.requests_per_tick as u64 * 2, SimDuration::ZERO),
        )
        .expect("valid latency configuration");
    for (t, batch) in trace.iter() {
        if (t as u64).is_multiple_of(params.update_period) {
            sim.apply_update_wave();
        }
        sim.step(batch);
    }
    // Drain the waiting queue so every request is accounted for.
    for _ in 0..(latency + params.objects as u64 / params.bandwidth + 5) {
        sim.step(&[]);
    }
    [
        sim.stats().wait_ticks.mean().unwrap_or(0.0),
        sim.stats().score.mean().unwrap_or(1.0),
        sim.downlink().idle_ticks() as f64,
    ]
}

/// Run the latency sweep.
pub fn run(params: &Params) -> Figure {
    let trace = record_requests(
        Popularity::ZIPF1,
        params.objects,
        params.requests_per_tick,
        params.ticks,
        &mut RngStreams::new(params.seed).stream("latency/requests"),
    );
    let labels = [
        "mean wait of cache misses (ticks)",
        "average delivered score",
        "downlink idle ticks",
    ];
    let series = sweep_series(&params.latencies, labels, |&latency| {
        (latency as f64, run_point(params, &trace, latency))
    });
    Figure::new(
        "Extension: fixed-network latency vs waits, score and downlink idleness",
        "fixed-network latency (ticks)",
        "mixed units (see series)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_raises_waits_and_idleness_and_never_helps_score() {
        let fig = run(&Params::quick());
        let waits = &fig.series[0];
        let scores = &fig.series[1];
        let idle = &fig.series[2];

        for w in waits.points.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "waits must grow with latency: {waits:?}"
            );
        }
        for w in idle.points.windows(2) {
            assert!(
                w[1].1 >= w[0].1 - 1e-9,
                "downlink idleness must grow with latency: {idle:?}"
            );
        }
        let first = scores.points.first().unwrap().1;
        let last = scores.points.last().unwrap().1;
        assert!(
            last <= first + 1e-9,
            "score must not improve with latency ({first} -> {last})"
        );
        // At the top latency, waits are substantial.
        assert!(waits.last_y().unwrap() > waits.points[0].1);
    }
}
