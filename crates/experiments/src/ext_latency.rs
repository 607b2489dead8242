//! Extension experiment — fixed-network bandwidth and client response
//! time.
//!
//! The paper's introduction motivates on-demand caching with a cost the
//! Section 3/4 analyses then abstract away: remote access is *slow*, so
//! clients wait. The in-flight ledger puts it back at the round
//! granularity the planner works in: a download of `size` units on a
//! link moving `bandwidth` units a round lands `ceil(size / bandwidth)`
//! rounds later (FIFO behind whatever is queued), and a request whose
//! object is on the wire parks on that transfer until it lands. We sweep
//! the link's bandwidth at a fixed refresh budget over one recorded
//! trace and report the mean wait of parked requests, the average
//! delivered score, and the share of requests that had to wait.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::{Catalog, InFlightConfig};
use basecache_sim::RngStreams;
use basecache_workload::{Popularity, RequestTrace};

use crate::report::Figure;
use crate::runner::{drain, drive, record_requests, sweep_series};

/// Parameters of the bandwidth sweep.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of unit-size objects.
    pub objects: usize,
    /// Requests per round.
    pub requests_per_tick: usize,
    /// Update period in rounds.
    pub update_period: u64,
    /// Rounds of demand (a drain tail follows).
    pub ticks: u64,
    /// Per-round refresh budget in units.
    pub refresh_budget: u64,
    /// Fixed-network bandwidths (units per round) to sweep.
    pub bandwidths: Vec<u64>,
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
            refresh_budget: 30,
            bandwidths: vec![5, 10, 12, 15, 20, 30],
            seed: 10_000,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            objects: 100,
            requests_per_tick: 25,
            ticks: 80,
            bandwidths: vec![5, 10, 15, 30],
            ..Self::paper()
        }
    }
}

/// One bandwidth point over the sweep's shared trace: (mean wait of
/// parked requests, mean score, share of requests that waited).
fn run_point(params: &Params, trace: &RequestTrace, bandwidth: u64) -> [f64; 3] {
    let mut station = StationBuilder::new(Catalog::uniform_unit(params.objects))
        .on_demand(OnDemandPlanner::paper_default(), params.refresh_budget)
        .in_flight(InFlightConfig::coalescing(bandwidth))
        .build()
        .expect("valid configuration");
    drive(&mut station, trace, params.update_period, 0, |_, _| {});
    drain(&mut station);
    let stats = station.stats();
    [
        stats.wait_ticks.mean().unwrap_or(0.0),
        stats.score.mean().unwrap_or(1.0),
        stats.wait_ticks.count as f64 / stats.score.count.max(1) as f64,
    ]
}

/// Run the bandwidth sweep.
pub fn run(params: &Params) -> Figure {
    let trace = record_requests(
        Popularity::ZIPF1,
        params.objects,
        params.requests_per_tick,
        params.ticks,
        &mut RngStreams::new(params.seed).stream("latency/requests"),
    );
    let labels = [
        "mean wait of parked requests (rounds)",
        "average delivered score",
        "share of requests that waited",
    ];
    let series = sweep_series(&params.bandwidths, labels, |&bandwidth| {
        (bandwidth as f64, run_point(params, &trace, bandwidth))
    });
    Figure::new(
        "Extension: fixed-network bandwidth vs waits and score",
        "fixed-network bandwidth (units/round)",
        "mixed units (see series)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrinking_bandwidth_raises_waits_and_never_helps_score() {
        let fig = run(&Params::quick());
        let waits = &fig.series[0].points;
        let scores = &fig.series[1].points;
        // The sweep runs from the narrowest link to the widest.
        for w in waits.windows(2) {
            assert!(
                w[0].1 > w[1].1,
                "waits must grow as bandwidth falls: {waits:?}"
            );
        }
        for s in scores.windows(2) {
            assert!(
                s[0].1 <= s[1].1 + 1e-9,
                "score must not rise as bandwidth falls: {scores:?}"
            );
        }
    }
}
