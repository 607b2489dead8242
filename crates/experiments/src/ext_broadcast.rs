//! Extension experiment — broadcast disks vs pull-based caching.
//!
//! The paper's related work (§5) contrasts its pull architecture with
//! the Broadcast Disks line (Acharya et al.): push hot objects on a
//! cyclic program and let clients wait for their slot. We compare mean
//! access delay for the same Zipf demand: flat broadcast, a two-disk
//! skewed broadcast, and the base station's pull-with-cache (an
//! in-flight station whose downloads take rounds to land; its access
//! delay is the total wait over every request served, so a request
//! answered from the cache counts as zero wait). The
//! expected shape: broadcasting pays a per-access half-cycle-ish wait
//! forever; the pull cache pays the fixed-network price only on first
//! touch and on staleness refreshes, so its *mean* access delay is far
//! lower — the environment the paper targets — while broadcast needs no
//! uplink at all.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::{BroadcastSchedule, Catalog, InFlightConfig, ObjectId};
use basecache_sim::RngStreams;
use basecache_workload::Popularity;

use crate::report::Figure;
use crate::runner::{drain, drive, record_requests, sweep_series};

/// Parameters of the broadcast comparison.
#[derive(Debug, Clone)]
pub struct Params {
    /// Number of unit-size objects (even, for clean disk chunking).
    pub objects: usize,
    /// Hot-disk size (most popular ranks) for the two-disk program.
    pub hot_disk: usize,
    /// Hot-disk relative frequency.
    pub hot_frequency: u64,
    /// Requests per time unit for the pull side.
    pub requests_per_tick: usize,
    /// Ticks simulated on the pull side.
    pub ticks: u64,
    /// Fixed-network bandwidth (units/tick) for the pull side, which is
    /// also its per-tick refresh budget.
    pub pull_bandwidth: u64,
    /// Zipf exponents to sweep (demand skew).
    pub thetas: Vec<f64>,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            objects: 500,
            hot_disk: 50,
            hot_frequency: 3,
            requests_per_tick: 50,
            ticks: 400,
            pull_bandwidth: 25,
            thetas: vec![0.0, 0.5, 1.0, 1.5],
            seed: 13_000,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            objects: 120,
            hot_disk: 12,
            requests_per_tick: 20,
            ticks: 120,
            thetas: vec![0.0, 1.0],
            ..Self::paper()
        }
    }
}

fn ids(range: std::ops::Range<u32>) -> Vec<ObjectId> {
    range.map(ObjectId).collect()
}

/// Mean access delay of the pull-based station: Σwait ÷ requests
/// served (cache hits wait 0).
fn pull_mean_delay(params: &Params, theta: f64) -> f64 {
    let trace = record_requests(
        Popularity::Zipf { theta },
        params.objects,
        params.requests_per_tick,
        params.ticks,
        &mut RngStreams::new(params.seed).stream("broadcast/pull"),
    );
    let mut station = StationBuilder::new(Catalog::uniform_unit(params.objects))
        .on_demand(OnDemandPlanner::paper_default(), params.pull_bandwidth)
        .in_flight(InFlightConfig::coalescing(params.pull_bandwidth))
        .build()
        .expect("valid configuration");
    drive(&mut station, &trace, 5, 0, |_, _| {});
    drain(&mut station);
    let stats = station.stats();
    stats.wait_ticks.total() / stats.score.count.max(1) as f64
}

/// Run the comparison: mean access delay vs demand skew for flat
/// broadcast, skewed broadcast and pull-with-cache. One broadcast slot
/// is one tick (unit objects at unit downlink bandwidth).
pub fn run(params: &Params) -> Figure {
    assert!(params.hot_disk < params.objects);
    let flat = BroadcastSchedule::flat(ids(0..params.objects as u32));
    // Pad hot-disk chunking: frequencies chosen so sizes divide cleanly.
    let multi = BroadcastSchedule::multi_disk(&[
        (params.hot_frequency, ids(0..params.hot_disk as u32)),
        (1, ids(params.hot_disk as u32..params.objects as u32)),
    ]);

    let labels = [
        "flat broadcast",
        "two-disk broadcast",
        "pull with base-station cache",
    ];
    let series = sweep_series(&params.thetas, labels, |&theta| {
        let demand = Popularity::Zipf { theta }.build(params.objects);
        let waits = [
            flat.expected_wait_under(demand.probabilities()),
            multi.expected_wait_under(demand.probabilities()),
            pull_mean_delay(params, theta),
        ];
        (theta, waits)
    });
    Figure::new(
        "Extension: broadcast disks vs pull-based caching",
        "zipf exponent (demand skew)",
        "mean access delay (ticks/slots)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_match_the_dissemination_literature() {
        let params = Params::quick();
        let fig = run(&params);
        let flat = &fig.series[0];
        let multi = &fig.series[1];
        let pull = &fig.series[2];

        // Flat broadcast waits about half a cycle regardless of skew.
        for &(_, w) in &flat.points {
            let half = params.objects as f64 / 2.0;
            assert!(
                (w - half).abs() < half * 0.1,
                "flat wait {w} vs half-cycle {half}"
            );
        }
        // Under skew, the two-disk program beats flat; under uniform
        // demand it is worse (its cycle is longer).
        let (_, multi_skewed) = *multi.points.last().unwrap();
        let (_, flat_skewed) = *flat.points.last().unwrap();
        assert!(
            multi_skewed < flat_skewed,
            "{multi_skewed} !< {flat_skewed}"
        );
        let (_, multi_uniform) = multi.points[0];
        let (_, flat_uniform) = flat.points[0];
        assert!(
            multi_uniform > flat_uniform,
            "{multi_uniform} !> {flat_uniform}"
        );

        // The pull cache's mean delay is far below any broadcast's: most
        // requests are cache hits.
        for (&(_, p), &(_, f)) in pull.points.iter().zip(&flat.points) {
            assert!(
                p < f / 4.0,
                "pull {p} should be far below flat broadcast {f}"
            );
        }
    }
}
