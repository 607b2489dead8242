//! Extension experiment — flash crowds and single-flight coalescing.
//!
//! A Zipf-popular baseline population suddenly gains a burst of demand
//! for a handful of *cold* objects (never requested before, so cached
//! nowhere) while every transfer occupies the fixed network for
//! `ceil(size / bandwidth)` rounds. During the window between launch and
//! arrival the stampede piles up: with **single-flight coalescing** the
//! later requesters join the transfer already on the wire and are served
//! when it lands; with **naive re-fetching** every round re-launches the
//! same objects, duplicate transfers queue behind each other on the FIFO
//! link, and the growing backlog both starves the baseline refresh
//! traffic and stretches every waiter's delay.
//!
//! We sweep the spike intensity and report, for both modes, the mean
//! delivered score and the mean waiting time of parked requests, plus
//! the duplicate launches and the coalesced-fetch ratio that explain
//! them.

use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::{Catalog, InFlightConfig};
use basecache_obs::{CausalConfig, CausalRecorder, Recorder};
use basecache_sim::RngStreams;
use basecache_workload::{FlashCrowdGenerator, Popularity, RequestTrace, TargetRecency};

use crate::report::Figure;
use crate::runner::{drive, sweep_series};

/// Parameters of the flash-crowd sweep.
#[derive(Debug, Clone)]
pub struct Params {
    /// Baseline (warm) objects, Zipf-popular, unit size.
    pub baseline_objects: usize,
    /// Cold objects the spike targets, uniformly popular.
    pub cold_objects: usize,
    /// Size of each cold object in data units (multi-round transfers).
    pub cold_object_size: u64,
    /// Baseline requests per round.
    pub requests_per_tick: usize,
    /// Spike intensities (extra requests per round) to sweep.
    pub spike_rates: Vec<usize>,
    /// First round of the spike window.
    pub spike_start: u64,
    /// Length of the spike window in rounds.
    pub spike_len: u64,
    /// Rounds of demand (a drain tail follows automatically).
    pub ticks: u64,
    /// Update-wave period in rounds.
    pub update_period: u64,
    /// Fixed-network capacity in units per round.
    pub bandwidth: u64,
    /// Planner refresh budget in units per round.
    pub refresh_budget: u64,
    /// Master seed.
    pub seed: u64,
}

impl Params {
    /// Full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            baseline_objects: 200,
            cold_objects: 15,
            cold_object_size: 12,
            requests_per_tick: 60,
            spike_rates: vec![0, 120, 300, 600],
            spike_start: 40,
            spike_len: 20,
            ticks: 120,
            update_period: 10,
            bandwidth: 40,
            refresh_budget: 120,
            seed: 70_000,
        }
    }

    /// CI-sized setup.
    pub fn quick() -> Self {
        Self {
            baseline_objects: 60,
            cold_objects: 8,
            cold_object_size: 10,
            requests_per_tick: 20,
            spike_rates: vec![0, 60, 150],
            spike_start: 15,
            spike_len: 10,
            ticks: 50,
            bandwidth: 25,
            refresh_budget: 60,
            ..Self::paper()
        }
    }

    fn catalog(&self) -> Catalog {
        let sizes: Vec<u64> = (0..self.baseline_objects)
            .map(|_| 1)
            .chain((0..self.cold_objects).map(|_| self.cold_object_size))
            .collect();
        Catalog::from_sizes(&sizes)
    }
}

/// Metrics from one (spike intensity, mode) run.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// Mean delivered score over every served request.
    pub score: f64,
    /// Mean waiting time (rounds) of requests parked on transfers.
    pub wait: f64,
    /// Transfers launched for an object that already had one in flight.
    pub duplicate_launches: u64,
    /// Total data units launched onto the fixed network.
    pub units_launched: u64,
    /// Fraction of fetch demand absorbed by joining in-flight transfers.
    pub coalesced_fetch_ratio: f64,
}

/// Drive one (spike intensity, mode) run to completion — demand rounds,
/// update waves, then the drain — and return the station for read-out.
/// The trace depends only on the intensity, so both modes replay the
/// identical demand.
fn run_station(
    params: &Params,
    spike_rate: usize,
    config: InFlightConfig,
    recorder: Option<Box<CausalRecorder>>,
) -> basecache_core::BaseStationSim {
    let mut generator = FlashCrowdGenerator::new(
        Popularity::ZIPF1.build(params.baseline_objects),
        Popularity::Uniform.build(params.cold_objects),
        params.requests_per_tick,
        spike_rate,
        TargetRecency::AlwaysFresh,
        params.spike_start,
        params.spike_len,
    );
    let mut rng = RngStreams::new(params.seed).stream("flash-crowd/requests");
    let batches = (0..params.ticks).map(|_| generator.batch(&mut rng));
    let trace = RequestTrace::from_batches(batches.collect());

    let mut builder = StationBuilder::new(params.catalog())
        .on_demand(OnDemandPlanner::paper_default(), params.refresh_budget)
        .in_flight(config);
    if let Some(rec) = recorder {
        builder = builder.recorder(rec);
    }
    let mut station = builder.build().expect("valid configuration");
    drive(&mut station, &trace, params.update_period, 0, |_, _| {});
    // Drain: every parked request must be served before we read stats.
    let limit = station
        .flight_ledger()
        .expect("flight mode")
        .stats()
        .units_launched
        / params.bandwidth.max(1)
        + 2;
    let mut rounds = 0u64;
    while station.flight_ledger().expect("flight mode").waiting() > 0 {
        station.step(&[]);
        rounds += 1;
        assert!(rounds <= limit, "drain did not converge");
    }
    station
}

fn read_point(station: &basecache_core::BaseStationSim) -> Point {
    let ledger = station.flight_ledger().expect("flight mode").stats();
    Point {
        score: station.stats().score.mean().unwrap_or(1.0),
        wait: station.stats().wait_ticks.mean().unwrap_or(0.0),
        duplicate_launches: ledger.duplicate_launches,
        units_launched: ledger.units_launched,
        coalesced_fetch_ratio: ledger.coalesced_fetch_ratio(),
    }
}

/// Run one spike intensity under one ledger mode. Both modes replay the
/// identical request trace for the given intensity. Recorder-free: this
/// is the path the `planner/inflight/flash_crowd` bench times, so the
/// station runs with the default [`basecache_obs::NullRecorder`].
pub fn run_point(params: &Params, spike_rate: usize, config: InFlightConfig) -> Point {
    read_point(&run_station(params, spike_rate, config, None))
}

/// [`run_point`] with the full [`CausalRecorder`] wired in: the same
/// trace and physics (parity-tested in `basecache-core`), plus the
/// causal read-out — wait decomposition, age-of-information and the
/// invariant monitor's verdict.
#[derive(Debug, Clone)]
pub struct ProfiledPoint {
    /// The headline metrics, identical to the unprofiled run.
    pub point: Point,
    /// Mean rounds a parked request spent queued before its transfer
    /// launched.
    pub wait_queueing: f64,
    /// Mean rounds a parked request spent with its transfer on the wire.
    pub wait_on_wire: f64,
    /// Worst age-of-information observed at any serve, ticks.
    pub peak_aoi: u64,
    /// Mean age at serve, ticks.
    pub mean_aoi: f64,
    /// Transfer-lifecycle spans captured.
    pub lifecycle_spans: usize,
    /// Invariant violations flagged (0 on a correct run).
    pub monitor_violations: u64,
}

/// Run one profiled spike point. The monitor runs fully armed — budget
/// check at the refresh budget, and the single-flight check disarmed
/// only under the naive baseline, where duplicates are the design.
pub fn run_point_profiled(
    params: &Params,
    spike_rate: usize,
    config: InFlightConfig,
) -> ProfiledPoint {
    let recorder = CausalRecorder::new(CausalConfig {
        num_objects: params.baseline_objects + params.cold_objects,
        budget_units: Some(params.refresh_budget),
        allow_duplicate_flights: !config.coalesce,
        ..CausalConfig::default()
    });
    let station = run_station(params, spike_rate, config, Some(Box::new(recorder)));
    let causal = station
        .recorder()
        .as_any()
        .downcast_ref::<CausalRecorder>()
        .expect("driven with a CausalRecorder");
    let snapshot = causal.snapshot();
    let sample_mean = |name: &str| snapshot.sample(name).map(|s| s.mean).unwrap_or(0.0);
    ProfiledPoint {
        point: read_point(&station),
        wait_queueing: sample_mean("wait_queueing_ticks"),
        wait_on_wire: sample_mean("wait_on_wire_ticks"),
        peak_aoi: causal.aoi().peak_aoi(),
        mean_aoi: sample_mean("aoi_at_serve"),
        lifecycle_spans: causal.lifecycle_spans().spans().len(),
        monitor_violations: causal.monitor().total_violations(),
    }
}

/// Run the sweep: each spike intensity under coalescing and naive
/// re-fetching over the same trace.
pub fn run(params: &Params) -> Figure {
    let labels = [
        "delivered score (coalescing)",
        "delivered score (naive)",
        "mean wait, rounds (coalescing)",
        "mean wait, rounds (naive)",
        "duplicate launches (naive)",
        "coalesced fetch ratio (coalescing)",
        // Causal-profile series (appended: earlier indices are pinned
        // by downstream readers).
        "wait queueing, rounds (coalescing)",
        "wait on-wire, rounds (coalescing)",
        "mean AoI at serve, ticks (coalescing)",
        "peak AoI at serve, ticks (coalescing)",
        "monitor violations (coalescing)",
    ];
    let series = sweep_series(&params.spike_rates, labels, |&rate| {
        let coalescing = InFlightConfig::coalescing(params.bandwidth);
        let coalesce = run_point(params, rate, coalescing);
        let naive = run_point(params, rate, InFlightConfig::naive(params.bandwidth));
        // A third, profiled coalescing run: identical physics
        // (parity-tested), read out through the causal recorder for
        // the wait-decomposition and AoI series.
        let profiled = run_point_profiled(params, rate, coalescing);
        let ys = [
            coalesce.score,
            naive.score,
            coalesce.wait,
            naive.wait,
            naive.duplicate_launches as f64,
            coalesce.coalesced_fetch_ratio,
            profiled.wait_queueing,
            profiled.wait_on_wire,
            profiled.mean_aoi,
            profiled.peak_aoi as f64,
            profiled.monitor_violations as f64,
        ];
        (rate as f64, ys)
    });
    Figure::new(
        "Extension: flash crowd — single-flight coalescing vs naive re-fetching",
        "spike intensity (extra requests per round)",
        "mixed units (see series)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalescing_sustains_score_under_the_spike_while_naive_collapses() {
        let fig = run(&Params::quick());
        let c_score = &fig.series[0].points;
        let n_score = &fig.series[1].points;
        let c_wait = &fig.series[2].points;
        let n_wait = &fig.series[3].points;
        let n_dupes = &fig.series[4].points;
        let c_ratio = &fig.series[5].points;
        let last = c_score.len() - 1;

        // At the top intensity naive has measurably collapsed below
        // coalescing on score and waits far longer.
        assert!(
            c_score[last].1 > n_score[last].1 + 0.02,
            "coalescing {:.4} must beat naive {:.4} at peak spike",
            c_score[last].1,
            n_score[last].1
        );
        assert!(
            n_wait[last].1 > c_wait[last].1,
            "naive backlog must stretch waits: {:.3} vs {:.3}",
            n_wait[last].1,
            c_wait[last].1
        );
        // Coalescing holds its score as the spike intensifies.
        assert!(
            c_score[last].1 > c_score[0].1 - 0.05,
            "coalescing must sustain score across the sweep: {:.4} -> {:.4}",
            c_score[0].1,
            c_score[last].1
        );
        // Naive degrades monotonically-ish: strictly worse at peak than
        // with no spike at all.
        assert!(
            n_score[last].1 < n_score[0].1,
            "naive must degrade with spike intensity: {:.4} -> {:.4}",
            n_score[0].1,
            n_score[last].1
        );
        // The mechanism: duplicates grow with the spike, and coalescing
        // absorbs a growing share of fetch demand by joining.
        assert!(n_dupes[last].1 > n_dupes[0].1);
        assert!(c_ratio[last].1 > c_ratio[0].1);

        // The causal-profile series ride behind the pinned six: the
        // wait decomposition explains the total wait, and the armed
        // monitor stays silent across the whole sweep.
        assert_eq!(fig.series.len(), 11);
        let queueing = &fig.series[6].points;
        let on_wire = &fig.series[7].points;
        let peak_aoi = &fig.series[9].points;
        let violations = &fig.series[10].points;
        assert!(
            on_wire[last].1 > 0.0,
            "multi-round cold transfers put waiters on the wire"
        );
        let total = queueing[last].1 + on_wire[last].1;
        assert!(
            (total - c_wait[last].1).abs() < total.max(1.0) * 0.5,
            "decomposition {total:.3} should be in the ballpark of the \
             ledger's mean wait {:.3}",
            c_wait[last].1
        );
        assert!(peak_aoi[last].1 > 0.0, "update waves age served copies");
        assert!(
            violations.iter().all(|&(_, v)| v == 0.0),
            "a correct run must stay violation-free: {violations:?}"
        );
    }

    #[test]
    fn profiled_point_matches_the_unprofiled_physics() {
        let params = Params::quick();
        let spike = *params.spike_rates.last().unwrap();
        let config = InFlightConfig::coalescing(params.bandwidth);
        let plain = run_point(&params, spike, config);
        let profiled = run_point_profiled(&params, spike, config);
        assert_eq!(
            plain.score.to_bits(),
            profiled.point.score.to_bits(),
            "profiling must not perturb the simulation"
        );
        assert_eq!(plain.duplicate_launches, profiled.point.duplicate_launches);
        assert_eq!(plain.units_launched, profiled.point.units_launched);
        assert!(profiled.lifecycle_spans > 0);
        assert_eq!(profiled.monitor_violations, 0);
        // The naive baseline disarms only the single-flight check; the
        // run is still conservation- and order-clean.
        let naive = run_point_profiled(&params, spike, InFlightConfig::naive(params.bandwidth));
        assert_eq!(naive.monitor_violations, 0);
    }
}
