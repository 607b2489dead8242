//! Shared simulation drivers: the one station run loop (update waves,
//! warm-up reset, a per-tick hook), request-trace recording, paired
//! policy runs, a std-threads parallel sweep and the sweep-to-series
//! helper every swept figure is built with.

use basecache_core::{BaseStationSim, Policy, StationBuilder};
use basecache_net::Catalog;
use basecache_obs::{NullRecorder, Recorder};
use basecache_sim::{RngStreams, StreamRng};
use basecache_workload::{Popularity, RequestGenerator, RequestTrace, TargetRecency};

use crate::report::Series;

/// Configuration of one time-stepped run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Number of unit-size objects.
    pub objects: usize,
    /// Client requests per time unit.
    pub requests_per_tick: usize,
    /// Simultaneous update waves every this many time units (waves fire
    /// at t = 0, p, 2p, …).
    pub update_period: u64,
    /// Warm-up time units (cache warms, stats discarded).
    pub warmup_ticks: u64,
    /// Measured time units.
    pub measure_ticks: u64,
    /// Access pattern.
    pub popularity: Popularity,
    /// Master RNG seed.
    pub seed: u64,
}

/// Result of one run: the station's post-measurement statistics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Data units downloaded during the measured phase.
    pub units_downloaded: u64,
    /// Objects downloaded during the measured phase.
    pub objects_downloaded: u64,
    /// Mean recency delivered to clients during the measured phase
    /// (`None` if no requests were served).
    pub mean_recency: Option<f64>,
    /// Mean client score delivered during the measured phase.
    pub mean_score: Option<f64>,
    /// Requests served during the measured phase.
    pub requests_served: u64,
}

impl RunResult {
    /// Read a station's statistics after [`drive`] returned.
    pub fn of(station: &BaseStationSim) -> Self {
        let stats = station.stats();
        Self {
            units_downloaded: stats.units_downloaded,
            objects_downloaded: stats.objects_downloaded,
            mean_recency: stats.recency.mean(),
            mean_score: stats.score.mean(),
            requests_served: stats.requests_served,
        }
    }
}

/// Record `ticks` batches of always-fresh requests drawn from
/// `popularity` on `rng`. Every experiment records through here; the
/// named RNG stream each passes is what keeps their draws apart.
pub fn record_requests(
    popularity: Popularity,
    objects: usize,
    requests_per_tick: usize,
    ticks: u64,
    rng: &mut StreamRng,
) -> RequestTrace {
    let generator = RequestGenerator::new(
        popularity.build(objects),
        requests_per_tick,
        TargetRecency::AlwaysFresh,
    );
    RequestTrace::record(&generator, ticks as usize, rng)
}

/// Record the full request trace for a config (warm-up + measurement),
/// so multiple policies replay identical demand — the paper's paired
/// set-up in Section 3.2.
pub fn record_trace(config: &RunConfig) -> RequestTrace {
    record_requests(
        config.popularity,
        config.objects,
        config.requests_per_tick,
        config.warmup_ticks + config.measure_ticks,
        &mut RngStreams::new(config.seed).stream("runner/requests"),
    )
}

/// The station run loop: replay `trace` tick by tick, with an update
/// wave every `wave_period` ticks (at t = 0, p, 2p, …; 0 = never) and
/// the statistics reset when `warmup_ticks` have passed. `before_step`
/// runs each tick between the wave and the step — where an experiment
/// delivers invalidation reports or applies its own server updates.
pub fn drive(
    station: &mut BaseStationSim,
    trace: &RequestTrace,
    wave_period: u64,
    warmup_ticks: u64,
    mut before_step: impl FnMut(&mut BaseStationSim, u64),
) {
    for (t, batch) in trace.iter() {
        let t = t as u64;
        if wave_period > 0 && t.is_multiple_of(wave_period) {
            station.apply_update_wave();
        }
        before_step(station, t);
        if t == warmup_ticks {
            station.reset_stats();
        }
        station.step(batch);
    }
}

/// Step an in-flight station with empty batches until no request is
/// parked on a transfer, so every request of the run is served before
/// its statistics are read. Panics without an in-flight ledger, or if
/// the drain outlasts the time the link needs to ship every unit the
/// run launched.
pub fn drain(station: &mut BaseStationSim) {
    fn ledger(station: &BaseStationSim) -> &basecache_net::InFlightLedger {
        station.flight_ledger().expect("an in-flight station")
    }
    let launched = ledger(station).stats().units_launched;
    let limit = launched / ledger(station).config().bandwidth_per_round.max(1) + 2;
    let mut rounds = 0u64;
    while ledger(station).waiting() > 0 {
        station.step(&[]);
        rounds += 1;
        assert!(rounds <= limit, "drain did not converge");
    }
}

/// Build a unit-size station for `policy` with `recorder` wired in and
/// [`drive`] it over a recorded trace under the config's update
/// schedule. The station comes back for read-out: [`RunResult::of`],
/// or the recorder's own channels.
pub fn run_station(
    config: &RunConfig,
    policy: Policy,
    trace: &RequestTrace,
    recorder: Box<dyn Recorder>,
) -> BaseStationSim {
    let mut station = StationBuilder::new(Catalog::uniform_unit(config.objects))
        .policy(policy)
        .recorder(recorder)
        .build()
        .expect("runner policies are valid configurations");
    drive(
        &mut station,
        trace,
        config.update_period,
        config.warmup_ticks,
        |_, _| {},
    );
    station
}

/// Drive one policy over a recorded trace under the config's update
/// schedule, returning measured-phase statistics.
pub fn run_policy(config: &RunConfig, policy: Policy, trace: &RequestTrace) -> RunResult {
    RunResult::of(&run_station(config, policy, trace, Box::new(NullRecorder)))
}

/// Run `row` at every swept value in parallel and transpose the rows
/// into one [`Series`] per label: `row` returns the point's x
/// coordinate and one y per label, in label order.
pub fn sweep_series<X: Sync, const N: usize>(
    xs: &[X],
    labels: [&str; N],
    row: impl Fn(&X) -> (f64, [f64; N]) + Sync,
) -> Vec<Series> {
    let rows = parallel_sweep(xs.iter().collect(), |&x| row(x));
    labels
        .iter()
        .enumerate()
        .map(|(i, &label)| Series::new(label, rows.iter().map(|&(x, ys)| (x, ys[i])).collect()))
        .collect()
}

/// Map `inputs` to outputs in parallel worker threads (order-preserving).
///
/// The experiment sweeps are embarrassingly parallel over parameter
/// points; this fans them out over `std::thread::available_parallelism`
/// workers: a mutex-guarded input queue feeds the workers, results flow
/// back over an `std::sync::mpsc` channel, and outputs are re-assembled
/// in input order by index.
pub fn parallel_sweep<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(&I) -> O + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4)
        .min(n);
    let queue = std::sync::Mutex::new(inputs.into_iter().enumerate());
    let (out_tx, out_rx) = std::sync::mpsc::channel::<(usize, O)>();

    let mut outputs: Vec<Option<O>> = (0..n).map(|_| None).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            let out_tx = out_tx.clone();
            let queue = &queue;
            let f = &f;
            scope.spawn(move || loop {
                let next = queue.lock().expect("sweep queue poisoned").next();
                match next {
                    Some((i, input)) => {
                        let _ = out_tx.send((i, f(&input)));
                    }
                    None => break,
                }
            });
        }
        drop(out_tx);
        while let Ok((i, out)) = out_rx.recv() {
            outputs[i] = Some(out);
        }
    });
    outputs
        .into_iter()
        .map(|o| o.expect("every sweep input produces an output"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_core::planner::{OnDemandPlanner, SolverChoice};
    use basecache_core::recency::ScoringFunction;

    fn tiny_config() -> RunConfig {
        RunConfig {
            objects: 20,
            requests_per_tick: 10,
            update_period: 5,
            warmup_ticks: 10,
            measure_ticks: 20,
            popularity: Popularity::Uniform,
            seed: 42,
        }
    }

    #[test]
    fn trace_covers_warmup_plus_measurement() {
        let c = tiny_config();
        let t = record_trace(&c);
        assert_eq!(t.len(), 30);
        assert_eq!(t.total_requests(), 300);
    }

    #[test]
    fn on_demand_downloads_at_most_async_ceiling() {
        let c = tiny_config();
        let trace = record_trace(&c);
        let od = run_policy(
            &c,
            Policy::OnDemandLowestRecency {
                k_objects: usize::MAX,
            },
            &trace,
        );
        // Async ceiling: every object at every wave during measurement.
        // Waves at t in [10, 30) multiples of 5: t=10,15,20,25 → 4 waves.
        let ceiling = 20u64 * 4;
        assert!(
            od.units_downloaded <= ceiling,
            "{} > {ceiling}",
            od.units_downloaded
        );
        assert_eq!(od.requests_served, 200);
        assert_eq!(
            od.mean_recency,
            Some(1.0),
            "unbounded on-demand always serves fresh"
        );
    }

    #[test]
    fn paired_runs_replay_identical_demand() {
        let c = tiny_config();
        let trace = record_trace(&c);
        let a = run_policy(&c, Policy::AsyncRoundRobin { k_objects: 2 }, &trace);
        let b = run_policy(&c, Policy::AsyncRoundRobin { k_objects: 2 }, &trace);
        assert_eq!(a.units_downloaded, b.units_downloaded);
        assert_eq!(a.mean_recency, b.mean_recency);
    }

    #[test]
    fn knapsack_policy_runs_under_budget() {
        let c = tiny_config();
        let trace = record_trace(&c);
        let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp);
        let r = run_policy(
            &c,
            Policy::OnDemand {
                planner,
                budget_units: 3,
            },
            &trace,
        );
        assert!(r.units_downloaded <= 3 * 30);
    }

    #[test]
    fn parallel_sweep_preserves_order() {
        let out = parallel_sweep((0..100).collect(), |&i: &i32| i * 2);
        assert_eq!(out, (0..100).map(|i| i * 2).collect::<Vec<_>>());
        let empty: Vec<i32> = parallel_sweep(Vec::<i32>::new(), |&i| i);
        assert!(empty.is_empty());
    }
}
