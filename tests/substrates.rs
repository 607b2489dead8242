//! Cross-crate integration of the extended substrates: broadcast disks,
//! the in-flight ledger's transfer times, constrained (quasi-copy)
//! planning and the estimator stack, all through the public facade.

use basecache::core::estimator::{RateEstimator, ReportEstimator};
use basecache::core::planner::OnDemandPlanner;
use basecache::core::recency::DecayModel;
use basecache::core::{Estimation, StationBuilder};
use basecache::net::{BroadcastSchedule, Catalog, InFlightConfig, ObjectId, ReportLog};
use basecache::obs::StatsRecorder;
use basecache::sim::{RngStreams, SimTime};
use basecache::workload::{Popularity, RequestGenerator, RequestTrace, TargetRecency};
use basecache_experiments::runner::{drain, drive};

/// The pull cache and the broadcast disk serve the same Zipf demand; the
/// cache's mean access delay must be far below the broadcast's expected
/// wait once warmed (the environment the paper targets).
#[test]
fn warmed_pull_cache_beats_broadcast_on_access_delay() {
    let objects = 60usize;
    let schedule = BroadcastSchedule::flat((0..objects as u32).map(ObjectId));
    let pop = Popularity::ZIPF1.build(objects);
    let broadcast_wait = schedule.expected_wait_under(pop.probabilities());
    assert!(
        broadcast_wait > objects as f64 / 3.0,
        "flat disk waits ~half cycle"
    );

    let generator = RequestGenerator::new(pop, 20, TargetRecency::AlwaysFresh);
    let mut rng = RngStreams::new(31).stream("subs/pull");
    let trace = RequestTrace::record(&generator, 100, &mut rng);
    let mut station = StationBuilder::new(Catalog::uniform_unit(objects))
        .on_demand(OnDemandPlanner::paper_default(), 20)
        .in_flight(InFlightConfig::coalescing(20))
        .build()
        .expect("valid configuration");
    drive(&mut station, &trace, 0, 0, |_, _| {});
    drain(&mut station);
    let stats = station.stats();
    let total_wait = stats.wait_ticks.mean().unwrap_or(0.0) * stats.waited as f64;
    let pull_delay = total_wait / stats.requests_served as f64;
    assert!(
        pull_delay < broadcast_wait / 5.0,
        "pull mean delay {pull_delay} vs broadcast {broadcast_wait}"
    );
}

/// An in-flight station's p95 wait upper-bounds its mean wait, and both
/// grow as the fixed network's bandwidth shrinks. The p95 is the
/// recorder's streaming estimate over every parked request's wait.
#[test]
fn inflight_wait_percentiles_are_ordered() {
    let generator =
        RequestGenerator::new(Popularity::Uniform.build(40), 8, TargetRecency::AlwaysFresh);
    let trace = RequestTrace::record(&generator, 60, &mut RngStreams::new(77).stream("subs/p95"));
    let mut means = Vec::new();
    let mut p95s = Vec::new();
    for bandwidth in [8u64, 2] {
        let mut station = StationBuilder::new(Catalog::uniform_unit(40))
            .on_demand(OnDemandPlanner::paper_default(), 10)
            .in_flight(InFlightConfig::coalescing(bandwidth))
            .recorder(Box::new(StatsRecorder::new()))
            .build()
            .expect("valid configuration");
        drive(&mut station, &trace, 0, 0, |_, _| {});
        drain(&mut station);
        let mean = station.stats().wait_ticks.mean().unwrap();
        let p95 = station
            .obs_snapshot()
            .sample("fetch_latency_ticks")
            .expect("parked requests recorded their waits")
            .p95;
        assert!(p95 >= mean, "p95 {p95} must dominate mean {mean}");
        means.push(mean);
        p95s.push(p95);
    }
    assert!(means[1] > means[0], "{means:?}");
    assert!(p95s[1] > p95s[0], "{p95s:?}");
}

/// A station driven with invalidation reports and a rate-learning
/// estimator keeps true delivered score close to the oracle even when
/// every other report is lost.
#[test]
fn rate_estimator_survives_heavy_report_loss() {
    let objects = 40usize;
    let generator = RequestGenerator::new(
        Popularity::Uniform.build(objects),
        15,
        TargetRecency::AlwaysFresh,
    );
    let mut rng = RngStreams::new(5).stream("subs/est");
    let trace = RequestTrace::record(&generator, 120, &mut rng);

    let score_with = |estimation: Estimation| -> f64 {
        let catalog = Catalog::uniform_unit(objects);
        let mut log = ReportLog::new(&catalog);
        let builder = StationBuilder::new(catalog).on_demand(OnDemandPlanner::paper_default(), 12);
        let builder = match estimation {
            Estimation::Oracle => builder.oracle(),
            Estimation::Estimator(est) => builder.estimator(est),
        };
        let mut station = builder.build().unwrap();
        for (t, batch) in trace.iter() {
            if t % 4 == 0 {
                station.apply_update_wave();
                log.record_wave();
                let report = log.cut_report(SimTime::from_ticks(t as u64));
                // Every second report is lost.
                if t % 8 == 0 {
                    station.deliver_report(&report);
                }
            }
            if t == 30 {
                station.reset_stats();
            }
            station.step(batch);
        }
        station.stats().score.mean().unwrap()
    };

    let oracle = score_with(Estimation::Oracle);
    let rate = score_with(Estimation::Estimator(Box::new(RateEstimator::new(
        objects,
        0.3,
        DecayModel::default(),
    ))));
    let counting = score_with(Estimation::Estimator(Box::new(ReportEstimator::new(
        objects,
        DecayModel::default(),
    ))));

    assert!(oracle >= rate - 0.02, "oracle {oracle} vs rate {rate}");
    assert!(
        rate > counting,
        "rate projection ({rate}) must beat pure counting ({counting}) under 50% loss"
    );
    assert!(
        rate > 0.8 * oracle,
        "rate estimator should stay close to oracle: {rate} vs {oracle}"
    );
}
