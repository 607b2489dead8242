//! Recency estimation over a lossy wireless control channel.
//!
//! The paper's planner assumes the base station knows how stale each
//! cached copy is. This example runs the same workload under four
//! knowledge regimes — exact version oracle, invalidation-report
//! counting, rate-learning projection, and TTL aging with a wrong
//! assumed period — while a fraction of the server's invalidation
//! reports never arrives. The *measured* score always uses the truth,
//! so the table shows exactly how much delivered recency each estimator
//! costs.
//!
//! Run with:
//! ```text
//! cargo run --release --example lossy_reports
//! ```

use basecache::core::estimator::{RateEstimator, ReportEstimator, TtlEstimator};
use basecache::core::planner::OnDemandPlanner;
use basecache::core::{Estimation, StationBuilder};
use basecache::net::{Catalog, ReportLog};
use basecache::sim::{RngStreams, SimTime};
use basecache::workload::{Popularity, RequestGenerator, RequestTrace, TargetRecency};

const OBJECTS: usize = 200;
const BUDGET: u64 = 25;
const UPDATE_PERIOD: u64 = 4;
const REPORT_LOSS: f64 = 0.4;

fn run(estimation: Estimation, trace: &RequestTrace) -> (f64, u64) {
    let catalog = Catalog::uniform_unit(OBJECTS);
    let mut log = ReportLog::new(&catalog);
    let builder = StationBuilder::new(catalog).on_demand(OnDemandPlanner::paper_default(), BUDGET);
    let builder = match estimation {
        Estimation::Oracle => builder.oracle(),
        Estimation::Estimator(est) => builder.estimator(est),
    };
    let mut station = builder.build().expect("example configuration is valid");
    let mut loss = RngStreams::new(9).stream("example/report-loss");

    for (t, batch) in trace.iter() {
        let t = t as u64;
        if t.is_multiple_of(UPDATE_PERIOD) {
            station.apply_update_wave();
            log.record_wave();
            let report = log.cut_report(SimTime::from_ticks(t));
            if loss.random::<f64>() >= REPORT_LOSS {
                station.deliver_report(&report);
            }
        }
        if t == 40 {
            station.reset_stats();
        }
        station.step(batch);
    }
    (
        station.stats().score.mean().unwrap_or(1.0),
        station.stats().units_downloaded,
    )
}

fn main() {
    let generator = RequestGenerator::new(
        Popularity::ZIPF1.build(OBJECTS),
        60,
        TargetRecency::Uniform { lo: 0.5, hi: 1.0 },
    );
    let mut rng = RngStreams::new(9).stream("example/requests");
    let trace = RequestTrace::record(&generator, 240, &mut rng);

    println!(
        "{OBJECTS} objects, updates every {UPDATE_PERIOD} ticks, budget {BUDGET}/tick, \
         {:.0}% of reports lost\n",
        REPORT_LOSS * 100.0
    );
    println!(
        "{:<36}{:>12}{:>14}",
        "estimation", "avg score", "units fetched"
    );
    let variants: Vec<(&str, Estimation)> = vec![
        ("oracle (paper's assumption)", Estimation::Oracle),
        (
            "invalidation reports (counting)",
            Estimation::Estimator(Box::new(ReportEstimator::new(OBJECTS))),
        ),
        (
            "invalidation reports (rate-learning)",
            Estimation::Estimator(Box::new(RateEstimator::new(OBJECTS, 0.3))),
        ),
        (
            "ttl assuming period 12 (3x wrong)",
            Estimation::Estimator(Box::new(TtlEstimator::new(12))),
        ),
    ];
    for (name, estimation) in variants {
        let (score, units) = run(estimation, &trace);
        println!("{name:<36}{score:>12.4}{units:>14}");
    }
    println!("\nRate-learning projects staleness between (and across lost) reports,");
    println!("recovering most of the oracle's advantage; pure counting goes blind");
    println!("whenever a report drops, and a mis-specified TTL misjudges everything.");
}
