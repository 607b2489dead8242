//! Web-proxy caching scenario.
//!
//! The paper notes its results "are applicable to any environment where
//! time or bandwidth constraints make it impractical to access all
//! requested data remotely. For example, our work could be applied to
//! web proxy caching." This example models a proxy in front of a
//! Zipf-skewed web workload with heterogeneous page sizes, and runs the
//! planner against the paper's full-table DP on the same knapsack
//! mapping across bandwidth budgets: the same plans, at different
//! planning cost.
//!
//! Run with:
//! ```text
//! cargo run --release --example web_proxy
//! ```

use std::time::Instant;

use basecache::core::planner::OnDemandPlanner;
use basecache::core::profit::build_instance;
use basecache::core::request::RequestBatch;
use basecache::core::Error;
use basecache::knapsack::{DpByCapacity, Solver};
use basecache::net::Catalog;
use basecache::sim::RngStreams;
use basecache::workload::{Popularity, RequestGenerator, SizeDist, TargetRecency};

fn main() -> Result<(), Error> {
    let streams = RngStreams::new(7_2000);

    // 800 pages, sizes 1..=50 units, Zipf popularity.
    let n = 800;
    let sizes = SizeDist::UniformInt { lo: 1, hi: 50 }.generate(n, &mut streams.stream("sizes"));
    let catalog = Catalog::from_sizes(&sizes);

    // Cached copies have aged to varying degrees.
    let recency: Vec<f64> = {
        let mut rng = streams.stream("recency");
        (0..n).map(|_| rng.random_range(0.05..=1.0)).collect()
    };

    // One burst of 2000 requests with mixed freshness demands.
    let generator = RequestGenerator::new(
        Popularity::ZIPF1.build(n),
        2000,
        TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
    );
    let batch = RequestBatch::from_generated(&generator.batch(&mut streams.stream("requests")));

    let planner = OnDemandPlanner::paper_default();
    println!(
        "web proxy: {} pages ({} total units), {} requests",
        n,
        catalog.total_size(),
        batch.total_requests()
    );
    for budget in [200u64, 1000, 5000] {
        println!("\nbandwidth budget: {budget} units");
        println!(
            "{:>14} {:>10} {:>10} {:>12} {:>12}",
            "solver", "downloads", "units", "avg score", "plan time"
        );
        let start = Instant::now();
        let plan = planner.plan(&batch, &catalog, &recency, budget)?;
        let elapsed = start.elapsed();
        println!(
            "{:>14} {:>10} {:>10} {:>12.5} {:>10.2?}",
            "planner",
            plan.downloads().len(),
            plan.download_size(),
            plan.average_score(&batch, &recency),
            elapsed,
        );

        // The paper's full-table DP on the same mapping.
        let start = Instant::now();
        let mapped = build_instance(&batch, &catalog, &recency, planner.scoring());
        let exact = DpByCapacity.solve(mapped.instance(), budget);
        let elapsed = start.elapsed();
        println!(
            "{:>14} {:>10} {:>10} {:>12.5} {:>10.2?}",
            "exact-dp",
            exact.chosen_indices().len(),
            exact.total_size(),
            mapped.average_score_for_value(exact.total_profit()),
            elapsed,
        );
        assert_eq!(
            plan.achieved_value(),
            exact.total_profit(),
            "the planner's plan is the DP's"
        );
    }

    println!("\nThe planner returns the full table's plan at a fraction of its cost.");
    Ok(())
}
