//! Stock-ticker quasi-copies: heterogeneous recency targets and
//! budget-bound selection.
//!
//! The related-work the paper builds on (Alonso et al.'s *quasi-copies*)
//! motivates clients with different tolerance for stale data: "a client
//! querying stock prices may be satisfied with cached stock prices that
//! are within 5 percent of actual prices". Here, day traders demand
//! fresh quotes (target 1.0) while portfolio checkers accept older ones
//! (target 0.4); the planner spends its budget on the tickers the
//! demanding clients watch. The example then uses the DP solution-space
//! trace to pick the download budget at the knee of the value curve —
//! the paper's Section 6 future work.
//!
//! Run with:
//! ```text
//! cargo run --release --example stock_ticker
//! ```

use basecache::core::bound::{budget_for_fraction, knee_budget, marginal_gain_at};
use basecache::core::planner::OnDemandPlanner;
use basecache::core::recency::ScoringFunction;
use basecache::core::request::RequestBatch;
use basecache::net::{Catalog, ObjectId};
use basecache::sim::RngStreams;

fn main() -> Result<(), basecache::core::Error> {
    let streams = RngStreams::new(99);
    let n = 300;

    // Tickers are small objects (quote pages 1-4 units).
    let sizes: Vec<u64> = {
        let mut rng = streams.stream("sizes");
        (0..n).map(|_| rng.random_range(1..=4)).collect()
    };
    let catalog = Catalog::from_sizes(&sizes);

    // Cached quotes have aged; hot tickers updated most recently.
    let recency: Vec<f64> = {
        let mut rng = streams.stream("recency");
        (0..n).map(|_| rng.random_range(0.1..=1.0)).collect()
    };

    // 600 clients: 30% day traders (target 1.0) watching the hot 50
    // tickers; 70% portfolio checkers (target 0.4) spread over all.
    let mut batch = RequestBatch::new();
    let mut rng = streams.stream("clients");
    for _ in 0..180 {
        batch.push(ObjectId(rng.random_range(0..50u32)), 1.0);
    }
    for _ in 0..420 {
        batch.push(ObjectId(rng.random_range(0..n as u32)), 0.4);
    }

    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);
    let max_budget = catalog.total_size();
    let (mapped, trace) = planner.plan_with_trace(&batch, &catalog, &recency, max_budget)?;

    println!(
        "ticker cache: {n} tickers, {} clients",
        batch.total_requests()
    );
    println!("\nAverage Score vs download budget:");
    println!(
        "{:>8} {:>11} {:>15}",
        "budget", "avg score", "marginal gain"
    );
    for budget in (0..=max_budget).step_by((max_budget / 12).max(1) as usize) {
        println!(
            "{:>8} {:>11.4} {:>15.5}",
            budget,
            mapped.average_score_for_value(trace.value_at(budget)),
            marginal_gain_at(trace.values(), budget),
        );
    }

    // Budget-bound selection: stop downloading when a unit of bandwidth
    // buys less than 0.01 aggregate score over the next 25 units.
    let knee = knee_budget(trace.values(), 25, 0.01);
    let b95 = budget_for_fraction(trace.values(), 0.95);
    println!("\nknee budget (gain < 0.01/unit): {knee} of {max_budget} units");
    println!("budget reaching 95% of max value: {b95} units");

    let plan = planner.plan(&batch, &catalog, &recency, knee)?;
    println!(
        "\nplanning at the knee: {} tickers downloaded ({} units), average score {:.4}",
        plan.downloads().len(),
        plan.download_size(),
        plan.average_score(&batch, &recency)
    );
    let full = planner.plan(&batch, &catalog, &recency, max_budget)?;
    println!(
        "planning at full budget: {} tickers ({} units), average score {:.4}",
        full.downloads().len(),
        full.download_size(),
        full.average_score(&batch, &recency)
    );
    println!("\nthe knee budget delivers almost the full-score answer for a fraction");
    println!("of the bandwidth — the base station should stop there.");
    Ok(())
}
