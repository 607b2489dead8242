//! Quickstart: one scheduling round at the base station.
//!
//! Five mobile clients request objects; the cache holds copies of
//! varying staleness; the fixed-network budget allows 6 data units of
//! downloads. The on-demand planner picks the downloads that maximize
//! the clients' average recency score.
//!
//! Run with:
//! ```text
//! cargo run --example quickstart
//! ```

use basecache::core::planner::OnDemandPlanner;
use basecache::core::recency::ScoringFunction;
use basecache::core::request::RequestBatch;
use basecache::net::{Catalog, ObjectId};

fn main() -> Result<(), basecache::core::Error> {
    // The remote servers export three objects of sizes 4, 2 and 6 units.
    let catalog = Catalog::from_sizes(&[4, 2, 6]);

    // The base-station cache holds copies with these recency values
    // (1.0 = up to date; lower = more server updates missed).
    let recency = [0.9, 0.2, 0.5];

    // Five clients each request one object. Three insist on fully fresh
    // data (target 1.0); two will happily take slightly stale copies.
    let mut batch = RequestBatch::new();
    batch.push(ObjectId(0), 1.0);
    batch.push(ObjectId(0), 0.6);
    batch.push(ObjectId(1), 1.0);
    batch.push(ObjectId(1), 1.0);
    batch.push(ObjectId(2), 0.5);

    let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio);

    println!(
        "round with {} clients over {} objects",
        batch.total_requests(),
        catalog.len()
    );
    println!(
        "{:>8} {:>6} {:>9} {:>9}",
        "budget", "dl", "units", "avg score"
    );
    for budget in [0u64, 2, 4, 6, 12] {
        let plan = planner.plan(&batch, &catalog, &recency, budget)?;
        println!(
            "{:>8} {:>6} {:>9} {:>9.4}",
            budget,
            format!(
                "{:?}",
                plan.downloads().iter().map(|o| o.0).collect::<Vec<_>>()
            ),
            plan.download_size(),
            plan.average_score(&batch, &recency),
        );
    }

    // The planner's choice at budget 6: object 1 is cheap (2 units) and
    // very stale with two demanding clients — it goes first; object 0 is
    // nearly fresh, so spending 4 units on it buys almost nothing.
    let plan = planner.plan(&batch, &catalog, &recency, 6)?;
    println!(
        "\nat budget 6 the base station downloads {:?} and serves the rest from cache:",
        plan.downloads()
    );
    for object in plan.from_cache(&batch) {
        println!(
            "  {object} served from cache at recency {}",
            recency[object.index()]
        );
    }
    Ok(())
}
