//! Reusable planning buffers for the per-tick hot path.
//!
//! [`PlannerScratch`] owns every buffer one on-demand planning round
//! needs — the per-object aggregation arrays, the knapsack items, the
//! DP scratch, and the resulting download list — so a steady-state
//! [`crate::station::BaseStationSim`] round performs **zero heap
//! allocations** once the buffers have grown to their working sizes
//! (see `tests/alloc_free.rs`).
//!
//! [`crate::planner::OnDemandPlanner::plan_requests_into`] aggregates the
//! raw request slice directly (duplicate requests for one object become
//! one knapsack item with summed profit), skipping the intermediate
//! [`crate::request::RequestBatch`] while producing the *same* floats:
//! per-object profits accumulate in arrival order, exactly as the batch
//! path's do.

use basecache_knapsack::{AdaptiveScratch, DpScratch, Item};
use basecache_net::{Catalog, ObjectId};

use crate::error::ConfigError;

/// The largest exact-DP table a station may reserve, in bytes (1 GiB).
/// [`crate::builder::StationBuilder::build`] and
/// [`crate::station::BaseStationSim::set_download_budget`] refuse a
/// catalog and budget whose tables would be larger with
/// [`crate::error::ConfigError::PlanTableTooLarge`] instead of letting
/// the reserve abort the process. The largest table anything in this
/// repository reserves is ~26 MB (100 000 objects under a budget of
/// 2 000 units).
pub const MAX_PLAN_TABLE_BYTES: u64 = 1 << 30;

/// Whether the exact-DP tables for `num_objects` items at `capacity`
/// data units — `capacity + 1` values plus `capacity / 64 + 1` keep
/// words an item, eight bytes each — stay within
/// [`MAX_PLAN_TABLE_BYTES`].
fn plan_table_fits(num_objects: usize, capacity: u64) -> bool {
    let words_per_item = capacity / 64 + 1;
    (num_objects as u64)
        .checked_mul(words_per_item)
        .and_then(|keep| keep.checked_add(capacity)?.checked_add(1)?.checked_mul(8))
        .is_some_and(|bytes| bytes <= MAX_PLAN_TABLE_BYTES)
}

/// Refuse a knapsack `budget` whose exact-DP tables over `catalog`
/// would pass [`MAX_PLAN_TABLE_BYTES`] at the capacity a station plans
/// with, `budget` clamped to the catalog's total size. The tables only
/// grow with the capacity, so a budget that fits unclamped needs no sum
/// over the catalog.
pub(crate) fn check_plan_table(catalog: &Catalog, budget: u64) -> Result<(), ConfigError> {
    let items = catalog.len();
    if plan_table_fits(items, budget) {
        return Ok(());
    }
    let capacity = budget.min(catalog.total_size());
    if plan_table_fits(items, capacity) {
        Ok(())
    } else {
        Err(ConfigError::PlanTableTooLarge { items, capacity })
    }
}

/// Persistent buffers for [`crate::planner::OnDemandPlanner::plan_requests_into`].
///
/// Construct one per station (or one per thread) and pass it to every
/// planning round; after the first round at a given catalog size and
/// budget, no further allocations occur on the exact-DP path.
#[derive(Debug, Default)]
pub struct PlannerScratch {
    /// Per-object summed download benefit, indexed by object id; all
    /// zero outside an assemble.
    pub(crate) per_profit: Vec<f64>,
    /// Per-object request count, indexed by object id; all zero outside
    /// an assemble.
    pub(crate) per_count: Vec<u32>,
    /// Knapsack items for the requested objects, object-ascending.
    pub(crate) items: Vec<Item>,
    /// Object id of each knapsack item (parallel to `items`).
    pub(crate) objects: Vec<ObjectId>,
    /// Reusable DP tables: the whole solve under
    /// [`crate::planner::SolverChoice::ExactDp`], the core sweep under
    /// [`crate::planner::SolverChoice::Adaptive`], the solution-space
    /// trace of an adaptive-budget round.
    pub(crate) dp: DpScratch,
    /// Reusable reduction buffers of the adaptive solve.
    pub(crate) adaptive: AdaptiveScratch,
    /// The chosen downloads, ascending.
    pub(crate) downloads: Vec<ObjectId>,
    pub(crate) download_size: u64,
    pub(crate) achieved_value: f64,
}

impl PlannerScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for a catalog of `num_objects` objects and a per-round
    /// budget of `budget` data units, so that even the first round
    /// allocates nothing under either exact solver. The DP tables'
    /// capacity is reserved, not touched: a solve dirties only the rows
    /// of the items it sweeps (the surviving core, under the adaptive
    /// solver).
    pub fn reserve(&mut self, num_objects: usize, budget: u64) {
        self.per_profit.resize(num_objects, 0.0);
        self.per_count.resize(num_objects, 0);
        self.items.reserve(num_objects);
        self.objects.reserve(num_objects);
        self.downloads.reserve(num_objects);
        // The DP tables go last (and their two big tables last among
        // them). The order decides which heap holes a station's build
        // leaves for the allocations that follow it; this one keeps the
        // benchmark's peak-RSS step at pass 36 of a `station-paper` run
        // and no earlier than pass 38 of a `station-inflight` run, on
        // every seed from 1 to 10.
        self.adaptive.reserve(num_objects);
        self.dp.reserve(num_objects, budget);
    }

    /// The knapsack items of the last assembled instance,
    /// object-ascending — one per requested object when assembled from
    /// a request batch, one per object with positive profit when
    /// assembled from a round engine. The solve-only benches read the
    /// assembled instance through this to time the solver in isolation.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Drop every item of the assembled instance whose object is in
    /// `excluded` or that `keep` rejects, preserving order — how the
    /// round kernel takes objects it must not fetch out of the knapsack
    /// before the solve. `excluded` ascends like the items do, so one
    /// cursor walks it beside them.
    pub(crate) fn retain_objects(
        &mut self,
        excluded: &[ObjectId],
        mut keep: impl FnMut(ObjectId) -> bool,
    ) {
        let mut excluded = excluded.iter().peekable();
        let mut kept = 0usize;
        for i in 0..self.items.len() {
            let object = self.objects[i];
            while excluded.next_if(|&&e| e < object).is_some() {}
            if excluded.peek() != Some(&&object) && keep(object) {
                self.items[kept] = self.items[i];
                self.objects[kept] = object;
                kept += 1;
            }
        }
        self.items.truncate(kept);
        self.objects.truncate(kept);
    }

    /// Objects the last planning round decided to download, ascending.
    pub fn downloads(&self) -> &[ObjectId] {
        &self.downloads
    }

    /// Total data units the last round's downloads occupy (≤ budget).
    pub fn download_size(&self) -> u64 {
        self.download_size
    }

    /// The knapsack value the last round achieved (total client benefit
    /// recovered by downloading).
    pub fn achieved_value(&self) -> f64 {
        self.achieved_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_sim::check::run_cases;

    /// A random ascending, distinct list of object ids below `universe`.
    fn ascending(rng: &mut basecache_sim::StreamRng, universe: u32) -> Vec<ObjectId> {
        (0..universe)
            .filter(|_| rng.random_range(0..3u32) == 0)
            .map(ObjectId)
            .collect()
    }

    #[test]
    fn merge_cursor_filter_equals_binary_search() {
        run_cases("scratch/retain_objects", 256, |case, rng| {
            let objects = ascending(rng, 48);
            // Every fourth case has no exclusions at all: the
            // coalescing-ledger round outside L2, filtered by `keep` alone.
            let excluded = if case % 4 == 0 {
                Vec::new()
            } else {
                ascending(rng, 56)
            };
            let joinable = ascending(rng, 48);
            let mut scratch = PlannerScratch::new();
            for (i, &o) in objects.iter().enumerate() {
                scratch.objects.push(o);
                scratch
                    .items
                    .push(Item::new(1 + o.0 as u64 % 5, 1.0 + i as f64));
            }
            let expected: Vec<(ObjectId, Item)> = objects
                .iter()
                .zip(&scratch.items)
                .filter(|(o, _)| {
                    joinable.binary_search(o).is_err() && excluded.binary_search(o).is_err()
                })
                .map(|(&o, &item)| (o, item))
                .collect();

            scratch.retain_objects(&excluded, |o| joinable.binary_search(&o).is_err());

            let got: Vec<(ObjectId, Item)> = scratch
                .objects
                .iter()
                .copied()
                .zip(scratch.items.iter().copied())
                .collect();
            assert_eq!(got, expected);
        });
    }
}
