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
use basecache_net::ObjectId;

/// Persistent buffers for [`crate::planner::OnDemandPlanner::plan_requests_into`].
///
/// Construct one per station (or one per thread) and pass it to every
/// planning round; after the first round at a given catalog size and
/// budget, no further allocations occur on the exact-DP path.
#[derive(Debug, Default)]
pub struct PlannerScratch {
    /// Per-object summed download benefit, indexed by object id.
    pub(crate) per_profit: Vec<f64>,
    /// Per-object request count, indexed by object id.
    pub(crate) per_count: Vec<u32>,
    /// Object ids touched this round (sorted ascending after aggregation).
    pub(crate) touched: Vec<u32>,
    /// Knapsack items for the touched objects, object-ascending.
    pub(crate) items: Vec<Item>,
    /// Object id of each knapsack item (parallel to `items`).
    pub(crate) objects: Vec<ObjectId>,
    /// Reusable DP tables: the whole solve under
    /// [`crate::planner::SolverChoice::ExactDp`], the core sweep under
    /// [`crate::planner::SolverChoice::Adaptive`].
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
        self.touched.reserve(num_objects);
        self.items.reserve(num_objects);
        self.objects.reserve(num_objects);
        self.downloads.reserve(num_objects);
        self.dp.reserve(num_objects, budget);
        self.adaptive.reserve(num_objects);
    }

    /// Reduction + solve statistics of the last adaptive round (core
    /// size, items fixed, terminal method, bound values).
    pub fn adaptive(&self) -> &AdaptiveScratch {
        &self.adaptive
    }

    /// The knapsack items of the last assembled instance,
    /// object-ascending — one per requested object with positive
    /// profit. The solve-only benches read the assembled instance
    /// through this to time the solver in isolation.
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Drop every item of the assembled instance whose object `keep`
    /// rejects, preserving order — how the round kernel takes objects it
    /// must not fetch out of the knapsack before the solve.
    pub(crate) fn retain_objects(&mut self, mut keep: impl FnMut(ObjectId) -> bool) {
        let mut kept = 0usize;
        for i in 0..self.items.len() {
            if keep(self.objects[i]) {
                self.items[kept] = self.items[i];
                self.objects[kept] = self.objects[i];
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
