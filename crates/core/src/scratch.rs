//! Reusable planning buffers for the per-tick hot path.
//!
//! [`PlannerScratch`] owns every buffer one on-demand planning round
//! needs — the per-object aggregation arrays, the knapsack items, the
//! DP scratch, and the resulting download list — so a steady-state
//! [`crate::station::BaseStationSim`] round performs **zero heap
//! allocations** once the buffers have grown to their working sizes
//! (see `tests/alloc_free.rs`; the adaptive solver's DP tables size
//! themselves to the solved core, not the whole catalog, so the first
//! few rounds may still grow them).
//!
//! [`crate::planner::OnDemandPlanner::plan_requests_into`] aggregates the
//! raw request slice directly (duplicate requests for one object become
//! one knapsack item with summed profit), skipping the intermediate
//! [`crate::request::RequestBatch`] while producing the *same* floats:
//! per-object sums accumulate in arrival order, the base-score sum is
//! folded over objects ascending — exactly the order the `BTreeMap`
//! batch path uses.

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
    /// Per-request score in arrival order.
    pub(crate) scores: Vec<f64>,
    /// Per-request score counting-sorted into (object asc, arrival)
    /// order — the exact order the `RequestBatch` path folds the base
    /// score in, so the fold is bit-identical.
    pub(crate) bucketed: Vec<f64>,
    /// Per-object write cursor for the counting sort.
    pub(crate) cursor: Vec<u32>,
    /// Knapsack items for the touched objects, object-ascending.
    pub(crate) items: Vec<Item>,
    /// Object id of each knapsack item (parallel to `items`).
    pub(crate) objects: Vec<ObjectId>,
    /// Reusable DP tables.
    pub(crate) dp: DpScratch,
    /// Reusable reduction + adaptive-solve buffers.
    pub(crate) adaptive: AdaptiveScratch,
    /// Downloads of the previous adaptive round (ascending), used to
    /// warm-start the next round's incumbent.
    pub(crate) prev_downloads: Vec<ObjectId>,
    /// The warm-start hint as item indices into this round's instance.
    pub(crate) hint: Vec<usize>,
    /// The chosen downloads, ascending.
    pub(crate) downloads: Vec<ObjectId>,
    pub(crate) download_size: u64,
    pub(crate) achieved_value: f64,
    pub(crate) base_score_sum: f64,
    pub(crate) total_clients: u64,
}

impl PlannerScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for a catalog of `num_objects` objects and a per-round
    /// budget of `budget` data units. The aggregation buffers reach
    /// their steady-state size immediately; the adaptive solver's DP
    /// tables are deliberately *not* pre-sized to `num_objects ×
    /// budget` — they grow lazily to the (far smaller) core the first
    /// solves actually visit, and are allocation-free from then on.
    pub fn reserve(&mut self, num_objects: usize, budget: u64) {
        self.per_profit.resize(num_objects, 0.0);
        self.per_count.resize(num_objects, 0);
        self.cursor.resize(num_objects, 0);
        self.touched.reserve(num_objects);
        self.items.reserve(num_objects);
        self.objects.reserve(num_objects);
        self.downloads.reserve(num_objects);
        self.dp.reserve(num_objects, budget);
        self.adaptive.reserve(num_objects, budget);
        self.prev_downloads.reserve(num_objects);
        self.hint.reserve(num_objects);
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

    /// Σ over all clients of the score the cache alone would deliver
    /// (the mapping's base term).
    pub fn base_score_sum(&self) -> f64 {
        self.base_score_sum
    }

    /// Number of client requests in the last round.
    pub fn total_clients(&self) -> u64 {
        self.total_clients
    }

    /// The paper's `Average Score` the last plan delivers:
    /// `(base + value) / clients`, or 1.0 for an empty round.
    pub fn average_score(&self) -> f64 {
        if self.total_clients == 0 {
            return 1.0;
        }
        (self.base_score_sum + self.achieved_value) / self.total_clients as f64
    }
}
