//! Reusable planning buffers for the per-tick hot path.
//!
//! [`PlannerScratch`] owns every buffer one on-demand planning round
//! needs — the per-object aggregation arrays, the knapsack items, the
//! DP scratch, and the resulting download list — so a steady-state
//! [`crate::station::BaseStationSim`] round performs **zero heap
//! allocations** once the buffers have grown to their working sizes
//! (see `tests/alloc_free.rs`).
//!
//! A batch round — a station's, or
//! [`crate::planner::OnDemandPlanner::plan_requests_into`] — makes one
//! pass over its raw request slice: duplicate requests for one object
//! sum into one row — its request count, its knapsack profit and its
//! served score — skipping the intermediate
//! [`crate::request::RequestBatch`] while producing the *same* profits:
//! per-object sums accumulate in arrival order, exactly as the batch
//! path's do.

use basecache_knapsack::{AdaptiveScratch, DpScratch, Item};
use basecache_net::{Catalog, ObjectId};
use basecache_workload::GeneratedRequest;

use crate::error::ConfigError;
use crate::recency::ScoringFunction;

/// The largest exact-DP table a station may reserve, in bytes (1 GiB).
/// [`crate::builder::StationBuilder::build`],
/// [`crate::station::BaseStationSim::set_download_budget`] and the
/// planner's own entry points ([`crate::planner::OnDemandPlanner::plan`]
/// and its siblings) refuse a catalog and budget whose tables would be
/// larger with
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
/// budget, no further allocations occur.
#[derive(Debug, Default)]
pub struct PlannerScratch {
    /// Per-object Σ s at the recency each request is served at, indexed
    /// by object id; all zero outside a round ([`Self::aggregate`]).
    pub(crate) per_score: Vec<f64>,
    /// Per-object request count, indexed by object id; all zero outside
    /// a round.
    pub(crate) per_count: Vec<u32>,
    /// Knapsack items for the requested objects, object-ascending. While
    /// a batch aggregates, the per-object profit column instead: object
    /// `o`'s summed benefit Σ(1 − s) is `items[o]`'s profit until
    /// [`Self::assemble_requested`] packs the requested ones to the
    /// front.
    pub(crate) items: Vec<Item>,
    /// Object id of each knapsack item (parallel to `items`).
    pub(crate) objects: Vec<ObjectId>,
    /// Reusable DP tables: the adaptive solve's core sweep, the
    /// solution-space trace of an adaptive-budget round.
    pub(crate) dp: DpScratch,
    /// Reusable reduction buffers of the adaptive solve.
    pub(crate) adaptive: AdaptiveScratch,
    /// The density cut an engine round's instance was assembled above
    /// (0: the whole instance).
    pub(crate) cut: u16,
    /// Which assembly an engine round's plan came from
    /// ([`crate::planner::OnDemandPlanner::solve_candidates`]).
    pub(crate) certificate: u8,
    /// The chosen downloads, ascending.
    pub(crate) downloads: Vec<ObjectId>,
    pub(crate) download_size: u64,
    pub(crate) achieved_value: f64,
    /// The objects the aggregated batch requested, one bit each in
    /// object order; empty outside a round ([`Self::drain_requested`]).
    requested: Vec<u64>,
}

impl PlannerScratch {
    /// Fresh, empty scratch. Buffers grow on first use and are reused
    /// afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size for a catalog of `num_objects` objects and a per-round
    /// budget of `budget` data units, so that even the first round
    /// allocates nothing. The DP tables' capacity is reserved, not
    /// touched: a solve dirties only the rows of the items it sweeps
    /// (the core the adaptive solver's bounds leave undecided).
    pub fn reserve(&mut self, num_objects: usize, budget: u64) {
        self.per_score.resize(num_objects, 0.0);
        self.per_count.resize(num_objects, 0);
        self.items.reserve(num_objects);
        self.objects.reserve(num_objects);
        self.downloads.reserve(num_objects);
        // The DP tables go last but for the small requested-object
        // bitset (and their two big tables last among them). The order
        // decides which heap holes a station's build leaves for the
        // allocations that follow it; this one keeps the benchmark's
        // peak-RSS step no earlier than pass 36 of a `station-paper` run
        // and pass 38 of a `station-inflight` run, on every seed from 1
        // to 10.
        self.adaptive.reserve(num_objects);
        self.dp.reserve(num_objects, budget);
        self.requested.resize(num_objects.div_ceil(64), 0);
    }

    /// Size only what [`Self::aggregate`] fills when it sums no profit.
    pub(crate) fn reserve_aggregation(&mut self, num_objects: usize) {
        self.per_score.resize(num_objects, 0.0);
        self.per_count.resize(num_objects, 0);
        self.requested.resize(num_objects.div_ceil(64), 0);
    }

    /// A batch round's one pass over its requests. Per requested object
    /// it sums, in request order, the request count, the knapsack profit
    /// `Σ(1 − s)` with `s = score(recency[o], target)` when `profit` asks
    /// for it (a policy without a planner reads none), and `Σ s'` with
    /// `s'` the score at the recency the request is served at: `truth`'s
    /// when given (an estimator station's), else `s`. The profits wait
    /// for [`Self::assemble_requested`], the rest for
    /// [`Self::drain_requested`]. Never inlined: the round's longest
    /// loop compiles the same wherever it is called from.
    ///
    /// # Panics
    ///
    /// Panics if a requested object is outside the catalog, a target
    /// recency is outside `(0, 1]`, or `recency` is shorter than the
    /// catalog — the same contracts as
    /// [`crate::request::RequestBatch::push`] and
    /// [`crate::profit::build_instance`].
    #[inline(never)]
    pub(crate) fn aggregate(
        &mut self,
        requests: &[GeneratedRequest],
        catalog: &Catalog,
        scoring: ScoringFunction,
        recency: &[f64],
        profit: bool,
        truth: Option<&dyn Fn(ObjectId) -> f64>,
    ) {
        let n = catalog.len();
        assert!(
            recency.len() >= n,
            "need a recency for every catalog object ({} < {n})",
            recency.len()
        );
        if self.per_count.len() < n {
            self.reserve_aggregation(n);
        }
        let profits = &mut self.items;
        profits.clear();
        if profit {
            profits.resize(n, Item::new(0, 0.0));
        }
        let (count, score) = (&mut self.per_count[..n], &mut self.per_score[..n]);
        let requested = &mut self.requested;
        for r in requests {
            let o = r.object.index();
            assert!(o < n, "{} not in catalog", r.object);
            let s = scoring.score(recency[o], r.target_recency);
            count[o] += 1;
            if profit {
                profits[o] = Item::new(0, profits[o].profit() + (1.0 - s));
            }
            score[o] += match truth {
                None => s,
                Some(truth) => scoring.score(truth(r.object), r.target_recency),
            };
            requested[o / 64] |= 1 << (o % 64);
        }
    }

    /// A standalone plan's instance: the batch aggregated and assembled,
    /// the columns only a serve reads left cleared.
    pub(crate) fn assemble_requests(
        &mut self,
        requests: &[GeneratedRequest],
        catalog: &Catalog,
        scoring: ScoringFunction,
        recency: &[f64],
    ) {
        self.aggregate(requests, catalog, scoring, recency, true, None);
        self.assemble_requested(catalog);
        self.drain_requested(|_, _, _| {});
    }

    /// Assemble the aggregated batch's knapsack instance into
    /// [`Self::items`]: one item per requested object, object-ascending,
    /// its profit the object's summed benefit. A request, not the
    /// profit, decides: a requested object whose profit sums to zero is
    /// still an item.
    pub(crate) fn assemble_requested(&mut self, catalog: &Catalog) {
        self.objects.clear();
        // In place: the `len`-th requested object's profit sits at or
        // after slot `len`.
        for object in requested_objects(&self.requested) {
            let profit = self.items[object.index()].profit();
            self.items[self.objects.len()] = Item::new(catalog.size_of(object), profit);
            self.objects.push(object);
        }
        self.items.truncate(self.objects.len());
    }

    /// The objects the aggregated batch requested, ascending.
    pub(crate) fn requested(&self) -> impl Iterator<Item = ObjectId> + '_ {
        requested_objects(&self.requested)
    }

    /// Hand each requested object, ascending, with its request count and
    /// Σ served score to `visit`, zeroing its slots and unmarking it: the
    /// state [`Self::aggregate`] expects.
    pub(crate) fn drain_requested(&mut self, mut visit: impl FnMut(ObjectId, u64, f64)) {
        for object in requested_objects(&self.requested) {
            let o = object.index();
            let count = std::mem::take(&mut self.per_count[o]);
            visit(object, count.into(), std::mem::take(&mut self.per_score[o]));
        }
        self.requested.fill(0);
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

/// The objects whose bits are set in `words`, ascending.
fn requested_objects(words: &[u64]) -> impl Iterator<Item = ObjectId> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                ObjectId(w as u32 * 64 + bit)
            })
        })
    })
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
