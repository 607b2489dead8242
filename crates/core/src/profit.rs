//! The knapsack mapping of Section 2.
//!
//! Each requested object `u` becomes an item with `size = s(u)` and
//! `profit(u) = Σ_{clients i requesting u} benefit(i)`, where
//! `benefit(i) = 1.0 − score_i(cached copy)`. "This mapping gives higher
//! profit (i.e. a greater benefit of downloading) to remote objects that
//! are requested by many clients or have older cached copies."

use basecache_knapsack::{Instance, Item, Solution};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::metrics::{from_steps, STEPS};
use basecache_workload::Table1Population;

use crate::recency::ScoringFunction;
use crate::request::RequestBatch;

/// A knapsack instance plus the mapping back from item indices to object
/// ids and the score mass already guaranteed by the cache.
#[derive(Debug, Clone)]
pub struct MappedInstance {
    instance: Instance,
    objects: Vec<ObjectId>,
    base_score_sum: f64,
    total_clients: u64,
}

impl MappedInstance {
    /// The knapsack instance (items in the order of [`Self::objects`]).
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Object id of each knapsack item.
    pub fn objects(&self) -> &[ObjectId] {
        &self.objects
    }

    /// Σ over all clients of the score they would get if *everything*
    /// were served from the cache. The knapsack's achieved value adds to
    /// this: `average_score(c) = (base + value(c)) / clients`.
    pub fn base_score_sum(&self) -> f64 {
        self.base_score_sum
    }

    /// Total number of client requests in the round.
    pub fn total_clients(&self) -> u64 {
        self.total_clients
    }

    /// Convert an achieved knapsack value into the paper's
    /// `Average Score` over all clients.
    pub fn average_score_for_value(&self, value: f64) -> f64 {
        if self.total_clients == 0 {
            return 1.0;
        }
        (self.base_score_sum + value) / self.total_clients as f64
    }

    /// Object ids selected by a knapsack solution.
    pub fn selected_objects(&self, solution: &Solution) -> Vec<ObjectId> {
        solution
            .chosen_indices()
            .iter()
            .map(|&i| self.objects[i])
            .collect()
    }
}

/// The knapsack profit, in grid steps, of an object whose `count`
/// requests' scores sum to `scores` steps: `Σ (STEPS − q)`, each
/// client's benefit `1.0 − score` on the grid, read off the tally
/// exactly.
#[inline]
pub(crate) fn benefit_steps(count: u64, scores: u64) -> u64 {
    count * STEPS - scores
}

/// Build the knapsack instance for a live request batch.
///
/// `recency[i]` is the current recency `x ∈ [0, 1]` of object `i`'s
/// cached copy (0 when nothing is cached — every client then gains the
/// full benefit from a download). Scores are computed per client from
/// their individual target recencies via `scoring`, in grid steps
/// ([`ScoringFunction::score_steps`]), and each profit, `n · STEPS −
/// Σq` steps, is read off its object's tally, so neither depends on the
/// order the requests came in.
///
/// # Panics
///
/// Panics if a requested object is outside the catalog or `recency` is
/// shorter than the catalog.
pub fn build_instance(
    batch: &RequestBatch,
    catalog: &Catalog,
    recency: &[f64],
    scoring: ScoringFunction,
) -> MappedInstance {
    assert!(
        recency.len() >= catalog.len(),
        "need a recency for every catalog object ({} < {})",
        recency.len(),
        catalog.len()
    );
    let mut items = Vec::with_capacity(batch.distinct_objects());
    let mut objects = Vec::with_capacity(batch.distinct_objects());
    let mut base = 0u128;
    for (object, targets) in batch.iter() {
        assert!(object.index() < catalog.len(), "{object} not in catalog");
        let x = recency[object.index()];
        let scores: u64 = targets.iter().map(|&t| scoring.score_steps(x, t)).sum();
        base += u128::from(scores);
        let profit = benefit_steps(targets.len() as u64, scores);
        items.push(Item::new(catalog.size_of(object), from_steps(profit)));
        objects.push(object);
    }
    let instance = Instance::new(items).expect("scores in [0,1] yield valid profits");
    MappedInstance {
        instance,
        objects,
        base_score_sum: base as f64 / STEPS as f64,
        total_clients: batch.total_requests() as u64,
    }
}

/// Build the knapsack instance for a Table 1 population (Section 4).
///
/// There the per-object `Cache_Recency_Score` is *already* the average
/// client score, so `profit(u) = Num_Requests(u) × (1 − score(u))` — the
/// paper's "profit of an object is equal to the number of clients
/// requesting the object times the average benefit to these clients".
pub fn build_instance_from_scores(population: &Table1Population) -> MappedInstance {
    let n = population.len();
    let mut items = Vec::with_capacity(n);
    let mut objects = Vec::with_capacity(n);
    let mut base = 0.0;
    for i in 0..n {
        let score = population.recency[i];
        assert!(
            (0.0..=1.0).contains(&score),
            "population recency score out of range: {score}"
        );
        let clients = population.num_requests[i] as f64;
        base += clients * score;
        items.push(Item::new(population.sizes[i], clients * (1.0 - score)));
        objects.push(ObjectId(i as u32));
    }
    let instance = Instance::new(items).expect("population scores yield valid profits");
    MappedInstance {
        instance,
        objects,
        base_score_sum: base,
        total_clients: population.total_clients(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_knapsack::{DpByCapacity, Solver};

    #[test]
    fn profit_sums_per_client_benefits() {
        let catalog = Catalog::from_sizes(&[3, 5]);
        let recency = [0.5, 1.0];
        let mut batch = RequestBatch::new();
        batch.push(ObjectId(0), 1.0);
        batch.push(ObjectId(0), 1.0);
        batch.push(ObjectId(1), 1.0);
        let mapped = build_instance(&batch, &catalog, &recency, ScoringFunction::InverseRatio);

        // Object 0: two clients, each score 2/3 → profit 2·(1/3), each
        // benefit on the profit grid.
        // Object 1: fresh → profit 0.
        let items = mapped.instance().items();
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].size(), 3);
        let q = ScoringFunction::InverseRatio.score_steps(0.5, 1.0);
        let profit = from_steps(2 * (STEPS - q));
        assert_eq!(items[0].profit().to_bits(), profit.to_bits());
        assert!((profit - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(items[1].profit(), 0.0);
        // Base score: 2·(2/3) + 1·1 = 7/3 over 3 clients, on the grid.
        assert_eq!(mapped.base_score_sum(), from_steps(2 * q + STEPS));
        assert!((mapped.base_score_sum() - 7.0 / 3.0).abs() < 1e-9);
        assert_eq!(mapped.total_clients(), 3);
    }

    #[test]
    fn average_score_interpolates_between_cache_and_fresh() {
        let catalog = Catalog::from_sizes(&[2]);
        let recency = [0.0];
        let mut batch = RequestBatch::new();
        batch.push(ObjectId(0), 1.0);
        let mapped = build_instance(&batch, &catalog, &recency, ScoringFunction::InverseRatio);
        // x=0 scores 0.5 (deviation 1): base 0.5, profit 0.5.
        assert!((mapped.average_score_for_value(0.0) - 0.5).abs() < 1e-12);
        let full = mapped.instance().total_profit();
        assert!((mapped.average_score_for_value(full) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn popular_and_stale_objects_get_highest_profit() {
        let catalog = Catalog::from_sizes(&[1, 1, 1]);
        let recency = [0.1, 0.1, 0.9];
        let mut batch = RequestBatch::new();
        for _ in 0..5 {
            batch.push(ObjectId(0), 1.0); // popular + stale
        }
        batch.push(ObjectId(1), 1.0); // unpopular + stale
        for _ in 0..5 {
            batch.push(ObjectId(2), 1.0); // popular + fresh-ish
        }
        let mapped = build_instance(&batch, &catalog, &recency, ScoringFunction::InverseRatio);
        let items = mapped.instance().items();
        assert!(
            items[0].profit() > items[1].profit(),
            "popularity raises profit"
        );
        assert!(
            items[0].profit() > items[2].profit(),
            "staleness raises profit"
        );
    }

    #[test]
    fn table1_mapping_matches_formula_and_maximizes_average_score() {
        let pop = Table1Population {
            sizes: vec![2, 3],
            num_requests: vec![4, 6],
            recency: vec![0.25, 0.5],
        };
        let mapped = build_instance_from_scores(&pop);
        let items = mapped.instance().items();
        assert!((items[0].profit() - 4.0 * 0.75).abs() < 1e-12);
        assert!((items[1].profit() - 6.0 * 0.5).abs() < 1e-12);
        assert!((mapped.base_score_sum() - (1.0 + 3.0)).abs() < 1e-12);

        // Downloading everything gives every client a score of 1.
        let sol = DpByCapacity.solve(mapped.instance(), 5);
        assert!((mapped.average_score_for_value(sol.total_profit()) - 1.0).abs() < 1e-12);
        assert_eq!(
            mapped.selected_objects(&sol),
            vec![ObjectId(0), ObjectId(1)]
        );
    }

    #[test]
    fn empty_batch_scores_perfectly() {
        let catalog = Catalog::from_sizes(&[1]);
        let mapped = build_instance(
            &RequestBatch::new(),
            &catalog,
            &[0.0],
            ScoringFunction::InverseRatio,
        );
        assert_eq!(mapped.total_clients(), 0);
        assert_eq!(mapped.average_score_for_value(0.0), 1.0);
        assert!(mapped.instance().is_empty());
    }
}
