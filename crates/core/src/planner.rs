//! The on-demand download planner — the paper's central mechanism.
//!
//! Per scheduling round the base station receives a [`RequestBatch`],
//! knows the recency of every cached copy, and may download at most
//! `budget` data units. [`OnDemandPlanner`] maps the round to 0/1
//! knapsack ([`crate::profit`]) and solves it with a configurable solver;
//! objects not selected are answered from the cache.
//!
//! [`LowestRecencyFirst`] is the simpler policy of Section 3.2 (unit-size
//! objects: "the k requested objects with the lowest recency in the cache
//! were selected to be downloaded"), kept as a separate, cheaper planner.

use basecache_knapsack::{AdaptiveSolver, DpByCapacity, DpTrace, Item, Solver};
use basecache_net::{Catalog, ObjectId};
use basecache_obs::{Event, NullRecorder, Recorder, Sample, Span, Stage};
use basecache_workload::GeneratedRequest;

use crate::bound::knee_budget;
use crate::engine::RoundEngine;
use crate::profit::{build_instance, MappedInstance};
use crate::recency::ScoringFunction;
use crate::request::RequestBatch;
use crate::scratch::PlannerScratch;

/// Which exact knapsack solver the planner runs. Both return the same
/// optimum, bit for bit; they differ in how much of the paper's full DP
/// table they fill to reach it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SolverChoice {
    /// Exact capacity DP — the paper's choice; pseudo-polynomial `O(n·B)`.
    /// The reference the parity suites compare against.
    ExactDp,
    /// Instance reduction (bound-based variable fixing) in front of the
    /// bounded DP over what is left — bit identical to
    /// [`SolverChoice::ExactDp`], usually much faster.
    Adaptive,
}

impl SolverChoice {
    fn solve(self, mapped: &MappedInstance, budget: u64) -> basecache_knapsack::Solution {
        match self {
            SolverChoice::ExactDp => DpByCapacity.solve(mapped.instance(), budget),
            SolverChoice::Adaptive => AdaptiveSolver.solve(mapped.instance(), budget),
        }
    }
}

/// The on-demand planner: scoring function + solver choice.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnDemandPlanner {
    scoring: ScoringFunction,
    solver: SolverChoice,
}

impl OnDemandPlanner {
    /// Create a planner.
    pub fn new(scoring: ScoringFunction, solver: SolverChoice) -> Self {
        Self { scoring, solver }
    }

    /// The paper's configuration: inverse-ratio scoring with an exact
    /// solve. The solve runs through the adaptive reduction front-end
    /// ([`SolverChoice::Adaptive`]), which is proven bit-identical to
    /// the paper's full-table DP (`crates/core/tests/adaptive_parity.rs`)
    /// and usually much faster.
    pub fn paper_default() -> Self {
        Self::new(ScoringFunction::InverseRatio, SolverChoice::Adaptive)
    }

    /// The scoring function in use.
    pub fn scoring(&self) -> ScoringFunction {
        self.scoring
    }

    /// Decide which objects to download.
    ///
    /// `recency[i]` is the recency of object `i`'s cached copy (0 when
    /// absent). The returned plan downloads at most `budget` data units.
    pub fn plan(
        &self,
        batch: &RequestBatch,
        catalog: &Catalog,
        recency: &[f64],
        budget: u64,
    ) -> DownloadPlan {
        let mapped = build_instance(batch, catalog, recency, self.scoring);
        let solution = self.solver.solve(&mapped, budget);
        let mut download = mapped.selected_objects(&solution);
        download.sort_unstable();
        DownloadPlan {
            download,
            download_size: solution.total_size(),
            achieved_value: solution.total_profit(),
            budget,
            scoring: self.scoring,
        }
    }

    /// Allocation-free planning round over raw generated requests.
    ///
    /// Semantically identical to building a [`RequestBatch`] and calling
    /// [`Self::plan`], but aggregates duplicate requests directly into
    /// `scratch`'s per-object arrays (one knapsack item per distinct
    /// object, profit summed over its clients) and solves on `scratch`'s
    /// reusable tables, so a steady-state round touches the heap zero
    /// times. Results land in `scratch` ([`PlannerScratch::downloads`],
    /// [`PlannerScratch::achieved_value`], …) instead of a freshly
    /// allocated [`DownloadPlan`].
    ///
    /// Float results are bit-identical to the batch path: per-object
    /// profits accumulate in arrival order, exactly as each object's
    /// targets do in a [`RequestBatch`].
    ///
    /// # Panics
    ///
    /// Panics if a requested object is outside the catalog, a target
    /// recency is outside `(0, 1]`, or `recency` is shorter than the
    /// catalog — the same contracts as [`RequestBatch::push`] and
    /// [`build_instance`].
    pub fn plan_requests_into(
        &self,
        requests: &[GeneratedRequest],
        catalog: &Catalog,
        recency: &[f64],
        budget: u64,
        scratch: &mut PlannerScratch,
    ) {
        self.plan_requests_recorded(requests, catalog, recency, budget, scratch, &NullRecorder);
    }

    /// [`Self::plan_requests_into`] with instrumentation: the knapsack
    /// shape (items, capacity), the DP cells actually swept, the achieved
    /// plan profit and the solve time are reported to `recorder`.
    ///
    /// With a [`NullRecorder`] this *is* `plan_requests_into` — the
    /// recording calls are no-ops, no clock is read, and the planning
    /// results are bit-identical either way (instrumentation never touches
    /// the arithmetic). The recorder is a generic parameter (not
    /// `&dyn Recorder`) so the `NullRecorder` instantiation monomorphizes
    /// back to the uninstrumented round — opaque virtual calls would
    /// otherwise act as optimization barriers inside the hot path.
    pub fn plan_requests_recorded<R: Recorder + ?Sized>(
        &self,
        requests: &[GeneratedRequest],
        catalog: &Catalog,
        recency: &[f64],
        budget: u64,
        scratch: &mut PlannerScratch,
        recorder: &R,
    ) {
        self.assemble_requests_into(requests, catalog, recency, scratch);
        self.solve_assembled(budget, scratch, recorder);
    }

    /// The aggregation half of [`Self::plan_requests_recorded`]: build
    /// the knapsack instance into `scratch.items`/`scratch.objects`
    /// without solving it. The station's round kernel uses this seam to
    /// adjust the assembled instance (drop single-flight and regionally
    /// excluded objects, subtract committed bandwidth from the budget,
    /// amortize profits over arrival rounds) before the policy solves
    /// it. `assemble` followed immediately by [`Self::solve_assembled`]
    /// is exactly `plan_requests_recorded`.
    ///
    /// Never inlined: the aggregation loop visits every request and is
    /// the plan stage's longest. Compiled on its own it is the same
    /// code wherever it is called from; fused into the kernel's `round`
    /// its code followed that function's shape, and cost the
    /// `station-paper` round 3 % (139 against 135 µs) when the plan
    /// stage around it changed.
    #[inline(never)]
    pub(crate) fn assemble_requests_into(
        &self,
        requests: &[GeneratedRequest],
        catalog: &Catalog,
        recency: &[f64],
        scratch: &mut PlannerScratch,
    ) {
        assert!(
            recency.len() >= catalog.len(),
            "need a recency for every catalog object ({} < {})",
            recency.len(),
            catalog.len()
        );
        let n = catalog.len();
        if scratch.per_profit.len() < n {
            scratch.per_profit.resize(n, 0.0);
            scratch.per_count.resize(n, 0);
        }

        // Aggregate in arrival order: within one object this is exactly
        // the order its targets accumulate in the RequestBatch path.
        for r in requests {
            let o = r.object.index();
            assert!(o < n, "{} not in catalog", r.object);
            assert!(
                r.target_recency > 0.0 && r.target_recency <= 1.0,
                "target recency must be in (0, 1], got {}",
                r.target_recency
            );
            scratch.per_count[o] += 1;
            scratch.per_profit[o] += 1.0 - self.scoring.score(recency[o], r.target_recency);
        }

        // Compact the columns into the instance, object-ascending, and
        // leave them zeroed for the next round. Branch-free: which
        // objects were requested follows no pattern a predictor learns
        // — write every object's slot, keep the requested ones by
        // advancing the length. A request count decides, not the
        // profit: a requested object whose profit sums to zero is
        // still an item.
        let (items, objects) = (&mut scratch.items, &mut scratch.objects);
        items.resize(n, Item::new(0, 0.0));
        objects.resize(n, ObjectId(0));
        let mut len = 0;
        let columns = scratch.per_count[..n]
            .iter_mut()
            .zip(&mut scratch.per_profit[..n]);
        for (o, (count, profit)) in columns.enumerate() {
            let object = ObjectId(o as u32);
            items[len] = Item::new(catalog.size_of(object), *profit);
            objects[len] = object;
            len += usize::from(*count > 0);
            *count = 0;
            *profit = 0.0;
        }
        items.truncate(len);
        objects.truncate(len);
    }

    /// Solve the instance already assembled into `scratch.items` /
    /// `scratch.objects` (by the request-aggregation path above or by
    /// [`crate::engine::RoundEngine::assemble_into`]) and record the
    /// solver's work. Item sizes come from the items themselves — the
    /// assembly path copied them out of the catalog — so the engine path
    /// needs no catalog here. `#[inline]`: the one call in a policy's
    /// arm compiles into the round (the `planner/round/*` benches gate
    /// it).
    #[inline]
    pub(crate) fn solve_assembled<R: Recorder + ?Sized>(
        &self,
        budget: u64,
        scratch: &mut PlannerScratch,
        recorder: &R,
    ) {
        record_instance(budget, scratch, recorder);
        scratch.downloads.clear();
        {
            let _solve = Span::enter(recorder, Stage::Solve);
            match self.solver {
                SolverChoice::ExactDp => {
                    let value = DpByCapacity.solve_into(&scratch.items, budget, &mut scratch.dp);
                    scratch.achieved_value = value;
                    let mut size = 0u64;
                    // `chosen()` is ascending by item index and `objects` is
                    // ascending by id, so the downloads come out sorted.
                    for &i in scratch.dp.chosen() {
                        size += scratch.items[i].size();
                        scratch.downloads.push(scratch.objects[i]);
                    }
                    scratch.download_size = size;
                    recorder.add(Event::DpCellsTouched, scratch.dp.cells_touched());
                }
                SolverChoice::Adaptive => {
                    let value = AdaptiveSolver.solve_into(
                        &scratch.items,
                        budget,
                        &mut scratch.adaptive,
                        &mut scratch.dp,
                    );
                    scratch.achieved_value = value;
                    let mut size = 0u64;
                    // `chosen()` is ascending by item index and `objects`
                    // is ascending by id, so the downloads come out
                    // sorted.
                    for &i in scratch.adaptive.chosen() {
                        size += scratch.items[i].size();
                        scratch.downloads.push(scratch.objects[i]);
                    }
                    scratch.download_size = size;
                    recorder.add(Event::DpCellsTouched, scratch.adaptive.cells_touched());
                    recorder.sample(Sample::CoreSize, scratch.adaptive.core_size() as f64);
                    recorder.sample(Sample::ItemsFixed, scratch.adaptive.items_fixed() as f64);
                    recorder.sample(
                        Sample::SolverChosen,
                        scratch.adaptive.method().code() as f64,
                    );
                }
            }
        }
        recorder.sample(Sample::PlanProfit, scratch.achieved_value);
    }

    /// [`Self::solve_assembled`] for the adaptive budget: sweep the
    /// assembled instance's solution-space trace up to `max_budget` once,
    /// read the knee of its value curve ([`knee_budget`]) and leave the
    /// optimal plan *at the knee* in `scratch`, recorded like any other
    /// solve. The trace is the exact DP's, whatever the planner's solver.
    pub(crate) fn solve_assembled_at_knee<R: Recorder + ?Sized>(
        &self,
        max_budget: u64,
        window: u64,
        threshold: f64,
        scratch: &mut PlannerScratch,
        recorder: &R,
    ) {
        record_instance(max_budget, scratch, recorder);
        scratch.downloads.clear();
        {
            let _solve = Span::enter(recorder, Stage::Solve);
            DpByCapacity.solve_trace_into(&scratch.items, max_budget, &mut scratch.dp);
            let knee = knee_budget(scratch.dp.values(), window, threshold);
            scratch.achieved_value = scratch.dp.value_at(knee);
            let mut size = 0u64;
            // Ascending item indices over ascending object ids: the
            // downloads come out sorted.
            for &i in scratch.dp.solution_indices_at(knee) {
                size += scratch.items[i].size();
                scratch.downloads.push(scratch.objects[i]);
            }
            scratch.download_size = size;
            recorder.add(Event::DpCellsTouched, scratch.dp.cells_touched());
        }
        recorder.sample(Sample::PlanProfit, scratch.achieved_value);
    }

    /// The engine-source twin of [`Self::assemble_requests_into`], and
    /// the same seam: absorb this round's recency vector, rescore
    /// exactly the dirty objects and assemble the instance from the
    /// [`RoundEngine`]'s standing tables; the station's round kernel
    /// adjusts it before [`Self::solve_assembled`].
    ///
    /// Emits [`Sample::DirtyObjects`] and [`Sample::RescoredRequests`] so
    /// flight recordings show how much work the dirty-set actually saved.
    ///
    /// # Panics
    ///
    /// Panics if the engine's scoring function differs from this
    /// planner's, or if `recency` is shorter than the engine's table.
    pub(crate) fn assemble_engine_into<R: Recorder + ?Sized>(
        &self,
        engine: &mut RoundEngine,
        recency: &[f64],
        scratch: &mut PlannerScratch,
        recorder: &R,
    ) {
        assert_eq!(
            engine.scoring(),
            self.scoring,
            "engine and planner must agree on the scoring function"
        );
        engine.observe_recency(recency);
        engine.rescore();
        recorder.sample(Sample::DirtyObjects, engine.dirty_objects() as f64);
        recorder.sample(Sample::RescoredRequests, engine.rescored_requests() as f64);
        engine.assemble_into(scratch);
    }

    /// The round's knapsack mapping together with the exact DP's full
    /// solution-space trace up to `max_budget` (whatever the planner's
    /// solver: a trace is the exact DP's). This is what the Section 4
    /// analyses and the budget-bound selection ([`crate::bound`]) read;
    /// the caller picks a budget off the trace and recovers that plan
    /// with `trace.solution_at(mapped.instance(), budget)`.
    pub fn plan_with_trace(
        &self,
        batch: &RequestBatch,
        catalog: &Catalog,
        recency: &[f64],
        max_budget: u64,
    ) -> (MappedInstance, DpTrace) {
        let mapped = build_instance(batch, catalog, recency, self.scoring);
        let trace = DpByCapacity.solve_trace(mapped.instance(), max_budget);
        (mapped, trace)
    }
}

/// What every solve reports about the instance it is handed: its
/// shape (items, capacity) and, to an observer, its budget-free optimum.
#[inline]
fn record_instance<R: Recorder + ?Sized>(budget: u64, scratch: &PlannerScratch, recorder: &R) {
    recorder.add(Event::KnapsackItems, scratch.items.len() as u64);
    recorder.sample(Sample::KnapsackCapacity, budget as f64);
    if recorder.enabled() {
        // The budget-free optimum: downloading every requested stale
        // object. Realized profit over this bound is the knapsack's
        // efficiency, a per-round series column.
        let mut bound = 0.0;
        for item in scratch.items.iter() {
            bound += item.profit();
        }
        recorder.sample(Sample::PlanProfitBound, bound);
    }
}

/// A round's download decision.
#[derive(Debug, Clone, PartialEq)]
pub struct DownloadPlan {
    download: Vec<ObjectId>,
    download_size: u64,
    achieved_value: f64,
    budget: u64,
    scoring: ScoringFunction,
}

impl DownloadPlan {
    /// Objects to fetch remotely, ascending.
    pub fn downloads(&self) -> &[ObjectId] {
        &self.download
    }

    /// Whether `object` is fetched remotely this round.
    pub fn is_download(&self, object: ObjectId) -> bool {
        self.download.binary_search(&object).is_ok()
    }

    /// Total data units downloaded (≤ budget).
    pub fn download_size(&self) -> u64 {
        self.download_size
    }

    /// The knapsack value achieved (total client benefit recovered).
    pub fn achieved_value(&self) -> f64 {
        self.achieved_value
    }

    /// The budget the plan was computed under.
    pub fn budget(&self) -> u64 {
        self.budget
    }

    /// Requested objects that will be served from the cache.
    pub fn from_cache<'a>(
        &'a self,
        batch: &'a RequestBatch,
    ) -> impl Iterator<Item = ObjectId> + 'a {
        batch.objects().filter(|&o| !self.is_download(o))
    }

    /// The paper's `Average Score` this plan delivers: downloaded objects
    /// score 1.0 for every requesting client, cached objects score
    /// `f_C(x)` per client. An empty batch scores 1.0.
    pub fn average_score(&self, batch: &RequestBatch, recency: &[f64]) -> f64 {
        if batch.total_requests() == 0 {
            return 1.0;
        }
        let mut sum = 0.0;
        for (object, targets) in batch.iter() {
            if self.is_download(object) {
                sum += targets.len() as f64;
            } else {
                let x = recency[object.index()];
                for &t in targets {
                    sum += self.scoring.score(x, t);
                }
            }
        }
        sum / batch.total_requests() as f64
    }
}

/// The Section 3.2 policy for unit-size objects: download the `k`
/// requested objects with the lowest cached recency; serve the rest from
/// the cache.
#[derive(Debug, Clone, Copy, Default)]
pub struct LowestRecencyFirst;

impl LowestRecencyFirst {
    /// Select at most `k` of the batch's objects, lowest recency first
    /// (ties by object id for determinism). Objects already fully fresh
    /// (`recency == 1.0`) are never selected — downloading them cannot
    /// improve anything.
    pub fn select(&self, batch: &RequestBatch, recency: &[f64], k: usize) -> Vec<ObjectId> {
        let mut candidates: Vec<ObjectId> = batch
            .objects()
            .filter(|o| recency[o.index()] < 1.0)
            .collect();
        candidates.sort_by(|a, b| {
            recency[a.index()]
                .partial_cmp(&recency[b.index()])
                .expect("recency values are never NaN")
                .then_with(|| a.cmp(b))
        });
        candidates.truncate(k);
        candidates.sort_unstable();
        candidates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (RequestBatch, Catalog, Vec<f64>) {
        let catalog = Catalog::from_sizes(&[4, 2, 6, 1]);
        let recency = vec![0.9, 0.2, 0.5, 0.1];
        let mut batch = RequestBatch::new();
        for (obj, n) in [(0u32, 2), (1, 3), (2, 1), (3, 4)] {
            for _ in 0..n {
                batch.push(ObjectId(obj), 1.0);
            }
        }
        (batch, catalog, recency)
    }

    #[test]
    fn plan_respects_budget_and_prefers_stale_popular_objects() {
        let (batch, catalog, recency) = setup();
        let planner = OnDemandPlanner::paper_default();
        let plan = planner.plan(&batch, &catalog, &recency, 3);
        assert!(plan.download_size() <= 3);
        // Objects 1 (size 2, 3 stale clients) and 3 (size 1, 4 very stale
        // clients) fit the budget and carry the most benefit.
        assert_eq!(plan.downloads(), &[ObjectId(1), ObjectId(3)]);
        assert!(plan.is_download(ObjectId(3)));
        assert!(!plan.is_download(ObjectId(0)));
    }

    #[test]
    fn zero_budget_serves_everything_from_cache() {
        let (batch, catalog, recency) = setup();
        let plan = OnDemandPlanner::paper_default().plan(&batch, &catalog, &recency, 0);
        assert!(plan.downloads().is_empty());
        let cached: Vec<_> = plan.from_cache(&batch).collect();
        assert_eq!(cached.len(), 4);
    }

    #[test]
    fn unlimited_budget_downloads_all_stale_requested_objects() {
        let (batch, catalog, recency) = setup();
        let plan = OnDemandPlanner::paper_default().plan(&batch, &catalog, &recency, 10_000);
        // Object 0 has recency 0.9 < 1.0 so it still has positive profit.
        assert_eq!(plan.downloads().len(), 4);
        assert!((plan.average_score(&batch, &recency) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn average_score_grows_with_budget() {
        let (batch, catalog, recency) = setup();
        let planner = OnDemandPlanner::paper_default();
        let mut prev = -1.0;
        for budget in [0u64, 1, 2, 4, 8, 13] {
            let score = planner
                .plan(&batch, &catalog, &recency, budget)
                .average_score(&batch, &recency);
            assert!(score >= prev - 1e-12, "budget {budget}: {score} < {prev}");
            prev = score;
        }
    }

    #[test]
    fn average_score_matches_mapped_value_identity() {
        // average_score computed from per-request scoring must equal
        // (base + value)/clients computed from the knapsack mapping.
        let (batch, catalog, recency) = setup();
        let planner = OnDemandPlanner::paper_default();
        let plan = planner.plan(&batch, &catalog, &recency, 5);
        let (mapped, trace) = planner.plan_with_trace(&batch, &catalog, &recency, 5);
        assert_eq!(trace.value_at(5), plan.achieved_value());
        let direct = plan.average_score(&batch, &recency);
        let via_value = mapped.average_score_for_value(plan.achieved_value());
        assert!((direct - via_value).abs() < 1e-9);
    }

    #[test]
    fn all_solvers_produce_feasible_plans() {
        let (batch, catalog, recency) = setup();
        for solver in [SolverChoice::ExactDp, SolverChoice::Adaptive] {
            let planner = OnDemandPlanner::new(ScoringFunction::InverseRatio, solver);
            let plan = planner.plan(&batch, &catalog, &recency, 6);
            assert!(plan.download_size() <= 6, "{solver:?}");
            let sum: u64 = plan.downloads().iter().map(|&o| catalog.size_of(o)).sum();
            assert_eq!(sum, plan.download_size(), "{solver:?}");
        }
    }

    #[test]
    fn adaptive_plan_is_bit_identical_to_exact_dp() {
        let (batch, catalog, recency) = setup();
        for budget in [0u64, 1, 3, 6, 13, 10_000] {
            let dp = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::ExactDp)
                .plan(&batch, &catalog, &recency, budget);
            let ad = OnDemandPlanner::new(ScoringFunction::InverseRatio, SolverChoice::Adaptive)
                .plan(&batch, &catalog, &recency, budget);
            assert_eq!(dp.downloads(), ad.downloads(), "budget {budget}");
            assert_eq!(
                dp.achieved_value().to_bits(),
                ad.achieved_value().to_bits(),
                "budget {budget}"
            );
        }
    }

    #[test]
    fn lowest_recency_first_selects_stalest() {
        let (batch, _catalog, recency) = setup();
        let sel = LowestRecencyFirst.select(&batch, &recency, 2);
        // Recencies: obj3=0.1, obj1=0.2 are the two stalest.
        assert_eq!(sel, vec![ObjectId(1), ObjectId(3)]);
        let all = LowestRecencyFirst.select(&batch, &recency, 10);
        assert_eq!(all.len(), 4);
    }

    #[test]
    fn lowest_recency_first_skips_fresh_copies() {
        let mut batch = RequestBatch::new();
        batch.push(ObjectId(0), 1.0);
        batch.push(ObjectId(1), 1.0);
        let recency = vec![1.0, 0.4];
        let sel = LowestRecencyFirst.select(&batch, &recency, 5);
        assert_eq!(
            sel,
            vec![ObjectId(1)],
            "fresh object 0 must not be downloaded"
        );
    }
}
