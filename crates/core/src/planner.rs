//! The on-demand download planner — the paper's central mechanism.
//!
//! Per scheduling round the base station receives a [`RequestBatch`],
//! knows the recency of every cached copy, and may download at most
//! `budget` data units. [`OnDemandPlanner`] maps the round to 0/1
//! knapsack ([`crate::profit`]) and solves it exactly; objects not
//! selected are answered from the cache.
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
use crate::error::Error;
use crate::profit::{build_instance, MappedInstance};
use crate::recency::ScoringFunction;
use crate::request::RequestBatch;
use crate::scratch::{check_plan_table, PlannerScratch};

/// The on-demand planner: a scoring function over the exact knapsack
/// solve. Every solve runs [`AdaptiveSolver`], which returns the
/// paper's full-table DP optimum bit for bit (the knapsack crate's
/// property suites prove it; the core parity suites check every round
/// against [`DpByCapacity`]) while sweeping only the core the bounds
/// leave undecided.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnDemandPlanner {
    scoring: ScoringFunction,
}

impl OnDemandPlanner {
    /// Create a planner that scores with `scoring`.
    pub fn new(scoring: ScoringFunction) -> Self {
        Self { scoring }
    }

    /// The paper's configuration: inverse-ratio scoring.
    pub fn paper_default() -> Self {
        Self::new(ScoringFunction::InverseRatio)
    }

    /// The scoring function in use.
    pub fn scoring(&self) -> ScoringFunction {
        self.scoring
    }

    /// Decide which objects to download.
    ///
    /// `recency[i]` is the recency of object `i`'s cached copy (0 when
    /// absent). The returned plan downloads at most `budget` data units.
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError::PlanTableTooLarge`] when the exact-DP tables for
    /// `catalog` at `budget` would pass
    /// [`crate::scratch::MAX_PLAN_TABLE_BYTES`], the bound
    /// [`crate::builder::StationBuilder::build`] enforces.
    pub fn plan(
        &self,
        batch: &RequestBatch,
        catalog: &Catalog,
        recency: &[f64],
        budget: u64,
    ) -> Result<DownloadPlan, Error> {
        check_plan_table(catalog, budget)?;
        let mapped = build_instance(batch, catalog, recency, self.scoring);
        let solution = AdaptiveSolver.solve(mapped.instance(), budget);
        let mut download = mapped.selected_objects(&solution);
        download.sort_unstable();
        Ok(DownloadPlan {
            download,
            download_size: solution.total_size(),
            achieved_value: solution.total_profit(),
            budget,
            scoring: self.scoring,
        })
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
    /// Float results are bit-identical to the batch path: each profit is
    /// read off its object's integer tally of score steps, whatever order
    /// its requests came in.
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError::PlanTableTooLarge`], as [`Self::plan`]; `scratch`
    /// is left as it was.
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
    ) -> Result<(), Error> {
        self.plan_requests_recorded(requests, catalog, recency, budget, scratch, &NullRecorder)
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
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError::PlanTableTooLarge`], as [`Self::plan`].
    pub fn plan_requests_recorded<R: Recorder + ?Sized>(
        &self,
        requests: &[GeneratedRequest],
        catalog: &Catalog,
        recency: &[f64],
        budget: u64,
        scratch: &mut PlannerScratch,
        recorder: &R,
    ) -> Result<(), Error> {
        check_plan_table(catalog, budget)?;
        scratch.assemble_requests(requests, catalog, self.scoring, recency);
        self.solve_assembled(budget, scratch, recorder);
        Ok(())
    }

    /// Solve the instance already assembled into `scratch.items` /
    /// `scratch.objects` (from an aggregated batch,
    /// [`PlannerScratch::assemble_requested`], or by
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
        recorder.add(Event::KnapsackItems, scratch.items.len() as u64);
        record_instance(budget, recorder, || item_profit_sum(&scratch.items));
        scratch.downloads.clear();
        {
            let _solve = Span::enter(recorder, Stage::Solve);
            let value = AdaptiveSolver.solve_into(
                &scratch.items,
                budget,
                &mut scratch.adaptive,
                &mut scratch.dp,
            );
            take_chosen(value, scratch, recorder);
        }
        recorder.sample(Sample::PlanProfit, scratch.achieved_value);
    }

    /// [`Self::solve_assembled`] for an engine round whose instance
    /// holds only the objects above `scratch.cut`
    /// ([`Self::assemble_engine_into`]), less `exclusions`. The solver
    /// certifies what the cut left out before its one DP, so the plan is
    /// the whole instance's. A refusal costs no DP: the round
    /// re-assembles once at the lower cut the certificate asked for and,
    /// if that is refused too, at cut 0, the whole instance, which
    /// nothing can refuse. Kept candidates that no longer pass the
    /// budget plus the largest size once `exclusions` are out go
    /// straight to cut 0. `scratch.certificate` says which assembly the
    /// plan came from: 0 the first, 1 the lowered one, 2 the whole
    /// instance after a refusal.
    ///
    /// The instance reported is the one solved; its profit bound, when
    /// observed, is the whole instance's, as on every other round.
    pub(crate) fn solve_candidates<R: Recorder + ?Sized>(
        &self,
        budget: u64,
        engine: &RoundEngine,
        exclusions: &[ObjectId],
        scratch: &mut PlannerScratch,
        recorder: &R,
    ) {
        record_instance(budget, recorder, || engine.profit_sum(exclusions));
        scratch.downloads.clear();
        {
            let _solve = Span::enter(recorder, Stage::Solve);
            // The first cut's bands hold more than the reach; without
            // the excluded objects the candidates may not.
            if scratch.cut > 0 && !exclusions.is_empty() {
                let kept: u64 = scratch.items.iter().map(Item::size).sum();
                if kept <= engine.reach(budget) {
                    reassemble(engine, 0, exclusions, scratch);
                    scratch.certificate = 2;
                }
            }
            let value = loop {
                let left_out = engine.left_out(scratch.cut);
                let solved = AdaptiveSolver.solve_leaving_out(
                    &scratch.items,
                    budget,
                    &left_out,
                    &mut scratch.adaptive,
                    &mut scratch.dp,
                );
                if let Some(value) = solved {
                    break value;
                }
                let needed = scratch.adaptive.needed_edge();
                let cut = match scratch.certificate {
                    0 => engine.lowered_cut(scratch.cut, needed),
                    _ => 0,
                };
                scratch.certificate = if cut == 0 { 2 } else { 1 };
                reassemble(engine, cut, exclusions, scratch);
            };
            recorder.add(Event::KnapsackItems, scratch.items.len() as u64);
            take_chosen(value, scratch, recorder);
        }
        recorder.sample(Sample::PlanProfit, scratch.achieved_value);
    }

    /// [`Self::solve_assembled`] for the adaptive budget: sweep the
    /// assembled instance's solution-space trace up to `max_budget` once,
    /// read the knee of its value curve ([`knee_budget`]) and leave the
    /// optimal plan *at the knee* in `scratch`, recorded like any other
    /// solve. The trace is the exact DP's: only it holds the optimum at
    /// every budget.
    pub(crate) fn solve_assembled_at_knee<R: Recorder + ?Sized>(
        &self,
        max_budget: u64,
        window: u64,
        threshold: f64,
        scratch: &mut PlannerScratch,
        recorder: &R,
    ) {
        recorder.add(Event::KnapsackItems, scratch.items.len() as u64);
        record_instance(max_budget, recorder, || item_profit_sum(&scratch.items));
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

    /// The engine-source twin of [`PlannerScratch::assemble_requested`],
    /// and the same seam: once the [`RoundEngine`] has observed this round's
    /// recency (the station's round kernel makes the observation),
    /// rescore exactly the dirty objects and assemble the instance from
    /// its standing tables; the kernel adjusts it before the solve.
    ///
    /// Only the candidates above the engine's first cut for `budget` are
    /// assembled ([`Self::solve_candidates`] certifies the rest out).
    ///
    /// Emits [`Sample::DirtyObjects`] and [`Sample::RescoredRequests`] so
    /// flight recordings show how much work the dirty-set actually saved.
    ///
    /// # Panics
    ///
    /// Panics if the engine's scoring function differs from this
    /// planner's.
    pub(crate) fn assemble_engine_into<R: Recorder + ?Sized>(
        &self,
        engine: &mut RoundEngine,
        budget: u64,
        scratch: &mut PlannerScratch,
        recorder: &R,
    ) {
        assert_eq!(
            engine.scoring(),
            self.scoring,
            "engine and planner must agree on the scoring function"
        );
        engine.rescore();
        recorder.sample(Sample::DirtyObjects, engine.dirty_objects() as f64);
        recorder.sample(Sample::RescoredRequests, engine.rescored_requests() as f64);
        scratch.cut = engine.first_cut(budget);
        scratch.certificate = 0;
        engine.assemble_above(scratch.cut, scratch);
    }

    /// The round's knapsack mapping together with the exact DP's full
    /// solution-space trace up to `max_budget`. This is what the
    /// Section 4 analyses and the budget-bound selection
    /// ([`crate::bound`]) read; the caller picks a budget off the trace
    /// and recovers that plan with
    /// `trace.solution_at(mapped.instance(), budget)`.
    ///
    /// # Errors
    ///
    /// [`crate::ConfigError::PlanTableTooLarge`] at a `max_budget` past the
    /// table bound, as [`Self::plan`].
    pub fn plan_with_trace(
        &self,
        batch: &RequestBatch,
        catalog: &Catalog,
        recency: &[f64],
        max_budget: u64,
    ) -> Result<(MappedInstance, DpTrace), Error> {
        check_plan_table(catalog, max_budget)?;
        let mapped = build_instance(batch, catalog, recency, self.scoring);
        let trace = DpByCapacity.solve_trace(mapped.instance(), max_budget);
        Ok((mapped, trace))
    }
}

/// What every solve reports about the instance it plans besides its
/// item count: its capacity and, to an observer, its budget-free
/// optimum — downloading every requested stale object, the whole
/// instance's profit sum from `bound`. Realized profit over this bound
/// is the knapsack's efficiency, a per-round series column.
#[inline]
fn record_instance<R: Recorder + ?Sized>(budget: u64, recorder: &R, bound: impl FnOnce() -> f64) {
    recorder.sample(Sample::KnapsackCapacity, budget as f64);
    if recorder.enabled() {
        recorder.sample(Sample::PlanProfitBound, bound());
    }
}

/// Σ profit over `items`, folded in item order.
fn item_profit_sum(items: &[Item]) -> f64 {
    let mut sum = 0.0;
    for item in items {
        sum += item.profit();
    }
    sum
}

/// Leave the adaptive solve's answer, worth `value`, in `scratch` as
/// downloads, and report the solver's work.
#[inline]
fn take_chosen<R: Recorder + ?Sized>(value: f64, scratch: &mut PlannerScratch, recorder: &R) {
    scratch.achieved_value = value;
    let mut size = 0u64;
    // `chosen()` is ascending by item index and `objects` is ascending
    // by id, so the downloads come out sorted.
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

/// Assemble `engine`'s instance above `cut` into `scratch` again, less
/// `exclusions` — an engine round's candidates at a lower cut.
fn reassemble(
    engine: &RoundEngine,
    cut: u16,
    exclusions: &[ObjectId],
    scratch: &mut PlannerScratch,
) {
    scratch.cut = cut;
    engine.assemble_above(cut, scratch);
    if !exclusions.is_empty() {
        scratch.retain_objects(exclusions, |_| true);
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
        let plan = planner.plan(&batch, &catalog, &recency, 3).unwrap();
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
        let plan = OnDemandPlanner::paper_default()
            .plan(&batch, &catalog, &recency, 0)
            .unwrap();
        assert!(plan.downloads().is_empty());
        let cached: Vec<_> = plan.from_cache(&batch).collect();
        assert_eq!(cached.len(), 4);
    }

    #[test]
    fn unlimited_budget_downloads_all_stale_requested_objects() {
        let (batch, catalog, recency) = setup();
        let plan = OnDemandPlanner::paper_default()
            .plan(&batch, &catalog, &recency, 10_000)
            .unwrap();
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
                .unwrap()
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
        let plan = planner.plan(&batch, &catalog, &recency, 5).unwrap();
        let (mapped, trace) = planner
            .plan_with_trace(&batch, &catalog, &recency, 5)
            .unwrap();
        assert_eq!(trace.value_at(5), plan.achieved_value());
        let direct = plan.average_score(&batch, &recency);
        let via_value = mapped.average_score_for_value(plan.achieved_value());
        assert!((direct - via_value).abs() < 1e-9);
    }

    #[test]
    fn adaptive_plan_is_bit_identical_to_exact_dp() {
        let (batch, catalog, recency) = setup();
        let planner = OnDemandPlanner::paper_default();
        for budget in [0u64, 1, 3, 6, 13, 10_000] {
            let plan = planner.plan(&batch, &catalog, &recency, budget).unwrap();
            let mapped = build_instance(&batch, &catalog, &recency, planner.scoring());
            let exact = DpByCapacity.solve(mapped.instance(), budget);
            let mut downloads = mapped.selected_objects(&exact);
            downloads.sort_unstable();
            assert_eq!(plan.downloads(), downloads, "budget {budget}");
            assert_eq!(plan.download_size(), exact.total_size(), "budget {budget}");
            assert_eq!(
                plan.achieved_value().to_bits(),
                exact.total_profit().to_bits(),
                "budget {budget}"
            );
            let sum: u64 = plan.downloads().iter().map(|&o| catalog.size_of(o)).sum();
            assert_eq!(sum, plan.download_size(), "budget {budget}");
            assert!(plan.download_size() <= budget, "budget {budget}");
        }
    }

    #[test]
    fn planning_past_the_plan_table_bound_is_refused() {
        use crate::error::ConfigError;

        // 32 objects of ~10⁹ units: at 1.2·10¹⁰ the DP tables would need
        // ~48 GB, so every entry point refuses before it allocates.
        let sizes: Vec<u64> = (0..32).map(|i| 1_000_000_000 + 97 * i).collect();
        let catalog = Catalog::from_sizes(&sizes);
        let recency = vec![0.0; catalog.len()];
        let requests: Vec<GeneratedRequest> = (0..32)
            .map(|i| GeneratedRequest {
                object: ObjectId(i),
                target_recency: 1.0,
            })
            .collect();
        let batch = RequestBatch::from_generated(&requests);
        let budget = 12_000_000_000;
        let refused = Some(Error::Config(ConfigError::PlanTableTooLarge {
            items: 32,
            capacity: budget,
        }));
        let planner = OnDemandPlanner::paper_default();
        let plan = planner.plan(&batch, &catalog, &recency, budget);
        assert_eq!(plan.err(), refused);
        let traced = planner.plan_with_trace(&batch, &catalog, &recency, budget);
        assert_eq!(traced.err(), refused);
        let mut scratch = PlannerScratch::new();
        let planned =
            planner.plan_requests_into(&requests, &catalog, &recency, budget, &mut scratch);
        assert_eq!(planned.err(), refused);
        assert!(scratch.downloads().is_empty(), "nothing was planned");
        // Under the bound the same catalog plans (and nothing fits).
        let plan = planner.plan(&batch, &catalog, &recency, 1_000).unwrap();
        assert!(plan.downloads().is_empty());
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
