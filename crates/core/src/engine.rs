//! [`RoundEngine`]: the million-client round engine.
//!
//! The batch planning paths ([`crate::request::RequestBatch`],
//! [`crate::planner::OnDemandPlanner::plan_requests_into`]) rebuild the
//! knapsack instance from the raw request stream every round: every
//! request is rescored, every object's profit re-summed, even when
//! nothing about the object changed. At paper scale (500 objects, 5000
//! requests) that rebuild is cheap; at production scale (100k objects,
//! 1M standing requests) it dominates the round now that the adaptive
//! solver has made the solve itself cheap.
//!
//! The engine replaces per-round reconstruction with three mechanisms:
//!
//! 1. **Struct-of-arrays tables.** Object state lives in parallel
//!    columns indexed by object id — size, recency, per-object request
//!    targets, and the score tally: the request count and Σq, the
//!    scores in grid steps, off which the profit is read.
//!    The hot loops (rescore, assemble, serve) stream over dense arrays
//!    in id order instead of chasing a map, and each object's work is
//!    what it needs: rescore folds a fresh copy's targets without
//!    visiting them and scores the rest in branch-free chunks
//!    ([`ScoringFunction`]'s batched fold), assemble reads the band
//!    column a word of 32 objects at a time and emits only the objects
//!    that enter, and serve adds the tallies rescore cached instead
//!    of rescoring every request. A warm round allocates nothing.
//! 2. **Incremental instance build.** A dirty set tracks exactly the
//!    objects whose inputs changed since the last round: recency
//!    movement (which is how cache refreshes and server updates
//!    manifest), request pushes/clears, and retargets. Only dirty
//!    objects are rescored; every other tally carries forward, equal
//!    to what a rescore of its unchanged inputs would give.
//!    [`RoundEngine::mark_all_dirty`] degrades the engine to a
//!    full-rebuild reference path, which the parity tests
//!    (`tests/engine_parity.rs`) pin against the incremental path.
//! 3. **A density histogram that picks the candidates.** Each object
//!    with positive profit sits in a density band
//!    ([`basecache_knapsack::density_band`], 16 an octave), and each band
//!    keeps the size sum and count of its objects; rescore moves every
//!    dirty object between bands, so the histogram costs O(dirty). A
//!    station's round with a budget `B` assembles only the objects above
//!    a *cut*: the highest whose kept bands hold more than `B + s_max`
//!    units (`s_max` the largest size that fits `B`), or lower if the
//!    last round's certificate asked for less. The adaptive solver then
//!    certifies everything below the cut out of every optimum before its
//!    one DP ([`basecache_knapsack::LeftOut`]), so the plan is the whole
//!    instance's; a refusal costs no DP, and the round re-assembles once
//!    at the cut the certificate asked for, then at cut 0, the whole
//!    instance.
//!
//!    Invariant: after every [`RoundEngine::rescore`] each object's band
//!    is the band of its profit and size, and each band's size sum and
//!    count equal a recount over the tally and size columns (debug
//!    builds check it).
//!
//! # Invalidation rules
//!
//! An object is marked dirty — and only then rescored — when:
//!
//! * a request for it is pushed, cleared or retargeted;
//! * an observation sees a recency whose **bits** differ from the
//!   stored column *and* the object has requests (recency movement on
//!   an unrequested object cannot change its absent instance entry; the
//!   column still updates so a later push scores against fresh state).
//!
//! An observation reads the whole recency vector
//! ([`RoundEngine::observe_recency`]) or only the slots a caller lists
//! as changed ([`RoundEngine::observe_changed`]); both apply the same
//! bit test, so when every unlisted slot is unchanged they leave the
//! same column and the same dirty set. A station's round lists the
//! slots its recency stage recomputed — and only when this engine's
//! column is the one that station left in its immediately previous
//! round. Every other round observes the whole vector: the engine's
//! first with the station, one after a batch round or another
//! station's round, one after an update wave, and one after
//! [`RoundEngine::mark_all_dirty`].
//!
//! # Parity contract
//!
//! Each object's tally is an integer sum of grid steps
//! ([`ScoringFunction::score_steps`]), and its profit
//! `n · STEPS − Σq` is read off it, so neither depends on the order the
//! targets are folded in: the incremental and the full-rebuild paths,
//! and a plain per-target `score_steps` loop in any order, give the same
//! tallies, profits and assembled instance. `tests/engine_parity.rs`
//! checks the engine against that plain loop after every round of its
//! churn scripts.
//!
//! The derived columns are read ([`RoundEngine::assemble_into`],
//! [`RoundEngine::for_each_active`]) only after [`RoundEngine::rescore`]
//! has drained the dirty set; debug builds assert it.

use std::collections::BTreeSet;

use basecache_knapsack::{band_edge, cut_below, density_band, Item, LeftOut, BANDS};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::metrics::{from_steps, Sums};

use crate::profit::benefit_steps;
use crate::recency::ScoringFunction;
use crate::scratch::PlannerScratch;

/// Per density band, over the objects with positive profit: their total
/// size and their count. Index 0 (no positive profit) stays empty.
#[derive(Debug)]
struct Histogram {
    units: Vec<u64>,
    objects: Vec<u64>,
}

impl Histogram {
    fn new() -> Self {
        Self {
            units: vec![0; usize::from(BANDS) + 1],
            objects: vec![0; usize::from(BANDS) + 1],
        }
    }

    /// Move an object of `size` units from band `from` to band `to`.
    #[inline]
    fn shift(&mut self, from: u16, to: u16, size: u64) {
        if from != 0 {
            self.units[from as usize] -= size;
            self.objects[from as usize] -= 1;
        }
        if to != 0 {
            self.units[to as usize] += size;
            self.objects[to as usize] += 1;
        }
    }
}

/// One active (requested) object's columnar serve-time view, yielded by
/// [`RoundEngine::for_each_active`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ActiveObject {
    /// The object.
    pub object: ObjectId,
    /// Its last observed cache recency.
    pub recency: f64,
    /// The tally of `score_steps(recency, target)` over its requests:
    /// their count (its standing requests) and Σq.
    pub scores: Sums,
    /// Σ `1 − score` over its requests (knapsack profit), read off the
    /// tally: on the profit grid.
    pub profit: f64,
    /// Its size in data units.
    pub size: u64,
}

/// Struct-of-arrays object/request table with incremental instance
/// construction: parallel columns indexed by object id. See the module
/// docs for the design; see
/// [`crate::station::BaseStationSim::step_engine`] for the full round
/// built on top.
#[derive(Debug)]
pub struct RoundEngine {
    scoring: ScoringFunction,
    /// Object sizes in data units.
    sizes: Vec<u64>,
    /// Last observed (estimated) cache recency per object.
    recency: Vec<f64>,
    /// Standing request targets per object, in push order.
    targets: Vec<Vec<f64>>,
    /// The object's clients' scores as a tally, stored at rescore for
    /// serve to add: their count, the dense request-count column the
    /// table walks read instead of the 24-byte `Vec` headers, ...
    counts: Vec<u64>,
    /// ... and Σq, the grid steps of their scores. The bands, the
    /// histogram, [`Self::profit_sum`] and the assembled items read the
    /// profit off the two ([`Self::profit`]).
    steps: Vec<u64>,
    /// Density band of `profit / size` ([`density_band`]), stored at
    /// rescore beside the tally the profit is read off.
    band: Vec<u16>,
    /// Objects awaiting rescore, one bit each (bit `o % 64` of word
    /// `o / 64`): rescore visits them in id order, so its column reads
    /// move forward through the table.
    dirty: Vec<u64>,
    total_requests: u64,
    last_dirty: u64,
    last_rescored: u64,
    /// `(station, tick)` of the station round whose recency column the
    /// stored one is; `None` when any other observation or
    /// [`Self::mark_all_dirty`] came since.
    observed: Option<(u64, u64)>,
    /// Size and count of the positive-profit objects per density band.
    histogram: Histogram,
    /// The catalog's distinct object sizes, ascending: the sizes an
    /// object left out of a round's instance may have.
    distinct_sizes: Vec<u64>,
    /// The cut the last round's certificate asked for
    /// ([`Self::note_needed_edge`]); a round starts no higher.
    hint: u16,
}

impl RoundEngine {
    /// An engine over `catalog`'s objects, scoring with `scoring`.
    pub fn new(catalog: &Catalog, scoring: ScoringFunction) -> Self {
        let sizes: Vec<u64> = catalog.ids().map(|id| catalog.size_of(id)).collect();
        let n = sizes.len();
        // A set, not a sorted copy of `sizes`: a deduplicated copy keeps
        // the whole column's capacity for the engine's lifetime.
        let distinct_sizes: Vec<u64> = sizes
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        Self {
            scoring,
            sizes,
            recency: vec![0.0; n],
            targets: vec![Vec::new(); n],
            counts: vec![0; n],
            steps: vec![0; n],
            band: vec![0; n],
            dirty: vec![0; n.div_ceil(64)],
            total_requests: 0,
            last_dirty: 0,
            last_rescored: 0,
            observed: None,
            histogram: Histogram::new(),
            distinct_sizes,
            hint: u16::MAX,
        }
    }

    /// The engine, unchanged. The table is one set of columns indexed by
    /// object id, which no shard count splits; the method stays for the
    /// callers that still name one, the benchmark's engine workload
    /// among them.
    ///
    /// # Panics
    ///
    /// Panics if `shards == 0`.
    pub fn with_shards(self, shards: usize) -> Self {
        assert!(shards > 0, "need at least one shard");
        self
    }

    /// The scoring function profits are computed with.
    pub fn scoring(&self) -> ScoringFunction {
        self.scoring
    }

    /// Number of objects in the table.
    pub fn num_objects(&self) -> usize {
        self.sizes.len()
    }

    /// Total standing requests across all objects.
    pub fn total_requests(&self) -> u64 {
        self.total_requests
    }

    /// Objects rescored by the last [`Self::rescore`] (the dirty-set
    /// size it drained).
    pub fn dirty_objects(&self) -> u64 {
        self.last_dirty
    }

    /// Requests rescored by the last [`Self::rescore`].
    pub fn rescored_requests(&self) -> u64 {
        self.last_rescored
    }

    /// `object`'s index into the columns.
    #[inline]
    fn slot(&self, object: ObjectId) -> usize {
        let o = object.index();
        assert!(o < self.sizes.len(), "{object} not in the object table");
        o
    }

    #[inline]
    fn mark_dirty(&mut self, o: usize) {
        self.dirty[o / 64] |= 1 << (o % 64);
    }

    /// Store an observed recency whose bits moved; a requested object
    /// becomes dirty.
    #[inline]
    fn observe(&mut self, o: usize, recency: f64) {
        if recency.to_bits() != self.recency[o].to_bits() {
            self.recency[o] = recency;
            if !self.targets[o].is_empty() {
                self.mark_dirty(o);
            }
        }
    }

    /// Add one standing request for `object` with the given target
    /// recency; the object becomes dirty.
    ///
    /// # Panics
    ///
    /// Panics unless `target_recency ∈ (0, 1]` and `object` is in the
    /// table — the [`crate::request::RequestBatch::push`] contracts.
    pub fn push_request(&mut self, object: ObjectId, target_recency: f64) {
        assert!(
            target_recency > 0.0 && target_recency <= 1.0,
            "target recency must be in (0, 1], got {target_recency}"
        );
        let o = self.slot(object);
        self.targets[o].push(target_recency);
        self.mark_dirty(o);
        self.total_requests += 1;
    }

    /// Bulk-ingest requests in columnar form: `objects[k]` is requested
    /// with target `targets[k]`.
    ///
    /// # Panics
    ///
    /// Panics if the columns' lengths differ, or on the per-request
    /// contract violations of [`Self::push_request`].
    pub fn push_columns(&mut self, objects: &[ObjectId], targets: &[f64]) {
        assert_eq!(
            objects.len(),
            targets.len(),
            "request columns must have equal length"
        );
        for (&o, &t) in objects.iter().zip(targets) {
            self.push_request(o, t);
        }
    }

    /// Drop every standing request (target capacity is kept, so
    /// refilling to the previous shape does not allocate). Every object
    /// that had requests becomes dirty.
    pub fn clear_requests(&mut self) {
        for o in 0..self.targets.len() {
            if !self.targets[o].is_empty() {
                self.targets[o].clear();
                self.mark_dirty(o);
            }
        }
        self.total_requests = 0;
    }

    /// Replace one of `object`'s standing request targets in place —
    /// the allocation-free churn primitive. The slot is chosen as
    /// `slot_seed % count`, so a driver can address a pseudo-random
    /// request without knowing the object's request count. Returns
    /// `false` (and changes nothing) when the object has no requests.
    ///
    /// # Panics
    ///
    /// Panics unless `target_recency ∈ (0, 1]` and `object` is in the
    /// table.
    pub fn retarget(&mut self, object: ObjectId, slot_seed: u64, target_recency: f64) -> bool {
        assert!(
            target_recency > 0.0 && target_recency <= 1.0,
            "target recency must be in (0, 1], got {target_recency}"
        );
        let o = self.slot(object);
        let count = self.targets[o].len();
        if count == 0 {
            return false;
        }
        self.targets[o][(slot_seed % count as u64) as usize] = target_recency;
        self.mark_dirty(o);
        true
    }

    /// The standing request targets for `object`, in storage order.
    pub fn targets_for(&self, object: ObjectId) -> &[f64] {
        &self.targets[self.slot(object)]
    }

    /// Absorb this round's recency vector. An object whose stored
    /// recency bits differ is updated; it becomes dirty only if it has
    /// requests (see the module docs for the invalidation rules).
    ///
    /// # Panics
    ///
    /// Panics if `recency` is shorter than the object table.
    pub fn observe_recency(&mut self, recency: &[f64]) {
        self.observed = None;
        self.observe_all(recency);
    }

    /// Absorb the `changed` slots of this round's recency vector, with
    /// [`Self::observe_recency`]'s test and dirty rule. The caller
    /// vouches that every other slot holds the recency last observed;
    /// the result is then exactly [`Self::observe_recency`]'s, at the
    /// cost of the list instead of the table.
    ///
    /// # Panics
    ///
    /// Panics if `recency` is shorter than the object table, or a listed
    /// object is not in it.
    pub fn observe_changed(&mut self, recency: &[f64], changed: &[ObjectId]) {
        self.observed = None;
        self.observe_listed(recency, changed);
    }

    /// A station round's observation: only `changed` when it is a list
    /// and this engine's column is the one `station` left at `tick - 1`,
    /// the whole vector otherwise. A whole-vector round also checks the
    /// table against `catalog` — the sizes the length check the station
    /// makes every round cannot see.
    ///
    /// # Panics
    ///
    /// Panics if a whole-vector round finds a size that differs from
    /// `catalog`'s, or on [`Self::observe_changed`]'s contracts.
    pub(crate) fn observe_round(
        &mut self,
        recency: &[f64],
        changed: Option<&[ObjectId]>,
        catalog: &Catalog,
        station: u64,
        tick: u64,
    ) {
        let continues = tick
            .checked_sub(1)
            .is_some_and(|last| self.observed == Some((station, last)));
        match changed.filter(|_| continues) {
            Some(changed) => self.observe_listed(recency, changed),
            None => {
                assert!(
                    (0..)
                        .map(ObjectId)
                        .zip(&self.sizes)
                        .all(|(id, &size)| catalog.size_of(id) == size),
                    "engine table's sizes must match the station's catalog"
                );
                self.observe_all(recency);
            }
        }
        self.observed = Some((station, tick));
    }

    fn observe_all(&mut self, recency: &[f64]) {
        self.assert_covers(recency);
        for (o, &r) in recency[..self.sizes.len()].iter().enumerate() {
            self.observe(o, r);
        }
    }

    fn observe_listed(&mut self, recency: &[f64], changed: &[ObjectId]) {
        self.assert_covers(recency);
        for &object in changed {
            let o = self.slot(object);
            self.observe(o, recency[o]);
        }
    }

    fn assert_covers(&self, recency: &[f64]) {
        assert!(
            recency.len() >= self.sizes.len(),
            "need a recency for every object ({} < {})",
            recency.len(),
            self.sizes.len()
        );
    }

    /// Mark every object dirty: the next [`Self::rescore`] recomputes
    /// the whole table, and the next observation reads the whole
    /// recency vector. This is the pinned full-rebuild reference path
    /// the parity tests compare the incremental path against.
    pub fn mark_all_dirty(&mut self) {
        self.observed = None;
        for o in 0..self.sizes.len() {
            self.mark_dirty(o);
        }
    }

    /// Recompute the score tally and density band of every dirty
    /// object, in id order, and move the object between the histogram's
    /// bands; then clear the dirty set. Updates
    /// [`Self::dirty_objects`] and [`Self::rescored_requests`]; debug
    /// builds check the histogram against a recount.
    pub fn rescore(&mut self) {
        self.last_dirty = 0;
        self.last_rescored = 0;
        for w in 0..self.dirty.len() {
            let mut bits = std::mem::take(&mut self.dirty[w]);
            self.last_dirty += u64::from(bits.count_ones());
            while bits != 0 {
                let o = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                self.counts[o] = self.targets[o].len() as u64;
                self.steps[o] = self.scoring.fold(self.recency[o], &self.targets[o]);
                let band = density_band(self.profit(o), self.sizes[o]);
                self.histogram.shift(self.band[o], band, self.sizes[o]);
                self.band[o] = band;
                self.last_rescored += self.counts[o];
            }
        }
        #[cfg(debug_assertions)]
        self.check_histogram();
    }

    /// The histogram and the band column against a recount from the
    /// tally and size columns.
    ///
    /// # Panics
    ///
    /// Panics on the first band whose size sum or count differs.
    #[cfg(any(debug_assertions, test))]
    fn check_histogram(&self) {
        let mut units = [0u64; BANDS as usize + 1];
        let mut objects = [0u64; BANDS as usize + 1];
        for (o, &size) in self.sizes.iter().enumerate() {
            let band = density_band(self.profit(o), size);
            assert_eq!(self.band[o], band, "object {o}'s band");
            if band != 0 {
                units[band as usize] += size;
                objects[band as usize] += 1;
            }
        }
        for band in 0..=usize::from(BANDS) {
            let (kept, counted) = (self.histogram.units[band], self.histogram.objects[band]);
            assert_eq!((kept, counted), (units[band], objects[band]), "band {band}");
        }
    }

    /// The cut a round with `budget` units starts at: the highest cut
    /// whose kept bands — the ones above it — hold more than
    /// [`Self::reach`] units, or the cut the last round's certificate
    /// asked for if that is lower; 0 (nothing left out) when the whole
    /// histogram holds no more.
    pub(crate) fn first_cut(&self, budget: u64) -> u16 {
        let reach = self.reach(budget);
        let mut held = 0u64;
        for band in (1..=BANDS).rev() {
            held += self.histogram.units[usize::from(band)];
            if held > reach {
                return (band - 1).min(self.hint);
            }
        }
        0
    }

    /// What a round's kept candidates must pass, in units: `budget`
    /// plus the largest object size that fits it.
    pub(crate) fn reach(&self, budget: u64) -> u64 {
        let fitting = self.distinct_sizes.partition_point(|&s| s <= budget);
        let s_max = fitting.checked_sub(1).map_or(0, |i| self.distinct_sizes[i]);
        budget.saturating_add(s_max)
    }

    /// The bound on what a round assembled at `cut` leaves out, for the
    /// solver's certificate: densities below the cut's edge and the
    /// catalog's sizes.
    pub(crate) fn left_out(&self, cut: u16) -> LeftOut<'_> {
        LeftOut {
            edge: band_edge(cut),
            sizes: &self.distinct_sizes,
        }
    }

    /// Positive-profit objects a round assembled at `cut` leaves out.
    pub(crate) fn left_out_objects(&self, cut: u16) -> u64 {
        self.histogram.objects[..=cut as usize].iter().sum()
    }

    /// A lower cut for a round whose certificate at `cut` refused and
    /// asked for `needed_edge`: the highest whose edge is at most that.
    pub(crate) fn lowered_cut(&self, cut: u16, needed_edge: f64) -> u16 {
        cut_below(needed_edge).min(cut.saturating_sub(1))
    }

    /// Keep the edge a round's accepted certificate would have asked for
    /// as the next round's hint: its first cut is at most the one below
    /// that edge.
    pub(crate) fn note_needed_edge(&mut self, needed_edge: f64) {
        self.hint = cut_below(needed_edge);
    }

    /// Σ profit over the objects not in `excluded` (distinct): the whole
    /// instance's profit bound, summed exactly in grid steps.
    pub(crate) fn profit_sum(&self, excluded: &[ObjectId]) -> f64 {
        let steps = |o: usize| benefit_steps(self.counts[o], self.steps[o]);
        let all: u64 = (0..self.counts.len()).map(steps).sum();
        let out: u64 = excluded.iter().map(|e| steps(e.index())).sum();
        from_steps(all - out)
    }

    /// Emit the current knapsack instance into `scratch`: one item per
    /// requested object with positive profit, objects ascending. Call
    /// after [`Self::rescore`] (debug builds assert it).
    ///
    /// Fully satisfied objects (every requesting client already at or
    /// above its target, profit exactly `0.0`) are kept out of the
    /// instance: they can never earn downlink budget, and every solver
    /// drops them anyway. Both engine build paths (incremental and
    /// [`Self::mark_all_dirty`] reference) share this filter, so the
    /// bit-parity contract is unaffected.
    pub fn assemble_into(&self, scratch: &mut PlannerScratch) {
        self.assemble_above(0, scratch);
    }

    /// [`Self::assemble_into`] keeping only the objects whose density
    /// band is above `cut` — every object denser than the cut's edge —
    /// still ascending. Cut 0 keeps every positive-profit object: band 0
    /// holds exactly the objects whose profit is not positive.
    pub(crate) fn assemble_above(&self, cut: u16, scratch: &mut PlannerScratch) {
        self.debug_assert_rescored();
        let (items, objects) = (&mut scratch.items, &mut scratch.objects);
        // Above most cuts few objects pass — a few hundred to a few
        // thousand of the table — so the band column is scanned 32
        // objects at a time into a mask (fixed-width compares the
        // compiler vectorizes), and only the objects whose bit is set
        // are read and emitted.
        items.clear();
        objects.clear();
        let mut emit = |o: usize| {
            items.push(Item::new(self.sizes[o], self.profit(o)));
            objects.push(ObjectId(o as u32));
        };
        let words = self.band.chunks_exact(32);
        let rest = words.remainder();
        for (w, bands) in words.enumerate() {
            let mut enter = 0u32;
            for (j, &band) in bands.iter().enumerate() {
                enter |= u32::from(band > cut) << j;
            }
            while enter != 0 {
                emit(w * 32 + enter.trailing_zeros() as usize);
                enter &= enter - 1;
            }
        }
        let tail = self.band.len() - rest.len();
        for (j, &band) in rest.iter().enumerate() {
            if band > cut {
                emit(tail + j);
            }
        }
    }

    /// Visit every requested object in ascending id order with its
    /// columnar serve-time view. The station's per-object serve runs on
    /// this for an engine round: O(requested objects), not O(requests).
    /// Call after
    /// [`Self::rescore`] (debug builds assert it).
    pub fn for_each_active(&self, mut f: impl FnMut(ActiveObject)) {
        self.debug_assert_rescored();
        for (o, &count) in self.counts.iter().enumerate() {
            if count == 0 {
                continue;
            }
            let sum = self.steps[o].into();
            f(ActiveObject {
                object: ObjectId(o as u32),
                recency: self.recency[o],
                scores: Sums { count, sum },
                profit: self.profit(o),
                size: self.sizes[o],
            });
        }
    }

    /// Object `o`'s knapsack profit Σ(1 − s), read off its tally exactly.
    #[inline]
    fn profit(&self, o: usize) -> f64 {
        from_steps(benefit_steps(self.counts[o], self.steps[o]))
    }

    /// The readers of the derived columns trust them: a skipped
    /// [`Self::rescore`] would hand out stale profits and tallies.
    fn debug_assert_rescored(&self) {
        debug_assert!(
            self.dirty.iter().all(|&w| w == 0),
            "dirty objects pending: call rescore before reading the derived columns"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_sim::metrics::STEPS;

    fn engine(n: usize) -> RoundEngine {
        RoundEngine::new(&Catalog::uniform_unit(n), ScoringFunction::InverseRatio)
    }

    fn assemble(e: &RoundEngine) -> PlannerScratch {
        let mut scratch = PlannerScratch::new();
        e.assemble_into(&mut scratch);
        scratch
    }

    /// The score tally of every requested object, ascending.
    fn score_tallies(e: &RoundEngine) -> Vec<Sums> {
        let mut tallies = Vec::new();
        e.for_each_active(|a| tallies.push(a.scores));
        tallies
    }

    #[test]
    fn push_rescore_assemble_builds_the_expected_instance() {
        let mut e = engine(5);
        e.push_request(ObjectId(3), 1.0);
        e.push_request(ObjectId(1), 0.5);
        e.push_request(ObjectId(3), 0.8);
        e.observe_recency(&[0.0, 0.4, 0.0, 0.2, 0.0]);
        e.rescore();
        assert_eq!(e.dirty_objects(), 2);
        assert_eq!(e.rescored_requests(), 3);
        let scratch = assemble(&e);
        assert_eq!(scratch.objects, vec![ObjectId(1), ObjectId(3)]);
        let s = ScoringFunction::InverseRatio;
        let q_1 = s.score_steps(0.4, 0.5);
        let q_3 = s.score_steps(0.2, 1.0) + s.score_steps(0.2, 0.8);
        assert_eq!(scratch.items[0].profit(), from_steps(STEPS - q_1));
        assert_eq!(scratch.items[1].profit(), from_steps(2 * STEPS - q_3));
        let tally = |count, steps: u64| Sums {
            count,
            sum: steps.into(),
        };
        assert_eq!(score_tallies(&e), vec![tally(1, q_1), tally(2, q_3)]);
    }

    #[test]
    fn unchanged_objects_are_not_rescored() {
        let mut e = engine(4);
        e.push_columns(&[ObjectId(0), ObjectId(2)], &[1.0, 0.9]);
        e.observe_recency(&[0.5, 0.0, 0.5, 0.0]);
        e.rescore();
        assert_eq!(e.dirty_objects(), 2);
        // Same recency again: nothing is dirty, nothing rescored.
        e.observe_recency(&[0.5, 0.0, 0.5, 0.0]);
        e.rescore();
        assert_eq!(e.dirty_objects(), 0);
        assert_eq!(e.rescored_requests(), 0);
        // Recency moves only under object 2.
        e.observe_recency(&[0.5, 0.0, 0.25, 0.0]);
        e.rescore();
        assert_eq!(e.dirty_objects(), 1);
        assert_eq!(e.rescored_requests(), 1);
    }

    #[test]
    fn recency_movement_on_unrequested_objects_does_not_dirty() {
        let mut e = engine(3);
        e.push_request(ObjectId(0), 1.0);
        e.observe_recency(&[0.5, 0.9, 0.1]);
        e.rescore();
        e.observe_recency(&[0.5, 0.3, 0.7]);
        e.rescore();
        assert_eq!(e.dirty_objects(), 0, "only object 0 has requests");
        // The column still updated: a later push scores against it.
        e.push_request(ObjectId(1), 1.0);
        e.rescore();
        let scratch = assemble(&e);
        let s = ScoringFunction::InverseRatio;
        assert_eq!(
            scratch.items[1].profit(),
            from_steps(STEPS - s.score_steps(0.3, 1.0))
        );
    }

    #[test]
    fn retarget_replaces_in_place_and_dirties() {
        let mut e = engine(2);
        e.push_request(ObjectId(0), 1.0);
        e.push_request(ObjectId(0), 0.6);
        e.rescore();
        assert!(e.retarget(ObjectId(0), 7, 0.3), "slot 7 % 2 = 1");
        assert_eq!(e.targets_for(ObjectId(0)), &[1.0, 0.3]);
        assert_eq!(e.total_requests(), 2, "retarget never changes counts");
        e.rescore();
        assert_eq!(e.dirty_objects(), 1);
        assert!(!e.retarget(ObjectId(1), 0, 0.5), "no requests, no-op");
    }

    #[test]
    fn clear_requests_dirties_and_keeps_capacity() {
        let mut e = engine(3);
        e.push_columns(&[ObjectId(0), ObjectId(0), ObjectId(2)], &[1.0, 0.5, 0.9]);
        e.observe_recency(&[0.5, 0.5, 0.5]);
        e.rescore();
        e.clear_requests();
        assert_eq!(e.total_requests(), 0);
        e.rescore();
        assert_eq!(e.dirty_objects(), 2, "both previously requested objects");
        let scratch = assemble(&e);
        assert!(scratch.items.is_empty());
        assert!(score_tallies(&e).is_empty());
    }

    #[test]
    fn full_rebuild_is_bit_identical_to_incremental() {
        let sizes: Vec<u64> = (0..97u64).map(|i| 1 + i % 7).collect();
        let catalog = Catalog::from_sizes(&sizes);
        let recency: Vec<f64> = (0..97).map(|i| (i % 13) as f64 / 13.0).collect();
        let build = |full_rebuild: bool| {
            let mut e = RoundEngine::new(&catalog, ScoringFunction::Exponential);
            for k in 0..500u32 {
                e.push_request(ObjectId(k * 17 % 97), 0.2 + (k % 5) as f64 * 0.2);
            }
            e.observe_recency(&recency);
            if full_rebuild {
                e.mark_all_dirty();
            }
            e.rescore();
            let scratch = assemble(&e);
            (
                scratch.objects.clone(),
                scratch
                    .items
                    .iter()
                    .map(|i| (i.size(), i.profit().to_bits()))
                    .collect::<Vec<_>>(),
                score_tallies(&e),
            )
        };
        assert_eq!(build(true), build(false));
    }

    #[test]
    fn mark_all_dirty_rescores_everything_without_changing_values() {
        let mut e = engine(10);
        for k in 0..30u32 {
            e.push_request(ObjectId(k % 10), 1.0);
        }
        let recency: Vec<f64> = (0..10).map(|i| i as f64 / 10.0).collect();
        e.observe_recency(&recency);
        e.rescore();
        let before = assemble(&e);
        let tallies_before = score_tallies(&e);
        e.mark_all_dirty();
        e.rescore();
        assert_eq!(e.dirty_objects(), 10);
        let after = assemble(&e);
        assert_eq!(tallies_before, score_tallies(&e));
        for (a, b) in before.items.iter().zip(after.items.iter()) {
            assert_eq!(a.profit().to_bits(), b.profit().to_bits());
        }
    }

    /// Each requested object's id, recency bits, tally and profit bits.
    type ActiveBits = Vec<(u32, u64, Sums, u64)>;

    /// Every table column an observation can move, as bits: each
    /// requested object's recency, tally and profit, and the instance.
    fn observed_state(e: &RoundEngine) -> (ActiveBits, Vec<(u64, u64)>) {
        let mut active = Vec::new();
        e.for_each_active(|a| {
            active.push((
                a.object.0,
                a.recency.to_bits(),
                a.scores,
                a.profit.to_bits(),
            ));
        });
        let items = assemble(e)
            .items
            .iter()
            .map(|i| (i.size(), i.profit().to_bits()))
            .collect();
        (active, items)
    }

    #[test]
    fn a_listed_observe_equals_a_full_observe() {
        let build = || {
            let mut e = engine(12);
            for k in 0..40u32 {
                e.push_request(ObjectId(k * 7 % 11), 0.1 + (k % 9) as f64 * 0.1);
            }
            e.observe_recency(&[0.5; 12]);
            e.rescore();
            e
        };
        let (mut full, mut listed) = (build(), build());
        let mut recency = [0.5; 12];
        // Moved: two requested objects (3, 5) and an unrequested one
        // (11); listed but unmoved: 8. The list repeats 3 and is not
        // sorted.
        recency[3] = 0.25;
        recency[11] = 1.0;
        recency[5] = -0.0;
        let changed = [11, 3, 8, 5, 3].map(ObjectId);
        full.observe_recency(&recency);
        listed.observe_changed(&recency, &changed);
        full.rescore();
        listed.rescore();
        assert_eq!(full.dirty_objects(), 2, "3 and 5; 11 has no requests");
        assert_eq!(listed.dirty_objects(), full.dirty_objects());
        assert_eq!(listed.rescored_requests(), full.rescored_requests());
        assert_eq!(observed_state(&listed), observed_state(&full));
    }

    #[test]
    fn station_rounds_trust_the_list_only_right_after_their_own_round() {
        let catalog = Catalog::uniform_unit(4);
        let mut e = RoundEngine::new(&catalog, ScoringFunction::InverseRatio);
        e.push_columns(&[0, 1, 2, 3].map(ObjectId), &[1.0; 4]);
        let seen = |e: &mut RoundEngine| {
            e.rescore();
            let mut recency = Vec::new();
            e.for_each_active(|a| recency.push(a.recency));
            recency
        };
        // Round 0 of station 7 observes the whole vector, list or not.
        e.observe_round(&[0.5; 4], Some(&[]), &catalog, 7, 0);
        assert_eq!(seen(&mut e), [0.5; 4]);
        // Round 1 continues it: only the listed slot is read.
        let moved = [0.25; 4];
        e.observe_round(&moved, Some(&[ObjectId(1)]), &catalog, 7, 1);
        assert_eq!(seen(&mut e), [0.5, 0.25, 0.5, 0.5]);
        // A skipped round, another station, "everything" or
        // `mark_all_dirty` each make the next round read it whole.
        e.observe_round(&[0.5; 4], Some(&[]), &catalog, 7, 3);
        assert_eq!(seen(&mut e), [0.5; 4], "tick 2 was not observed");
        e.observe_round(&moved, Some(&[]), &catalog, 8, 4);
        assert_eq!(seen(&mut e), moved, "station 8 did not observe tick 3");
        e.observe_round(&[0.5; 4], None, &catalog, 8, 5);
        assert_eq!(seen(&mut e), [0.5; 4], "everything changed");
        e.mark_all_dirty();
        e.observe_round(&moved, Some(&[]), &catalog, 8, 6);
        assert_eq!(seen(&mut e), moved, "mark_all_dirty forces a full read");
        // So does any observation from outside a station round.
        e.observe_changed(&[0.5; 4], &[ObjectId(0)]);
        e.observe_round(&[0.5; 4], Some(&[]), &catalog, 8, 7);
        assert_eq!(seen(&mut e), [0.5; 4]);
    }

    #[test]
    fn for_each_active_walks_objects_ascending_with_counts() {
        let mut e = engine(6);
        e.push_columns(&[ObjectId(4), ObjectId(1), ObjectId(4)], &[1.0, 0.5, 0.25]);
        e.observe_recency(&[0.0; 6]);
        e.rescore();
        let mut seen = Vec::new();
        e.for_each_active(|a| seen.push((a.object, a.scores.count)));
        assert_eq!(seen, vec![(ObjectId(1), 1), (ObjectId(4), 2)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "call rescore")]
    fn reading_derived_columns_before_rescore_panics_in_debug() {
        let mut e = engine(2);
        e.push_request(ObjectId(1), 1.0);
        e.rescore();
        e.retarget(ObjectId(1), 0, 0.5);
        let _ = assemble(&e);
    }

    /// Every way the table's inputs move — pushes, clears, retargets,
    /// whole and listed observations (profits falling to zero at a fresh
    /// copy and coming back), `mark_all_dirty` — leaves
    /// the density histogram equal to a recount after the rescore.
    #[test]
    fn the_density_histogram_matches_a_recount_after_every_rescore() {
        basecache_sim::check::run_cases("engine/histogram", 96, |case, rng| {
            let n = rng.random_range(1..=40usize);
            let sizes: Vec<u64> = (0..n).map(|_| rng.random_range(0u64..=6)).collect();
            let catalog = Catalog::from_sizes(&sizes);
            let mut e = RoundEngine::new(&catalog, ScoringFunction::Exponential);
            let mut recency = vec![0.0; n];
            let object =
                |rng: &mut basecache_sim::StreamRng| ObjectId(rng.random_range(0..n as u32));
            for _ in 0..48 {
                match rng.random_range(0..7u32) {
                    0 | 1 => {
                        for _ in 0..rng.random_range(1..=8u32) {
                            let target = rng.random_range(0.05f64..=1.0);
                            e.push_request(object(rng), target);
                        }
                    }
                    2 => {
                        let target = rng.random_range(0.05f64..=1.0);
                        e.retarget(object(rng), rng.next_u64(), target);
                    }
                    3 | 4 => {
                        // Fresh copies (profit falls to zero), stale ones
                        // (it comes back) and everything between.
                        let moved: Vec<ObjectId> = (0..rng.random_range(1..=6u32))
                            .map(|_| object(rng))
                            .collect();
                        for &o in &moved {
                            recency[o.index()] = match rng.random_range(0..3u32) {
                                0 => 1.0,
                                1 => 0.0,
                                _ => rng.random_range(0.0f64..=1.0),
                            };
                        }
                        if case % 2 == 0 {
                            e.observe_recency(&recency);
                        } else {
                            e.observe_changed(&recency, &moved);
                        }
                    }
                    5 => e.clear_requests(),
                    _ => e.mark_all_dirty(),
                }
                e.rescore();
                e.check_histogram();
            }
        });
    }

    #[test]
    #[should_panic(expected = "target recency")]
    fn push_rejects_invalid_target() {
        engine(1).push_request(ObjectId(0), 0.0);
    }

    #[test]
    #[should_panic(expected = "need at least one shard")]
    fn with_shards_rejects_zero() {
        let _ = engine(1).with_shards(0);
    }

    #[test]
    #[should_panic(expected = "not in the object table")]
    fn push_rejects_unknown_object() {
        engine(2).push_request(ObjectId(2), 1.0);
    }
}
