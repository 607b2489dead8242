//! Instance reduction + adaptive exact solving.
//!
//! The planner solves one knapsack per scheduling round, and at Table-1
//! scale the exact DP dominates round time. Most of that work is
//! provably unnecessary: classic instance reduction (Martello & Toth)
//! fixes the bulk of the variables *before* any DP column is filled.
//! [`AdaptiveSolver`] is one parameter-free pipeline on reusable scratch:
//!
//! 1. **Classify** — exactly as the DP does: drop zero-profit and
//!    oversized items, take free (size-0) items, clamp capacity to
//!    `min(B, Σ usable sizes)`. If every usable item fits, taking all of
//!    them is the certified optimum and nothing else runs. Otherwise an
//!    open-addressing probe table over the usable profit bits, stopping
//!    at the first repeat, sets the one flag the rest branches on.
//! 2. **Reduce** — one routine, one flag. The ordered density prefix
//!    and its prefix sums, a greedy / best-single-item lower bound, the
//!    Dantzig upper bound, then per-item bound fixing: an item whose
//!    "forced in" bound falls below the lower bound can never be chosen.
//!    When no two usable profits share their bits the reduction is
//!    *two-sided*: it also fixes an item *in* when its "forced out"
//!    bound falls below the lower bound. Under duplicate profit bits
//!    that is switched off (see *Tie safety*). An empty core is a
//!    certificate; any other is swept by the bounded DP
//!    ([`DpByCapacity::solve_into`], on the [`DpScratch`] the caller
//!    lends) on the core only.
//!
//! The result is always exact-optimal with the *same canonical
//! tie-breaking as the full-table DP*: the chosen item set, the achieved
//! profit (bit-for-bit, because the profit is re-folded in ascending
//! item order — exactly the order the DP's cell values accumulate in)
//! and therefore every downstream planner outcome are identical to
//! [`DpByCapacity::solve_into`] on the unreduced instance. All bound
//! comparisons carry a conservative floating-point margin; whenever a
//! decision would land inside the margin, the pipeline declines to
//! reduce and lets the core DP decide, so rounding can never flip a
//! fixing decision.
//!
//! **How the order is built.** The reduction's density order (density
//! descending, index ascending) is an order of plain integer keys, not
//! of indices under a comparator: `[!density bits, position]`, with
//! each `profit / size` computed once, in the word buffer the tie check
//! laid its probe table in. Densities here are finite and sign-positive
//! (a quotient may underflow to `+0.0`), and on such doubles `to_bits()`
//! preserves order with equal values having equal bits, so complemented
//! bits ascending is the value descending; the position makes every key
//! distinct, so an unstable sort or selection has exactly one result.
//!
//! The density order is built only as far as its readers look. Every
//! bound the reduction computes is a Dantzig bound at capacity `≤ B`
//! with at most one item removed, and such a bound reads the order only
//! up to its break, so it is exact on any prefix whose sizes pass
//! `B + s_max` (`s_max` the largest usable size). The reduction
//! orders exactly such a prefix, block by block: selection pulls the
//! smallest unordered keys to the front of the rest and the block is
//! sorted, so the prefix is a prefix of the full order and its sums are
//! the same folds in the same order — every bound keeps its bits. An
//! item past the prefix leaves every break in it when removed: its
//! `ub_in` is its profit plus the plain Dantzig bound at `B − size`
//! (computed once per size) and its `ub_out` the global bound. The
//! greedy incumbent continues past the prefix with `rem` units left
//! (fewer than `s_max`): it takes a leading run of each size class `s`
//! in density order, at most `⌊rem/s⌋` items long, so greedy over each
//! class's `⌊rem/s⌋` densest items — a few hundred candidates at most —
//! takes exactly what greedy over the whole rest would. Past 64 units
//! left the order is completed.
//!
//! The per-item bounds each need the break rank of the order with one
//! item removed, at the capacity or the capacity less that item's size —
//! always near the one global break, so each search gallops outward from
//! it and bisects the bracket instead of bisecting the whole table.
//!
//! **Tie safety.** When two usable items carry bit-identical profits,
//! the full DP resolves the resulting solution ties through the
//! accumulation order of its table cells — an artifact no shortcut can
//! reproduce, and one that forcing an item *in* (which reshapes the
//! accumulation order) disturbs. Removing an item certified to sit in
//! **no** optimal solution, however, leaves the DP bit-identical even under
//! ties: along the canonical chosen set's backtrack path every cell
//! value is achieved by a subset free of the removed item (so those
//! values are unchanged f64 folds), and each keep-bit comparison pits an
//! on-path value (unchanged) against an off-path value (which removal
//! can only lower, `max` over fewer folds), so no strict-`>` decision
//! flips in either direction. Tied instances are therefore reduced
//! forced-out-only and the survivors swept at the full effective
//! capacity. Guard rails: the survivors' total size must still reach
//! the effective capacity (so the reduced DP clamps to the same table
//! width as the full sweep) and the pruning must actually remove
//! something; otherwise the full-instance sweep runs unchanged.
//!
//! **Why there is nothing to tune.** The pipeline once also carried a
//! branch-and-bound terminal, an expanding-core endgame, a warm-start
//! hint, four builder knobs and same-size dominance.
//! Counted per solve under `benchmark/run.sh` (1 s per workload, seeds
//! 1 and 2), branch-and-bound was attempted on 83 % of `station-paper`
//! and 9 % of `cluster-roaming` solves and completed 0 of 28 476 times
//! (its first leaf was the greedy seed it was handed, an unbreakable
//! tie), the hint beat the greedy incumbent 0 of 20 988 times (last
//! round's downloads are fresh, hence absent from this round's
//! instance), and nothing outside tests set a knob. What the traffic
//! does use is what remains: the tied path is 100 % of
//! `station-inflight` and `engine-massive` solves and 94 % of the 47 867
//! solves behind the golden CSVs. The endgame solved a 64-item window
//! around a large untied core's break item and certified it against
//! the per-item bounds; once tie-safe pruning landed it ran 0 window
//! solves per solve on `engine-massive` and `station-inflight`, 0.0003
//! on `cluster-roaming` and 0.021 on `station-paper` (seed 1), where
//! sweeping those cores whole costs 2 % more DP cells (1 670 → 1 707 a
//! round). Same-size dominance dropped an untied item when `⌊B/s⌋`
//! classmates of its size `s` beat it; without it bound fixing reaches
//! the same cores — the traced core, fixed-item and DP-cell counts of
//! all four benchmark workloads (seed 1) and of the four
//! `knapsack/adaptive/*` bench shapes are unchanged — and the traced
//! `station-paper` solve falls from 52 to 37 µs.

use crate::instance::density_key;
use crate::{DpByCapacity, DpScratch, Instance, Item, Solution, Solver};

/// Most units the greedy incumbent may have left after the ordered
/// prefix and still continue over class candidates; it completes the
/// order past this (at 64 units, at most 280 candidates).
const CANDIDATE_UNITS: usize = 64;

/// Slots of the per-size bound cache the fixing past the ordered prefix
/// reads; size `s` lives in slot `s % SIZE_SLOTS`.
const SIZE_SLOTS: usize = 16;

/// Which terminal strategy produced the last solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMethod {
    /// The bounds met: the greedy/reduction answer is certified optimal
    /// and no DP ran (includes the "every usable item fits" case and
    /// cores emptied entirely by variable fixing).
    #[default]
    CertifiedGreedy,
    /// The bounded DP ran on the reduced core (or on the full instance
    /// where reduction declined).
    CoreDp,
}

impl SolveMethod {
    /// Numeric code for recorder samples: 0 = certified greedy,
    /// 2 = core DP. (1 and 3 were the retired branch-and-bound and
    /// expanding-core terminals; the others keep their values so old
    /// and new recordings compare.)
    pub const fn code(self) -> u8 {
        match self {
            SolveMethod::CertifiedGreedy => 0,
            SolveMethod::CoreDp => 2,
        }
    }
}

/// Per-usable-item reduction state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// Still undecided: part of the search core.
    Core,
    /// Fixed into every optimal solution by the bounds.
    ForcedIn,
    /// Fixed out of every optimal solution by the bounds.
    ForcedOut,
}

/// Reusable buffers for [`AdaptiveSolver`]. Create once per planner (or
/// thread) and feed to every solve; after the first call at a given
/// problem shape no further heap allocation occurs.
#[derive(Debug, Default)]
pub struct AdaptiveScratch {
    // Classification of the original items.
    /// Original indices of sized usable items (profit > 0,
    /// 0 < size ≤ capacity), ascending.
    usable_idx: Vec<u32>,
    /// Size per usable position.
    usable_size: Vec<u64>,
    /// Profit per usable position.
    usable_profit: Vec<f64>,
    /// Reduction state per usable position.
    state: Vec<State>,
    /// Selection flag per usable position: the greedy incumbent while
    /// reducing, the final selection afterwards.
    sel: Vec<bool>,
    /// Key workspace, one use after the other: the probe table of the
    /// duplicate-profit tie check, then the density keys `[density_key,
    /// usable position]` — those `ord` holds first, in order, the
    /// unordered rest after them.
    keys: Vec<u64>,
    // Density ordering over the usable items.
    /// Usable positions in (density desc, index asc) order: a prefix of
    /// it, long enough for every bound the reduction reads, completed
    /// only where a reader needs every rank.
    ord: Vec<u32>,
    /// The global break rank: the largest prefix of `ord` that fits the
    /// capacity, where every per-item bound search starts.
    brk: usize,
    /// Prefix sums of sizes over `ord` (len `ord.len() + 1`).
    ord_psize: Vec<u64>,
    /// Prefix sums of profits over `ord` (len `ord.len() + 1`).
    ord_pprofit: Vec<f64>,
    // Core (undecided) items for the terminal DP.
    /// Core items in ascending original order.
    core_items: Vec<Item>,
    /// Usable position of each core item.
    core_map: Vec<u32>,
    /// Density-key indices of the greedy candidates past the ordered
    /// prefix (see [`AdaptiveScratch::greedy_past_prefix`]).
    pending: Vec<u32>,
    /// Chosen original item indices, ascending.
    chosen: Vec<usize>,
    // Stats for the last solve.
    value: f64,
    method: SolveMethod,
    core_size: usize,
    items_fixed: usize,
    cells_touched: u64,
    lower_bound: f64,
    upper_bound: f64,
    #[cfg(test)]
    probe: Probe,
}

/// The lazy order's rarer routes, recorded so the unit tests can assert
/// that their instance streams reach each, and the switch that orders
/// every key up front — the reference the lazy prefix is checked
/// against.
#[cfg(test)]
#[derive(Debug, Default)]
struct Probe {
    order_all: bool,
    class_candidates: bool,
    rem_extension: bool,
    shared_slot: bool,
}

impl AdaptiveScratch {
    /// Fresh, empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-size every buffer for instances of up to `max_items` items,
    /// so even the first solve allocates nothing here. (The DP tables
    /// the terminal sweeps run on are the caller's [`DpScratch`].)
    pub fn reserve(&mut self, max_items: usize) {
        self.usable_idx.reserve(max_items);
        self.usable_size.reserve(max_items);
        self.usable_profit.reserve(max_items);
        self.state.reserve(max_items);
        self.sel.reserve(max_items);
        self.ord.reserve(max_items);
        self.ord_psize.reserve(max_items + 1);
        self.ord_pprofit.reserve(max_items + 1);
        self.core_items.reserve(max_items);
        self.core_map.reserve(max_items);
        self.pending.reserve(max_items);
        self.chosen.reserve(max_items);
        // Three words an item, the most the tie check's probe table
        // takes; last, so the buffers above keep the heap layout they
        // had before the keys.
        self.keys.reserve(3 * max_items);
    }

    /// Optimal profit of the last solve (bit-identical to the full DP's).
    pub fn value(&self) -> f64 {
        self.value
    }

    /// Chosen item indices of the last solve, ascending — identical to
    /// [`DpScratch::chosen`] after [`DpByCapacity::solve_into`] on the
    /// unreduced instance.
    pub fn chosen(&self) -> &[usize] {
        &self.chosen
    }

    /// Which terminal strategy produced the last solution.
    pub fn method(&self) -> SolveMethod {
        self.method
    }

    /// Items the DP swept: the undecided core left after reduction and
    /// variable fixing, every usable item where reduction declined, 0
    /// when a certificate fired.
    pub fn core_size(&self) -> usize {
        self.core_size
    }

    /// Usable items eliminated before the terminal solver ran: fixed by
    /// the bounds, in either direction.
    pub fn items_fixed(&self) -> usize {
        self.items_fixed
    }

    /// DP cells swept by the last solve (0 unless a DP ran).
    pub fn cells_touched(&self) -> u64 {
        self.cells_touched
    }
}

/// The adaptive exact solver: reduction and variable fixing, then a
/// certificate or the bounded DP over what is left. See the module
/// docs for the pipeline and the exactness contract.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptiveSolver;

impl AdaptiveSolver {
    /// Solve `items` under `capacity` on reusable scratch. The optimal
    /// profit is returned and, with the chosen indices and the reduction
    /// stats, left in `scratch`; `dp` lends the tables for whatever DP
    /// sweep the solve needs (its contents afterwards are that sweep's,
    /// over the core — read the answer from `scratch`). A planner
    /// passes the same [`DpScratch`] it would hand
    /// [`DpByCapacity::solve_into`], so one set of tables serves either
    /// exact solver.
    pub fn solve_into(
        &self,
        items: &[Item],
        capacity: u64,
        scratch: &mut AdaptiveScratch,
        dp: &mut DpScratch,
    ) -> f64 {
        // ---- Classify items exactly as the DP does. ------------------
        scratch.usable_idx.clear();
        scratch.usable_size.clear();
        scratch.usable_profit.clear();
        scratch.chosen.clear();
        scratch.cells_touched = 0;

        let mut total_usable: u64 = 0;
        let mut flat = 0.0_f64; // running profit sum in item order, as in the DP
        let mut degenerate = false;
        for (i, item) in items.iter().enumerate() {
            let (size, profit) = (item.size(), item.profit());
            debug_assert!(profit.is_finite() && profit >= 0.0, "invalid profit");
            if profit <= 0.0 || size > capacity {
                continue;
            }
            if size == 0 {
                flat += profit;
                continue;
            }
            // The DP falls back to full-width rows when a profit cannot
            // move the running sum in f64; reduction reasoning is unsafe
            // at such profit scales, so route the whole instance to it.
            if flat + profit <= flat {
                degenerate = true;
            }
            flat += profit;
            total_usable += size;
            scratch.usable_idx.push(i as u32);
            scratch.usable_size.push(size);
            scratch.usable_profit.push(profit);
        }
        if degenerate {
            // Bit-identical by construction: run the full bounded DP.
            return scratch.full_dp(items, capacity, dp);
        }
        let nu = scratch.usable_idx.len();
        scratch.sel.clear();
        scratch.sel.resize(nu, false);
        if total_usable <= capacity {
            // Every usable item fits. Tie-free even under duplicate
            // profit bits: all profits are positive, so taking
            // everything is the unique optimum and the DP would do
            // exactly that.
            scratch.sel.fill(true);
            return scratch.certify(items);
        }
        // From here on the capacity binds: `capacity < total_usable`.

        // Bit-equal profits make the DP's tie resolution an accumulation
        // artifact (its strict-`>` keep bit reacts to ulp-level fold-order
        // noise between equal-value sets) that no shortcut reproduces.
        // Detect any duplicated profit bits up front and reduce such
        // instances one-sidedly (module docs, *Tie safety*).
        let two_sided = !profit_bits_repeat(&scratch.usable_profit, &mut scratch.keys);

        // Conservative float margin: any fold of usable profits differs
        // from the real sum by well under this, so bound comparisons that
        // clear it cannot be rounding artifacts.
        let margin = flat * f64::EPSILON * (nu as f64 + 4.0) * 8.0;

        // ---- Reduce. -------------------------------------------------
        scratch.reduce(capacity, margin, two_sided);

        // ---- Sweep the core. -----------------------------------------
        let mut forced_size = 0u64;
        scratch.core_items.clear();
        scratch.core_map.clear();
        for u in 0..nu {
            let size = scratch.usable_size[u];
            match scratch.state[u] {
                State::ForcedIn => forced_size += size,
                State::Core => {
                    let profit = scratch.usable_profit[u];
                    scratch.core_items.push(Item::new(size, profit));
                    scratch.core_map.push(u as u32);
                }
                State::ForcedOut => {}
            }
        }
        let nk = scratch.core_items.len();
        let declined = if two_sided {
            // Cannot happen when the fixing logic is sound; if rounding
            // ever conspired against us, decline to reduce entirely.
            forced_size > capacity
        } else {
            // The tied guard rails: nothing removed, or the reduced
            // table would clamp narrower than the full one.
            nk == nu || scratch.core_items.iter().map(Item::size).sum::<u64>() < capacity
        };
        if declined {
            return scratch.full_dp(items, capacity, dp);
        }
        if nk == 0 {
            scratch.select_state(State::ForcedIn);
            return scratch.certify(items);
        }
        // A tied core has nothing forced in, so it is swept at the full
        // effective capacity — the width the removal argument needs.
        scratch.core_dp(items, capacity - forced_size, dp)
    }
}

impl AdaptiveScratch {
    /// The one reduction routine, run when the capacity binds: the
    /// ordered density prefix and its prefix sums, the greedy /
    /// best-single lower bound, the Dantzig upper bound, then per-item
    /// bound fixing into `state`. `two_sided` (no duplicate profit bits)
    /// adds forced-*in* fixing.
    fn reduce(&mut self, capacity: u64, margin: f64, two_sided: bool) {
        let m = self.usable_idx.len();
        self.state.clear();
        self.state.resize(m, State::Core);

        // Density keys (density desc, index asc; module docs, *How the
        // order is built*), and the total and largest size.
        self.keys.clear();
        let (mut total, mut s_max) = (0u64, 0u64);
        for u in 0..m {
            let size = self.usable_size[u];
            let density = self.usable_profit[u] / size as f64;
            self.keys.extend([density_key(density), u as u64]);
            total += size;
            s_max = s_max.max(size);
        }
        // Every bound below is a Dantzig bound at a capacity of at most
        // `capacity` with at most one item removed, so its break falls
        // inside the first ranks whose sizes pass `capacity + s_max`:
        // only those are ordered.
        self.ord.clear();
        self.ord_psize.clear();
        self.ord_pprofit.clear();
        self.ord_psize.push(0);
        self.ord_pprofit.push(0.0);
        let stop = capacity.saturating_add(s_max);
        #[cfg(test)]
        let stop = if self.probe.order_all { u64::MAX } else { stop };
        // First block: twice the ranks items of average size would take
        // to pass `stop`.
        let block = 2 * u128::from(stop) * m as u128 / u128::from(total.max(1));
        self.order_until(stop, block.min(m as u128) as usize + 1);
        let k = self.ord.len();

        // Greedy incumbent (density order, take what fits), evaluated by
        // the ascending-index fold so it compares exactly against DP
        // values; then the best single item (the classic
        // 2-approximation fix).
        let mut remaining = capacity;
        let ord = self.ord.iter().map(|&u| u as usize);
        take_what_fits(&self.usable_size, &mut self.sel, &mut remaining, ord);
        if remaining > 0 && k < m {
            self.greedy_past_prefix(remaining);
        }
        let mut lb = fold_flags(&self.usable_profit, &self.sel);
        for &p in &self.usable_profit {
            if p > lb {
                lb = p;
            }
        }
        self.lower_bound = lb;
        let (brk, ub) = self.dantzig(0, capacity);
        self.brk = brk;
        self.upper_bound = ub;

        for r in 0..k {
            let u = self.ord[r] as usize;
            let (s_r, p_r) = (self.usable_size[u], self.usable_profit[u]);
            // Upper bound over solutions that DO contain item r.
            let ub_in = p_r + self.dantzig_excluding(r, capacity - s_r);
            if ub_in + margin < lb {
                self.state[u] = State::ForcedOut;
            } else if two_sided {
                // Upper bound over solutions that do NOT contain item r.
                let ub_out = self.dantzig_excluding(r, capacity);
                if ub_out + margin < lb {
                    self.state[u] = State::ForcedIn;
                }
            }
        }
        // Past the prefix an item's removal leaves the prefix, and every
        // break in it, untouched: `ub_in` is its profit plus the plain
        // Dantzig bound at `capacity - size`, computed once per size
        // (a direct-mapped cache keyed by size; no usable size is 0),
        // and `ub_out` is the global bound.
        let mut by_size = [(0u64, 0.0f64); SIZE_SLOTS];
        let (dkeys, _) = self.keys.as_chunks::<2>();
        for &[_, u] in &dkeys[k..] {
            let u = u as usize;
            let (s, p) = (self.usable_size[u], self.usable_profit[u]);
            let slot = &mut by_size[s as usize % SIZE_SLOTS];
            if slot.0 != s {
                #[cfg(test)]
                {
                    self.probe.shared_slot |= slot.0 != 0;
                }
                *slot = (s, self.dantzig(self.brk, capacity - s).1);
            }
            if p + slot.1 + margin < lb {
                self.state[u] = State::ForcedOut;
            } else if two_sided && ub + margin < lb {
                self.state[u] = State::ForcedIn;
            }
        }
    }

    /// Extend `ord` and its prefix sums with the densest unordered keys,
    /// `block` ranks at a time (×4 per further block), until its sizes
    /// pass `stop` or every key is ordered. `keys` holds the ordered
    /// density keys first and the unordered rest after them; each block
    /// is pulled to the front of the rest by selection and sorted, so
    /// `ord` is always an exact prefix of the full density order.
    fn order_until(&mut self, stop: u64, mut block: usize) {
        let by_key = |&[density, u]: &[u64; 2]| (density, u);
        let m = self.keys.len() / 2;
        while self.ord.len() < m && self.ord_psize[self.ord.len()] <= stop {
            let done = self.ord.len();
            let end = done + block.min(m - done);
            let (dkeys, _) = self.keys.as_chunks_mut::<2>();
            let rest = &mut dkeys[done..];
            if end < m {
                rest.select_nth_unstable_by_key(end - done, by_key);
            }
            rest[..end - done].sort_unstable_by_key(by_key);
            for &[_, u] in &dkeys[done..end] {
                let (u, k) = (u as usize, self.ord.len());
                self.ord.push(u as u32);
                self.ord_psize.push(self.ord_psize[k] + self.usable_size[u]);
                self.ord_pprofit
                    .push(self.ord_pprofit[k] + self.usable_profit[u]);
            }
            block = block.saturating_mul(4);
        }
    }

    /// Continue the greedy incumbent past the ordered prefix with `rem`
    /// units left. Items of one size `s` are taken as a leading run of
    /// that size class in density order (`rem` only falls, so once one
    /// no longer fits none after it does), and the run holds at most
    /// `⌊rem/s⌋` items. Greedy over each class's `⌊rem/s⌋` densest
    /// unordered items of size `s ≤ rem` — the candidates, collected in
    /// `pending` — therefore takes exactly what greedy over all of them
    /// would. Past [`CANDIDATE_UNITS`] units left, or with more candidate
    /// slots than unordered items, `ord` is completed and walked instead.
    fn greedy_past_prefix(&mut self, mut rem: u64) {
        let (k, m) = (self.ord.len(), self.keys.len() / 2);
        // Class `s`'s candidates fill `pending[at[s]..at[s + 1]]`.
        let mut at = [0usize; CANDIDATE_UNITS + 2];
        let classes = rem.min(CANDIDATE_UNITS as u64) as usize;
        for s in 1..=classes {
            at[s + 1] = at[s] + classes / s;
        }
        if rem > CANDIDATE_UNITS as u64 || at[classes + 1] > m - k {
            #[cfg(test)]
            {
                self.probe.rem_extension |= rem > CANDIDATE_UNITS as u64;
            }
            self.order_until(u64::MAX, usize::MAX);
            let rest = self.ord[k..].iter().map(|&u| u as usize);
            take_what_fits(&self.usable_size, &mut self.sel, &mut rem, rest);
            return;
        }
        #[cfg(test)]
        {
            self.probe.class_candidates = true;
        }

        let (dkeys, _) = self.keys.as_chunks::<2>();
        let key = |t: u32| (dkeys[t as usize][0], dkeys[t as usize][1]);
        self.pending.clear();
        self.pending.resize(at[classes + 1], 0);
        // Each class's candidates so far, densest first.
        let mut held = [0usize; CANDIDATE_UNITS + 1];
        for t in k as u32..m as u32 {
            let s = self.usable_size[dkeys[t as usize][1] as usize];
            if s > rem {
                continue;
            }
            let s = s as usize;
            let class = &mut self.pending[at[s]..at[s + 1]];
            let mut j = held[s];
            if j == class.len() {
                if key(t) > key(class[j - 1]) {
                    continue;
                }
                j -= 1; // the sparsest candidate makes room
            } else {
                held[s] += 1;
            }
            while j > 0 && key(class[j - 1]) > key(t) {
                class[j] = class[j - 1];
                j -= 1;
            }
            class[j] = t;
        }
        let mut n = 0;
        for s in 1..=classes {
            self.pending.copy_within(at[s]..at[s] + held[s], n);
            n += held[s];
        }
        self.pending.truncate(n);
        self.pending.sort_unstable_by_key(|&t| key(t));
        let candidates = self.pending.iter().map(|&t| dkeys[t as usize][1] as usize);
        take_what_fits(&self.usable_size, &mut self.sel, &mut rem, candidates);
    }

    /// Bounded DP over `core_items` at `core_cap`; the answer is the
    /// forced-in items plus what the DP chose.
    fn core_dp(&mut self, items: &[Item], core_cap: u64, dp: &mut DpScratch) -> f64 {
        DpByCapacity.solve_into(&self.core_items, core_cap, dp);
        self.cells_touched = dp.cells_touched();
        self.select_state(State::ForcedIn);
        for &c in dp.chosen() {
            self.sel[self.core_map[c] as usize] = true;
        }
        self.method = SolveMethod::CoreDp;
        self.core_size = self.core_items.len();
        self.items_fixed = self.usable_idx.len() - self.core_size;
        self.finish(items)
    }

    /// Full-instance DP for the instances where reduction declined.
    fn full_dp(&mut self, items: &[Item], capacity: u64, dp: &mut DpScratch) -> f64 {
        let value = DpByCapacity.solve_into(items, capacity, dp);
        self.chosen.clear();
        self.chosen.extend_from_slice(dp.chosen());
        self.cells_touched = dp.cells_touched();
        self.value = value;
        self.method = SolveMethod::CoreDp;
        self.core_size = self.usable_idx.len();
        self.items_fixed = 0;
        self.lower_bound = value;
        self.upper_bound = value;
        value
    }

    /// The selection in `sel` is optimal by a bound certificate: no DP
    /// runs, the core is empty and both bounds sit on the optimum.
    fn certify(&mut self, items: &[Item]) -> f64 {
        let value = self.finish(items);
        self.method = SolveMethod::CertifiedGreedy;
        self.core_size = 0;
        self.items_fixed = self.usable_idx.len();
        self.lower_bound = value;
        self.upper_bound = value;
        value
    }

    /// `sel` = exactly the usable positions in state `keep`.
    fn select_state(&mut self, keep: State) {
        for (sel, &state) in self.sel.iter_mut().zip(&self.state) {
            *sel = state == keep;
        }
    }

    /// Assemble `chosen` (ascending original indices) from the
    /// classification and the per-usable selection flags, folding the
    /// profit in ascending item order — the exact accumulation order of
    /// the DP's cell values, so the result is bit-identical to the DP
    /// optimum.
    fn finish(&mut self, items: &[Item]) -> f64 {
        self.chosen.clear();
        let mut acc = 0.0_f64;
        let mut upos = 0usize;
        for (i, item) in items.iter().enumerate() {
            let (size, profit) = (item.size(), item.profit());
            if profit <= 0.0 {
                continue;
            }
            if size == 0 {
                self.chosen.push(i);
                acc += profit;
                continue;
            }
            if upos < self.usable_idx.len() && self.usable_idx[upos] as usize == i {
                if self.sel[upos] {
                    self.chosen.push(i);
                    acc += profit;
                }
                upos += 1;
            }
        }
        self.value = acc;
        acc
    }

    /// Dantzig bound at `cap` (at most the solve's capacity) over the
    /// density order, and its break rank, searched from `hint`. The
    /// ordered prefix either holds every item or has sizes past the
    /// capacity, so the break lies inside it.
    fn dantzig(&self, hint: usize, cap: u64) -> (usize, f64) {
        let len = self.ord.len();
        let b = largest_fitting_prefix(hint, len, cap, |t| self.ord_psize[t]);
        let rem = cap - self.ord_psize[b];
        let bound = if b < len && rem > 0 {
            let u = self.ord[b] as usize;
            self.ord_pprofit[b] + self.usable_profit[u] * rem as f64 / self.usable_size[u] as f64
        } else {
            self.ord_pprofit[b]
        };
        (b, bound)
    }

    /// Dantzig bound at `cap` (at most the solve's capacity) over the
    /// density order with the item at rank `skip` of the ordered prefix
    /// removed, via the prefix sums. The break moves only a few ranks
    /// when one item leaves or the capacity gives up one item's size, so
    /// the search starts at the global break `brk`. It never leaves the
    /// prefix: unless the prefix holds every item, its sizes pass the
    /// capacity plus the largest size, so the first `len - 1` ranks of
    /// the shortened order already overflow `cap`.
    fn dantzig_excluding(&self, skip: usize, cap: u64) -> f64 {
        let u_skip = self.ord[skip] as usize;
        let (s_skip, p_skip) = (self.usable_size[u_skip], self.usable_profit[u_skip]);
        // Prefix size of the first t items of the sequence-without-skip.
        let pex_size = |t: usize| -> u64 {
            if t <= skip {
                self.ord_psize[t]
            } else {
                self.ord_psize[t + 1] - s_skip
            }
        };
        let pex_profit = |t: usize| -> f64 {
            if t <= skip {
                self.ord_pprofit[t]
            } else {
                self.ord_pprofit[t + 1] - p_skip
            }
        };
        let last = self.ord.len() - 1; // the shortened prefix
        let b = largest_fitting_prefix(self.brk, last, cap, pex_size);
        let rem = cap - pex_size(b);
        if b < last && rem > 0 {
            let q = self.ord[if b < skip { b } else { b + 1 }] as usize;
            pex_profit(b) + self.usable_profit[q] * rem as f64 / self.usable_size[q] as f64
        } else {
            pex_profit(b)
        }
    }
}

/// The largest `t ≤ len` whose prefix size fits `cap` (`prefix_size` is
/// non-decreasing and `prefix_size(0) == 0`), searched outward from
/// `hint`: gallop away from it in doubling steps until the answer is
/// bracketed, then bisect the bracket. Fitting is monotone in `t`, so
/// every bracket bisects to the same answer; a hint `d` ranks off costs
/// `O(log d)` probes, and `hint = 0` is the cold `O(log len)` search.
fn largest_fitting_prefix(
    hint: usize,
    len: usize,
    cap: u64,
    prefix_size: impl Fn(usize) -> u64,
) -> usize {
    // `lo` always fits and the answer lies in `[lo, hi]`.
    let (mut lo, mut hi) = (0usize, len);
    let hint = hint.min(len);
    let mut step = 1usize;
    if prefix_size(hint) <= cap {
        lo = hint;
        while step <= hi - lo {
            if prefix_size(lo + step) <= cap {
                lo += step;
                step *= 2;
            } else {
                hi = lo + step - 1;
                break;
            }
        }
    } else {
        hi = hint - 1; // `prefix_size(0)` fits, so `hint ≥ 1` here
        while step <= hi - lo {
            if prefix_size(hi + 1 - step) <= cap {
                lo = hi + 1 - step;
                break;
            }
            hi -= step;
            step *= 2;
        }
    }
    while lo < hi {
        let mid = lo + (hi - lo).div_ceil(2);
        if prefix_size(mid) <= cap {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    lo
}

/// Whether two of `profits` share their bits, by an open-addressing
/// probe table laid into `table`: a power of two of slots in
/// `[1.5n, 3n)`, linear probing from a Fibonacci hash, `0` marking an
/// empty slot (a usable profit is positive, never `+0.0`). It stops at
/// the first repeat, which a tied instance meets within a few items.
fn profit_bits_repeat(profits: &[f64], table: &mut Vec<u64>) -> bool {
    let slots = (3 * profits.len()).next_power_of_two() / 2;
    let shift = 64 - slots.trailing_zeros();
    table.clear();
    table.resize(slots, 0);
    for p in profits {
        let bits = p.to_bits();
        let mut i = (bits.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize;
        loop {
            match table[i] {
                0 => {
                    table[i] = bits;
                    break;
                }
                held if held == bits => return true,
                _ => i = (i + 1) & (slots - 1),
            }
        }
    }
    false
}

/// Greedy over the usable `positions` in the order given: select each
/// item that still fits the `rem` units left.
fn take_what_fits(
    size: &[u64],
    sel: &mut [bool],
    rem: &mut u64,
    positions: impl Iterator<Item = usize>,
) {
    for u in positions {
        if size[u] <= *rem {
            *rem -= size[u];
            sel[u] = true;
        }
    }
}

/// Fold the selected usable profits in ascending index order.
fn fold_flags(profits: &[f64], flags: &[bool]) -> f64 {
    let mut acc = 0.0;
    for (p, &f) in profits.iter().zip(flags) {
        if f {
            acc += p;
        }
    }
    acc
}

impl Solver for AdaptiveSolver {
    fn solve(&self, instance: &Instance, capacity: u64) -> Solution {
        let mut scratch = AdaptiveScratch::new();
        self.solve_into(
            instance.items(),
            capacity,
            &mut scratch,
            &mut DpScratch::new(),
        );
        Solution::from_indices(instance, scratch.chosen.clone())
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::density_order;
    use std::cmp::Ordering;

    /// The tests' deterministic generator.
    fn lcg(state: &mut u64) -> u64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *state >> 33
    }

    /// One solve on throwaway DP tables.
    fn solve(items: &[Item], capacity: u64, scratch: &mut AdaptiveScratch) -> f64 {
        AdaptiveSolver.solve_into(items, capacity, scratch, &mut DpScratch::new())
    }

    /// Assert the solver matches the full bounded DP bit-for-bit (chosen
    /// set and profit) at every capacity in `caps`.
    fn assert_parity(items: &[Item], caps: impl IntoIterator<Item = u64>) {
        let mut adaptive = AdaptiveScratch::new();
        let mut dp = DpScratch::new();
        for cap in caps {
            let got = solve(items, cap, &mut adaptive);
            let want = DpByCapacity.solve_into(items, cap, &mut dp);
            assert_eq!(
                adaptive.chosen(),
                dp.chosen(),
                "chosen sets diverge at cap={cap} ({:?})",
                adaptive.method()
            );
            assert!(
                got == want,
                "profit diverges at cap={cap}: {got} vs {want} ({:?})",
                adaptive.method()
            );
        }
    }

    /// Deterministic weakly correlated instance (profit = size + fine
    /// noise, the classic hard shape): bound fixing leaves untied cores
    /// of hundreds of items.
    fn correlated_items(n: usize, seed: u64) -> Vec<Item> {
        let mut state = seed;
        (0..n)
            .map(|_| {
                let size = 1 + lcg(&mut state) % 40;
                let noise = (lcg(&mut state) % (1 << 20)) as f64 / (1u64 << 20) as f64;
                Item::new(size, size as f64 + noise)
            })
            .collect()
    }

    #[test]
    fn matches_dp_on_the_classic_instance() {
        let items = [
            Item::new(5, 3.0),
            Item::new(4, 5.0),
            Item::new(5, 4.0),
            Item::new(9, 8.0),
        ];
        assert_parity(&items, 0..=30);
    }

    #[test]
    fn all_fit_certificate_fires() {
        let items = [Item::new(2, 1.5), Item::new(3, 2.5)];
        let mut scratch = AdaptiveScratch::new();
        solve(&items, 100, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CertifiedGreedy);
        assert_eq!(scratch.chosen(), &[0, 1]);
        assert_eq!(scratch.core_size(), 0);
        assert_eq!(scratch.items_fixed(), 2);
        assert_eq!(scratch.cells_touched(), 0);
        assert_eq!(scratch.lower_bound, scratch.upper_bound);
        assert_parity(&items, [100]);
    }

    #[test]
    fn zero_profit_and_oversized_items_are_reduced_away() {
        let items = [
            Item::new(100, 1000.0), // oversized at cap 10
            Item::new(2, 1.0),
            Item::new(3, 0.0), // zero profit
        ];
        assert_parity(&items, [0, 1, 2, 5, 10]);
        let mut scratch = AdaptiveScratch::new();
        solve(&items, 10, &mut scratch);
        assert_eq!(scratch.chosen(), &[1]);
    }

    #[test]
    fn free_items_are_taken_even_at_zero_capacity() {
        let items = [Item::new(0, 2.5), Item::new(1, 9.0)];
        let mut scratch = AdaptiveScratch::new();
        let v = solve(&items, 0, &mut scratch);
        assert_eq!(scratch.chosen(), &[0]);
        assert!((v - 2.5).abs() < 1e-12);
        assert_parity(&items, [0, 1, 2]);
    }

    #[test]
    fn empty_and_single_item_instances() {
        assert_parity(&[], [0, 5]);
        assert_parity(&[Item::new(4, 3.0)], 0..=6);
    }

    #[test]
    fn equal_size_ties_keep_the_lower_index() {
        // Two identical items, room for one: the DP keeps index 0.
        let items = [Item::new(2, 5.0), Item::new(2, 5.0)];
        assert_parity(&items, 0..=4);
        let mut scratch = AdaptiveScratch::new();
        solve(&items, 2, &mut scratch);
        assert_eq!(scratch.chosen(), &[0]);
    }

    #[test]
    fn degenerate_profit_scales_fall_back_to_the_full_dp() {
        // The second profit cannot move the running sum in f64.
        let items = [Item::new(1, 1e18), Item::new(1, 1.0)];
        let mut scratch = AdaptiveScratch::new();
        // At capacity 0 both items are oversized and nothing degenerate
        // ever enters the running sum; from capacity 1 the absorbed
        // profit routes the whole instance to the full DP.
        for cap in 1..=2 {
            solve(&items, cap, &mut scratch);
            assert_eq!(scratch.method(), SolveMethod::CoreDp, "cap={cap}");
        }
        assert_parity(&items, 0..=2);
    }

    #[test]
    fn binding_capacity_reduces_and_stays_exact() {
        // Deterministic pseudo-random instance, capacity well below the
        // total size, so fixing and the core DP both engage.
        let mut state = 0x9E3779B97F4A7C15u64;
        let items: Vec<Item> = (0..60)
            .map(|_| {
                let size = 1 + lcg(&mut state) % 12;
                let profit = (lcg(&mut state) % 10_000) as f64 / 997.0;
                Item::new(size, profit)
            })
            .collect();
        let total: u64 = items.iter().map(|i| i.size()).sum();
        assert_parity(&items, [total / 4, total / 3, total / 2, total - 1]);

        let mut scratch = AdaptiveScratch::new();
        solve(&items, total / 3, &mut scratch);
        assert!(
            scratch.items_fixed() > 0,
            "fixing should eliminate items on a random binding instance"
        );
    }

    #[test]
    fn solver_trait_produces_verified_solutions() {
        let inst = Instance::new(vec![
            Item::new(3, 4.0),
            Item::new(4, 5.0),
            Item::new(2, 3.0),
        ])
        .unwrap();
        let sol = AdaptiveSolver.solve(&inst, 6);
        sol.verify(&inst, 6).unwrap();
        assert_eq!(sol.total_size(), 6);
        assert!((sol.total_profit() - 8.0).abs() < 1e-9);
        assert_eq!(AdaptiveSolver.name(), "adaptive");
    }

    #[test]
    fn method_codes_are_stable() {
        // Recorded in `Sample::SolverChosen`; 1 and 3 stay retired.
        assert_eq!(SolveMethod::CertifiedGreedy.code(), 0);
        assert_eq!(SolveMethod::CoreDp.code(), 2);
    }

    /// 40 dense duplicates and 40 sparse duplicates under capacity 30:
    /// the sparse group is certifiably out of every optimum.
    fn dense_and_sparse_duplicates(nudge: f64) -> Vec<Item> {
        let dense = (0..40).map(|i| Item::new(1, 10.0 + i as f64 * nudge));
        let sparse = (0..40).map(|i| Item::new(10, 0.001 + i as f64 * nudge));
        dense.chain(sparse).collect()
    }

    #[test]
    fn tied_instances_prune_certified_outs() {
        // The dense group survives with its ties intact for the DP to
        // resolve.
        let items = dense_and_sparse_duplicates(0.0);
        let mut scratch = AdaptiveScratch::new();
        solve(&items, 30, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CoreDp);
        assert_eq!(scratch.items_fixed(), 40, "sparse duplicates pruned");
        assert_eq!(scratch.core_size(), 40);
        assert_parity(&items, [0, 1, 15, 30, 39, 40, 41, 100]);
    }

    #[test]
    fn a_detied_twin_takes_the_two_sided_reduction() {
        // The same instance with its profits nudged apart (gaps well
        // over the float margin) goes through the same reduce routine
        // with forced-in fixing switched on, which decides every item:
        // ten dense items and the sparse group are forced out, thirty
        // dense items forced in.
        let tied = dense_and_sparse_duplicates(0.0);
        let twin = dense_and_sparse_duplicates(1e-6);
        let mut scratch = AdaptiveScratch::new();
        solve(&twin, 30, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CertifiedGreedy);
        assert_eq!(scratch.items_fixed(), 80);
        assert_eq!(scratch.chosen(), (10..40).collect::<Vec<_>>());
        let twin_lb = scratch.lower_bound;
        solve(&tied, 30, &mut scratch);
        assert!((twin_lb - scratch.lower_bound).abs() < 1e-3);
        assert_parity(&twin, [0, 1, 15, 30, 39, 40, 41, 100]);
    }

    #[test]
    fn tied_instances_nothing_prunes_run_the_full_dp() {
        // Equal densities everywhere: no item is certifiably out, the
        // guard declines to reduce and the full-instance sweep runs.
        let items = [Item::new(2, 5.0); 10];
        let mut scratch = AdaptiveScratch::new();
        solve(&items, 7, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CoreDp);
        assert_eq!(scratch.items_fixed(), 0);
        assert_eq!(scratch.core_size(), 10);
        assert_parity(&items, 0..=21);
    }

    #[test]
    fn tied_instances_with_everything_fitting_take_everything() {
        let items = [Item::new(2, 5.0), Item::new(3, 5.0), Item::new(4, 7.0)];
        let mut scratch = AdaptiveScratch::new();
        solve(&items, 100, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CertifiedGreedy);
        assert_eq!(scratch.chosen(), &[0, 1, 2]);
        assert_parity(&items, [100]);
    }

    /// Solves `n`-item correlated instances at a spread of binding
    /// capacities and returns the largest core swept: every solve ends
    /// in a certificate (an empty core) or the bounded DP over the core,
    /// bit-identical to the full DP.
    fn largest_core_on_correlated_streams(n: usize) -> usize {
        let mut scratch = AdaptiveScratch::new();
        let mut largest = 0;
        for seed in 1..=12 {
            let items = correlated_items(n, seed);
            let total: u64 = items.iter().map(|i| i.size()).sum();
            let caps = [total / 8, total / 5, total / 3, total / 2];
            for cap in caps {
                solve(&items, cap, &mut scratch);
                let what = format!("n {n} seed {seed} cap {cap}");
                match scratch.method() {
                    SolveMethod::CertifiedGreedy => {
                        assert_eq!(scratch.core_size(), 0, "{what}")
                    }
                    SolveMethod::CoreDp => largest = largest.max(scratch.core_size()),
                }
            }
            assert_parity(&items, caps);
        }
        largest
    }

    #[test]
    fn large_untied_cores_at_300_items_take_the_core_dp_and_stay_exact() {
        let largest = largest_core_on_correlated_streams(300);
        assert!(largest > 64, "largest core {largest}");
    }

    #[test]
    fn large_untied_cores_at_600_items_take_the_core_dp_and_stay_exact() {
        let largest = largest_core_on_correlated_streams(600);
        assert!(largest > 64, "largest core {largest}");
    }

    #[test]
    fn sub_margin_profit_gaps_degenerate_to_the_full_core() {
        // Distinct profit bits whose gaps sit far below the float
        // margin: no bound comparison can ever be decisive, so the
        // full-core sweep runs — still bit-identical.
        let items: Vec<Item> = (0..300)
            .map(|i| Item::new(2, 1.0 + i as f64 * 1e-13))
            .collect();
        let mut scratch = AdaptiveScratch::new();
        solve(&items, 151, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CoreDp);
        assert_eq!(scratch.core_size(), 300);
        assert_parity(&items, [31, 151, 320]);
    }

    /// The comparator the density sorts used before the keys: density
    /// descending by `partial_cmp`, then index ascending.
    fn by_density_then_index(density: impl Fn(usize) -> f64) -> impl Fn(usize, usize) -> Ordering {
        move |a, b| {
            density(b)
                .partial_cmp(&density(a))
                .expect("no NaN")
                .then(a.cmp(&b))
        }
    }

    /// `got` is `candidates` (ascending) in the one order the strict
    /// total order `cmp` allows: a permutation of them whose every
    /// adjacent pair `cmp` ranks `Less`.
    fn assert_ordered_by(
        got: &[usize],
        candidates: &[usize],
        cmp: impl Fn(usize, usize) -> Ordering,
        what: &str,
    ) {
        let mut seen = got.to_vec();
        seen.sort_unstable();
        assert_eq!(seen, candidates, "{what}: not a permutation");
        for w in got.windows(2) {
            assert_eq!(cmp(w[0], w[1]), Ordering::Less, "{what}: {w:?}");
        }
    }

    /// Sizes and profits picked to stress the key orders: equal
    /// densities at different sizes, bit-equal profits, subnormal and
    /// near-`f64::MAX` profits, and sizes above 2^53, where `size as
    /// f64` rounds — all mixed into seeded random filler.
    fn awkward_items(seed: u64, n: usize) -> Vec<Item> {
        let special = [
            Item::new(2, 4.0),
            Item::new(1, 2.0),
            Item::new(4, 8.0),
            Item::new(3, 2.0),
            Item::new(3, 2.0),
            Item::new(7, f64::MIN_POSITIVE / 4.0),
            Item::new(7, 5e-324),
            Item::new(3, 5e-324),
            Item::new(5, f64::MAX),
            Item::new(5, f64::MAX / 2.0),
            Item::new(1, f64::MAX),
            Item::new((1 << 53) + 1, 3.0),
            Item::new((1 << 53) + 2, 3.0),
            Item::new((1 << 53) + 3, 3.0000000000000004),
            Item::new(1 << 60, 1e300),
        ];
        let mut state = seed;
        (0..n)
            .map(|_| match lcg(&mut state) % 4 {
                0 => special[lcg(&mut state) as usize % special.len()],
                // Few distinct values: plenty of exact ties.
                1 => Item::new(
                    1 + lcg(&mut state) % 4,
                    (1 + lcg(&mut state) % 6) as f64 * 0.5,
                ),
                _ => Item::new(
                    1 + lcg(&mut state) % 30,
                    (1 + lcg(&mut state) % 100_000) as f64 / 997.0,
                ),
            })
            .collect()
    }

    #[test]
    fn key_orders_match_the_comparator_orders() {
        let mut partial = 0;
        for seed in 1..=40 {
            let items = awkward_items(seed, 30 + seed as usize * 7);
            let nu = items.len();
            let density = |u: usize| items[u].profit() / items[u].size() as f64;

            // The crate's density order (free items sort first).
            let mut with_free = items.clone();
            with_free[nu / 2] = Item::new(0, 1.0);
            with_free[nu / 3] = Item::new(0, 0.0);
            let positive: Vec<usize> = (0..nu).filter(|&i| with_free[i].profit() > 0.0).collect();
            assert_ordered_by(
                &density_order(&with_free),
                &positive,
                by_density_then_index(|i| with_free[i].density()),
                &format!("crate density order, seed {seed}"),
            );

            // The solver's density order, of a reduction at a capacity
            // everything fits, which orders every key.
            let mut scratch = loaded(&items);
            let total: u64 = scratch.usable_size.iter().sum();
            scratch.reduce(total, 0.0, true);
            let got: Vec<usize> = scratch.ord.iter().map(|&u| u as usize).collect();
            assert_ordered_by(
                &got,
                &(0..nu).collect::<Vec<_>>(),
                by_density_then_index(density),
                &format!("density order, seed {seed}"),
            );

            // Under a binding capacity (the items that fit it usable)
            // the reduction orders a prefix of the density order only.
            let filler: u64 = items.iter().map(Item::size).filter(|&s| s <= 30).sum();
            for cap in [filler / 32, filler / 8] {
                let usable: Vec<Item> = items.iter().copied().filter(|i| i.size() <= cap).collect();
                let mut scratch = loaded(&usable);
                scratch.reduce(cap, 0.0, true);
                let density = |u: usize| usable[u].profit() / usable[u].size() as f64;
                let mut kept: Vec<usize> = (0..usable.len()).collect();
                kept.sort_by(|&a, &b| by_density_then_index(density)(a, b));
                let got: Vec<usize> = scratch.ord.iter().map(|&u| u as usize).collect();
                assert_eq!(
                    got,
                    kept[..got.len()],
                    "density prefix, seed {seed} cap {cap}"
                );
                partial += usize::from(got.len() < kept.len());
            }
        }
        assert!(partial > 0, "no binding capacity left the order partial");
    }

    /// `items`, every one usable, classified into a fresh scratch.
    fn loaded(items: &[Item]) -> AdaptiveScratch {
        let mut scratch = AdaptiveScratch::new();
        scratch.usable_idx.extend(0..items.len() as u32);
        scratch.usable_size.extend(items.iter().map(Item::size));
        scratch.usable_profit.extend(items.iter().map(Item::profit));
        scratch.sel.resize(items.len(), false);
        scratch
    }

    /// The reduction alone, as [`AdaptiveSolver::solve_into`] runs it on
    /// `items` (every one usable at `capacity`), with the density order
    /// built lazily or every key ordered up front.
    fn reduced(items: &[Item], capacity: u64, order_all: bool) -> AdaptiveScratch {
        let mut scratch = loaded(items);
        scratch.probe.order_all = order_all;
        let two_sided = !profit_bits_repeat(&scratch.usable_profit, &mut scratch.keys);
        let flat: f64 = scratch.usable_profit.iter().sum();
        let margin = flat * f64::EPSILON * (items.len() as f64 + 4.0) * 8.0;
        scratch.reduce(capacity, margin, two_sided);
        scratch
    }

    #[test]
    fn the_lazy_prefix_reduces_exactly_like_the_full_order() {
        let mut reached = Probe::default();
        for seed in 1..=24u64 {
            // Sizes 1..=8 (the engine round's), 1..=200, 120..=200 (no
            // small item fills the greedy's remainder) and dense 20..=40
            // over sparse 1..=3 (the greedy fills it from past the
            // prefix), tied and continuous profits, capacities a few
            // percent of the total.
            let mut state = seed;
            let n = 400 + (lcg(&mut state) % 800) as usize;
            let shape = seed % 4;
            let tied = (seed / 4) % 2 == 0;
            let items: Vec<Item> = (0..n)
                .map(|_| {
                    let draw = lcg(&mut state);
                    let size = match shape {
                        0 => 1 + draw % 8,
                        1 => 1 + draw % 200,
                        2 => 120 + draw % 81,
                        _ if draw.is_multiple_of(4) => 1 + draw / 4 % 3,
                        _ => 20 + draw % 21,
                    };
                    let profit = if tied {
                        (1 + lcg(&mut state) % 6) as f64 * 0.5
                    } else {
                        (1 + lcg(&mut state) % 1_000_000) as f64 / 997.0
                    };
                    let sparse = if shape == 3 && size <= 3 { 1e-3 } else { 1.0 };
                    Item::new(size, profit * sparse)
                })
                .collect();
            let total: u64 = items.iter().map(Item::size).sum();
            for cap in [total / 100, total / 40, total / 12] {
                let usable: Vec<Item> = items.iter().copied().filter(|i| i.size() <= cap).collect();
                let lazy = reduced(&usable, cap, false);
                let eager = reduced(&usable, cap, true);
                let what = format!("seed {seed} cap {cap}");
                assert_eq!(lazy.state, eager.state, "{what}");
                assert_eq!(lazy.sel, eager.sel, "{what}");
                assert_eq!(lazy.lower_bound.to_bits(), eager.lower_bound.to_bits());
                assert_eq!(lazy.upper_bound.to_bits(), eager.upper_bound.to_bits());
                assert_eq!(lazy.brk, eager.brk, "{what}");
                assert!(eager.ord.starts_with(&lazy.ord), "{what}");
                // K < m: the first rank whose sizes pass the capacity
                // plus the largest size is short of the full order.
                let m = eager.ord.len();
                let s_max = usable.iter().map(Item::size).max().unwrap();
                assert!(eager.ord_psize[m - 1] > cap + s_max, "{what}: K = m");
                reached.class_candidates |= lazy.probe.class_candidates;
                reached.rem_extension |= lazy.probe.rem_extension;
                reached.shared_slot |= lazy.probe.shared_slot;
            }
        }

        // Whole solves of large untied cores, lazy against ordered up
        // front.
        let (mut lazy, mut eager) = (AdaptiveScratch::new(), AdaptiveScratch::new());
        eager.probe.order_all = true;
        for seed in 1..=12 {
            let items = correlated_items(600, seed);
            let total: u64 = items.iter().map(Item::size).sum();
            for cap in [total / 12, total / 8, total / 5] {
                let value = solve(&items, cap, &mut lazy);
                let want = solve(&items, cap, &mut eager);
                assert_eq!(value.to_bits(), want.to_bits(), "seed {seed} cap {cap}");
                assert_eq!(lazy.chosen(), eager.chosen(), "seed {seed} cap {cap}");
                let stats = |s: &AdaptiveScratch| {
                    let counts = (s.core_size(), s.items_fixed(), s.cells_touched());
                    (s.method(), counts)
                };
                assert_eq!(stats(&lazy), stats(&eager), "seed {seed} cap {cap}");
            }
        }

        assert!(reached.class_candidates, "no greedy over class candidates");
        assert!(reached.rem_extension, "no extension for a wide remainder");
        assert!(reached.shared_slot, "no two sizes shared a cache slot");
    }

    /// The plain bisection the hinted search replaced.
    fn bisect_from_scratch(len: usize, cap: u64, prefix_size: impl Fn(usize) -> u64) -> usize {
        let (mut lo, mut hi) = (0usize, len);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if prefix_size(mid) <= cap {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    #[test]
    fn hinted_search_matches_plain_bisection_for_every_hint_and_cap() {
        let mut state = 0xC0FFEE;
        for len in 0..=12usize {
            let sizes: Vec<u64> = (0..len).map(|_| 1 + lcg(&mut state) % 5).collect();
            let mut prefix = vec![0u64];
            for &s in &sizes {
                prefix.push(prefix.last().unwrap() + s);
            }
            let total = prefix[len];
            // The full table, then the table with each rank skipped —
            // the shape `dantzig_excluding` searches, with `skip` on
            // either side of any break.
            let full = |t: usize| prefix[t];
            for cap in 0..=total + 2 {
                let want = bisect_from_scratch(len, cap, full);
                for hint in 0..=len + 2 {
                    let got = largest_fitting_prefix(hint, len, cap, full);
                    assert_eq!(got, want, "len {len} cap {cap} hint {hint}");
                }
            }
            for (skip, skipped) in sizes.iter().enumerate() {
                let without = |t: usize| {
                    if t <= skip {
                        prefix[t]
                    } else {
                        prefix[t + 1] - skipped
                    }
                };
                for cap in 0..=total + 2 {
                    let want = bisect_from_scratch(len - 1, cap, without);
                    for hint in 0..=len + 2 {
                        let got = largest_fitting_prefix(hint, len - 1, cap, without);
                        assert_eq!(got, want, "len {len} skip {skip} cap {cap} hint {hint}");
                    }
                }
            }
        }
    }

    #[test]
    fn engine_scale_tied_reduction_repeats_the_pinned_stats() {
        // The shape of an `engine-massive` round: ~35 000 usable items
        // of size 1..=8, most profits small multiples of 0.5 (bit-equal
        // by the thousand), a Zipf head of larger ones, capacity 1 000.
        // The stats were pinned at the comparator-sorting,
        // cold-bisecting parent commit: any drift in an order, a break
        // rank or a fixing decision moves them.
        let mut state = 35_000;
        let items: Vec<Item> = (0..35_000u64)
            .map(|i| {
                let size = 1 + lcg(&mut state) % 8;
                let clients = 1 + 20_000 / (i + 1) + lcg(&mut state) % 3;
                let warm = lcg(&mut state).is_multiple_of(16);
                let benefit = if warm {
                    0.05 + (lcg(&mut state) % 1000) as f64 / 2500.0
                } else {
                    0.5
                };
                Item::new(size, clients as f64 * benefit)
            })
            .collect();
        let mut scratch = AdaptiveScratch::new();
        let value = solve(&items, 1_000, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CoreDp);
        assert_eq!(scratch.core_size(), 350);
        assert_eq!(scratch.items_fixed(), 34_650);
        assert_eq!(scratch.cells_touched(), 2_423);
        assert_eq!(scratch.chosen().len(), 344);
        assert_eq!(value.to_bits(), 4678582800158382936);
    }

    /// An untied round of `n` items of size `1..=max_size`: Zipf-headed
    /// client counts times a benefit drawn from 2^62 steps, so no two
    /// profits share their bits and the reduction is two-sided.
    fn untied_round(n: u64, max_size: u64, seed: u64) -> Vec<Item> {
        let mut state = seed;
        let items: Vec<Item> = (0..n)
            .map(|i| {
                let size = 1 + lcg(&mut state) % max_size;
                let clients = 1 + 20 * n / (i + 1) + lcg(&mut state) % 3;
                let steps = lcg(&mut state) << 31 | lcg(&mut state);
                let benefit = 0.05 + 0.4 * steps as f64 / (1u64 << 62) as f64;
                Item::new(size, clients as f64 * benefit)
            })
            .collect();
        let profits: Vec<f64> = items.iter().map(Item::profit).collect();
        assert!(!profit_bits_repeat(&profits, &mut Vec::new()), "tied");
        items
    }

    /// The stats the untied tests pin, of one solve of `items` at
    /// `capacity`: method, core, fixed, cells, chosen count, value bits.
    fn untied_stats(items: &[Item], capacity: u64) -> (SolveMethod, usize, usize, u64, usize, u64) {
        let mut scratch = AdaptiveScratch::new();
        let value = solve(items, capacity, &mut scratch);
        (
            scratch.method(),
            scratch.core_size(),
            scratch.items_fixed(),
            scratch.cells_touched(),
            scratch.chosen().len(),
            value.to_bits(),
        )
    }

    #[test]
    fn station_scale_untied_reduction_repeats_the_pinned_stats() {
        // A station round's shape: 500 items of size 1..=20 under an
        // eighth of their total size. The pins are what two-sided
        // fixing decides here (the same with same-size dominance in
        // front of it, as it once was): a weaker rule moves them.
        let items = untied_round(500, 20, 500);
        let total: u64 = items.iter().map(Item::size).sum();
        let stats = untied_stats(&items, total / 8);
        let want = (SolveMethod::CoreDp, 23, 477, 464, 110, 4667464593015493788);
        assert_eq!(stats, want);
    }

    #[test]
    fn engine_scale_untied_reduction_repeats_the_pinned_stats() {
        // The engine round's shape with its profits drawn apart: 35 000
        // items of size 1..=8 under capacity 1 000, pinned as above.
        let items = untied_round(35_000, 8, 35_000);
        let stats = untied_stats(&items, 1_000);
        let want = (
            SolveMethod::CoreDp,
            15,
            34_985,
            109,
            341,
            4698764211502683572,
        );
        assert_eq!(stats, want);
    }
}
