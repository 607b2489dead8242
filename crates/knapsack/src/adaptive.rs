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
//!    them is the certified optimum and nothing else runs. Profits
//!    summing to `2^21` or more, past the range where sums on the
//!    profit grid are exact, send the instance to the full DP.
//! 2. **Reduce** — one routine. The ordered density prefix and its
//!    prefix sums, a greedy / best-single-item lower bound, the Dantzig
//!    upper bound, then per-item bound fixing: an item whose "forced in"
//!    bound falls below the lower bound is in no optimum and is fixed
//!    out; one whose "forced out" bound does is in every optimum and is
//!    fixed in (a density order the `f64` keys leave out of order sends
//!    the instance to the full DP instead). An empty core is a
//!    certificate; any other is swept by the bounded DP
//!    ([`DpByCapacity::solve_into`], on the [`DpScratch`] the caller
//!    lends) on the core only.
//!
//! The result is always exact-optimal with the *same canonical
//! tie-breaking as the full-table DP*: the chosen item set, the achieved
//! profit bits and therefore every downstream planner outcome are
//! identical to [`DpByCapacity::solve_into`] on the unreduced instance
//! (see *Canonical optimum*). The reduction counts profit in grid
//! steps, so every bound comparison is decided exactly (*Exact bounds*).
//!
//! **How the order is built.** The reduction's density order (density
//! descending, index ascending) is an order of plain integer keys, not
//! of indices under a comparator: `[!density bits, position]`, with
//! each `profit / size` computed once, in one word buffer. Densities
//! here are finite and sign-positive (a quotient may underflow to
//! `+0.0`), and on such doubles `to_bits()` preserves order with equal
//! values having equal bits, so complemented bits ascending is the value
//! descending; the position makes every key distinct, so an unstable
//! sort or selection has exactly one result.
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
//! (computed once per size) and its `ub_out` the global bound, so it is
//! never fixed in. The
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
//! **Canonical optimum.** Every profit is on the grid of `2^-32`
//! ([`crate::grid_profit`]) and the usable ones sum to less than
//! `2^21`, so every sum of them is exact: each DP cell holds the exact
//! optimum of its subproblem, whatever order it was folded in. The
//! backtrack takes item `i` at capacity `c` when the strict-`>` keep
//! bit says that every optimum over items `≤ i` within `c` contains it,
//! so the chosen set is the optimum that, read from the highest index
//! down, leaves out each item some optimum leaves out — a set the
//! instance's optima alone define. Fixing out an item in no optimum and
//! fixing in one in every optimum leave exactly those optima, less the
//! forced-in items, as the core's at the capacity less their sizes, so
//! the core DP picks the same set, and its value
//! ([`AdaptiveScratch::value`]) is their exact sum. DESIGN.md §15 has
//! the proof sketch.
//!
//! **Exact bounds.** A usable profit is a whole number of grid steps
//! below `2^53`, and so is every sum of them: the reduction holds
//! profits, prefix sums and incumbents as `u64` steps, and each Dantzig
//! bound `A + p·rem/s` as its floor (by `u128` arithmetic), which is
//! below a whole-step incumbent exactly when the bound is. A Dantzig
//! bound is the LP optimum only along the exact density order, and the
//! order is one of `f64` keys, where two densities less than an ulp
//! apart could share a key and go by index. Distinct densities
//! `P₁/s₁ > P₂/s₂` (`P` in steps) differ by at least `1/(s₁·s₂)`, more
//! than the `2^-52·P₁/s₁` one key spans unless `P₁·s₂ ≥ 2^52`, so that
//! takes a profit of `2^20 / s₂` or more; the reduction checks the
//! neighbours that share a key, by their steps cross-multiplied, and
//! sends an order that fails to the full DP (DESIGN.md §15). Sizes are
//! below `2^53`, which any DP table's span is, so they convert exactly.
//!
//! **Left-out certificate.** A caller may hand the solver only part of
//! an instance — the items dense enough to matter — with a bound on the
//! rest ([`LeftOut`]): every left-out item's density is below an edge
//! and its size is one of a list. After the reduction, before any DP,
//! the solver checks each listed size `s ≤ B` with the fixing-out test
//! it applies past its ordered prefix, for the most a left-out item of
//! that size can be worth — the largest grid value below `edge·s`:
//! `most + D(B − s) < lb`, where `D` is the plain Dantzig bound and
//! `lb` its own incumbent, improved by the best single exchange into
//! the units greedy left free (a left-out item could fill them, so no
//! size below the gap passes until an incumbent closes it). Every item
//! it was handed is at least as dense as the edge, and their sizes pass
//! `B`, so the whole instance's Dantzig bound at `B − s` is the handed
//! part's `D(B − s)`, and the test fixes every left-out item of size
//! `s` out exactly as bound fixing would have on the whole instance
//! (whose profits are on the grid too). Items that sit in no optimum leave the
//! optima as they are, and every sum the whole instance's DP forms is a
//! feasible set's value, at most the part's optimum and so exact
//! (*Canonical optimum*): the solve of the part picks the whole
//! instance's set with its value bits. When a size fails the
//! test the solver refuses — no DP runs — and reports the highest edge
//! every size would have passed at ([`AdaptiveScratch::needed_edge`],
//! reported by accepted solves too). A handed part whose usable items
//! all fit, or whose profits sum past the exact range, is refused with
//! an edge of 0.
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
//! does use is what remains. The endgame solved a 64-item window
//! around a large untied core's break item and certified it against
//! the per-item bounds; once tied cores were pruned too it ran 0 window
//! solves per solve on `engine-massive` and `station-inflight`, 0.0003
//! on `cluster-roaming` and 0.021 on `station-paper` (seed 1), where
//! sweeping those cores whole costs 2 % more DP cells (1 670 → 1 707 a
//! round). Same-size dominance dropped an untied item when `⌊B/s⌋`
//! classmates of its size `s` beat it; without it bound fixing reaches
//! the same cores — the traced core, fixed-item and DP-cell counts of
//! all four benchmark workloads (seed 1) and of the four
//! `knapsack/adaptive/*` bench shapes are unchanged — and the traced
//! `station-paper` solve falls from 52 to 37 µs.

use crate::instance::{density_key, grid_profit, EXACT_SUM, GRID_UNITS};
use crate::{DpByCapacity, DpScratch, Instance, Item, Solution, Solver};

/// Most units the greedy incumbent may have left after the ordered
/// prefix and still continue over class candidates; it completes the
/// order past this (at 64 units, at most 280 candidates).
const CANDIDATE_UNITS: usize = 64;

/// Slots of the per-size bound cache the fixing past the ordered prefix
/// reads; size `s` lives in slot `s % SIZE_SLOTS`.
const SIZE_SLOTS: usize = 16;

/// Largest item size the left-out certificate's exchange incumbent
/// ([`AdaptiveScratch::exchange_incumbent`]) moves in or out.
const EXCHANGE_SIZES: usize = 32;

/// What a caller left out of the instance it hands
/// [`AdaptiveSolver::solve_leaving_out`]: a bound on the rest of the
/// whole instance whose optimum it wants. See the module docs,
/// *Left-out certificate*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LeftOut<'a> {
    /// Every left-out item's density (`profit / size`) is below this
    /// edge, exactly: a [`crate::band_edge`], whose five significant
    /// bits keep `edge · size` exact below `2^48` units. An edge of
    /// `0.0` leaves nothing out: no positive-profit item is below it, so
    /// the certificate holds without a test.
    pub edge: f64,
    /// Every size a left-out item may have.
    pub sizes: &'a [u64],
}

impl LeftOut<'_> {
    /// Nothing left out: the handed instance is the whole one.
    pub const NOTHING: LeftOut<'static> = LeftOut {
        edge: 0.0,
        sizes: &[],
    };
}

/// Which terminal strategy produced the last solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SolveMethod {
    /// The bounds met: the greedy/reduction answer is certified optimal
    /// and no DP ran (includes the "every usable item fits" case and
    /// cores emptied entirely by variable fixing).
    #[default]
    CertifiedGreedy,
    /// The bounded DP ran on the reduced core (or, past the range where
    /// the reduction is exact, on the full instance).
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
    /// Profit per usable position, in grid steps.
    usable_profit: Vec<u64>,
    /// Reduction state per usable position.
    state: Vec<State>,
    /// Selection flag per usable position: the greedy incumbent while
    /// reducing, the final selection afterwards.
    sel: Vec<bool>,
    /// The density keys `[density_key, usable position]`: those `ord`
    /// holds first, in order, the unordered rest after them.
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
    /// Prefix sums of profits over `ord` (len `ord.len() + 1`), in grid
    /// steps.
    ord_pprofit: Vec<u64>,
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
    /// The reduction's incumbent, in grid steps.
    lower_bound: u64,
    needed_edge: f64,
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
        // Two words an item, a density key and a position; last, so the
        // buffers above keep the heap layout they had before the keys.
        self.keys.reserve(2 * max_items);
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
    /// variable fixing, every usable item on the full DP, 0 when a
    /// certificate fired.
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

    /// The highest left-out edge the last
    /// [`AdaptiveSolver::solve_leaving_out`] would have certified at
    /// every listed size — the density a refused caller should leave
    /// out below instead, and a hint for the next call of an accepted
    /// one. `0.0` when the solve could not certify anything left out,
    /// `f64::INFINITY` when it listed no usable size.
    pub fn needed_edge(&self) -> f64 {
        self.needed_edge
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
        self.solve_leaving_out(items, capacity, &LeftOut::NOTHING, scratch, dp)
            .expect("an edge of 0 leaves nothing out to refuse")
    }

    /// [`Self::solve_into`] on part of an instance: `items` are the
    /// items the caller kept, `left_out` bounds the rest. When the
    /// reduction certifies that no left-out item sits in an optimum
    /// (module docs, *Left-out certificate*), the solve goes on as
    /// [`Self::solve_into`] and its answer — chosen indices into
    /// `items`, value bits — is the full-table DP's on the whole
    /// instance. Otherwise it returns `None` before any DP has run, and
    /// [`AdaptiveScratch::needed_edge`] holds the edge to leave out
    /// below instead.
    pub fn solve_leaving_out(
        &self,
        items: &[Item],
        capacity: u64,
        left_out: &LeftOut<'_>,
        scratch: &mut AdaptiveScratch,
        dp: &mut DpScratch,
    ) -> Option<f64> {
        // ---- Classify items exactly as the DP does. ------------------
        scratch.usable_idx.clear();
        scratch.usable_size.clear();
        scratch.usable_profit.clear();
        scratch.chosen.clear();
        scratch.cells_touched = 0;

        let mut total_usable: u64 = 0;
        let mut flat = 0.0_f64; // Σ profits the DP takes in, exact below `EXACT_SUM`
        for (i, item) in items.iter().enumerate() {
            let (size, profit) = (item.size(), item.profit());
            debug_assert!(profit.is_finite() && profit >= 0.0, "invalid profit");
            debug_assert_eq!(grid_profit(profit), profit, "profit off the grid");
            if profit <= 0.0 || size > capacity {
                continue;
            }
            flat += profit;
            if size == 0 {
                continue;
            }
            total_usable += size;
            scratch.usable_idx.push(i as u32);
            scratch.usable_size.push(size);
            // In grid steps: exact below `EXACT_SUM`, checked before use.
            scratch.usable_profit.push((profit * GRID_UNITS) as u64);
        }
        scratch.needed_edge = 0.0;
        let nu = scratch.usable_idx.len();
        scratch.sel.clear();
        scratch.sel.resize(nu, false);

        // ---- Reduce where the capacity binds, then certify what was
        // left out, before any DP. --------------------------------------
        // Past the exact range the DP's pick among equal optima depends
        // on its fold order, which only the DP itself reproduces; with a
        // density order that is not exact the bounds are not either.
        let binds = capacity < total_usable;
        let exact = flat < EXACT_SUM && (!binds || scratch.reduce(capacity));
        // Without the reduction's bounds nothing bounds what was left out.
        let certified = exact && binds && scratch.certify_left_out(capacity, left_out);
        if left_out.edge > 0.0 && !certified {
            return None;
        }
        if !exact {
            return Some(scratch.full_dp(items, capacity, dp));
        }
        if !binds {
            // Every usable item fits: all profits are positive, so
            // taking everything is the unique optimum.
            scratch.sel.fill(true);
            return Some(scratch.certify(items));
        }

        // ---- Sweep the core. -----------------------------------------
        let mut forced_size = 0u64;
        scratch.core_items.clear();
        scratch.core_map.clear();
        for u in 0..nu {
            let size = scratch.usable_size[u];
            match scratch.state[u] {
                State::ForcedIn => forced_size += size,
                State::Core => {
                    scratch
                        .core_items
                        .push(items[scratch.usable_idx[u] as usize]);
                    scratch.core_map.push(u as u32);
                }
                State::ForcedOut => {}
            }
        }
        // Forced-in items are in every optimum, so together they fit.
        debug_assert!(forced_size <= capacity, "fixed in more than fits");
        if scratch.core_items.is_empty() {
            scratch.select_state(State::ForcedIn);
            return Some(scratch.certify(items));
        }
        Some(scratch.core_dp(items, capacity - forced_size, dp))
    }
}

impl AdaptiveScratch {
    /// The one reduction routine, run when the capacity binds: the
    /// ordered density prefix and its prefix sums, the greedy /
    /// best-single lower bound, the Dantzig upper bound, then per-item
    /// bound fixing, in both directions, into `state`. Returns `false`,
    /// having fixed nothing, when the density order is not exact
    /// ([`Self::order_is_exact`]).
    fn reduce(&mut self, capacity: u64) -> bool {
        let m = self.usable_idx.len();
        self.state.clear();
        self.state.resize(m, State::Core);

        // Density keys (density desc, index asc; module docs, *How the
        // order is built*), and the total and largest size.
        self.keys.clear();
        let (mut total, mut s_max) = (0u64, 0u64);
        for u in 0..m {
            let size = self.usable_size[u];
            let density = self.usable_profit[u] as f64 / size as f64;
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
        self.ord_pprofit.push(0);
        let stop = capacity.saturating_add(s_max);
        #[cfg(test)]
        let stop = if self.probe.order_all { u64::MAX } else { stop };
        // First block: twice the ranks items of average size would take
        // to pass `stop`.
        let block = 2 * u128::from(stop) * m as u128 / u128::from(total.max(1));
        self.order_until(stop, block.min(m as u128) as usize + 1);
        if !self.order_is_exact() {
            return false;
        }
        let k = self.ord.len();

        // Greedy incumbent (density order, take what fits), then the best
        // single item (the classic 2-approximation fix).
        let mut remaining = capacity;
        let ord = self.ord.iter().map(|&u| u as usize);
        take_what_fits(&self.usable_size, &mut self.sel, &mut remaining, ord);
        if remaining > 0 && k < m {
            self.greedy_past_prefix(remaining);
        }
        let selected = self
            .usable_profit
            .iter()
            .zip(&self.sel)
            .filter(|(_, &sel)| sel);
        let greedy: u64 = selected.map(|(p, _)| p).sum();
        let lb = greedy.max(self.usable_profit.iter().copied().max().unwrap_or(0));
        self.lower_bound = lb;
        self.brk = self.dantzig(0, capacity).0;

        for r in 0..k {
            let u = self.ord[r] as usize;
            let (s_r, p_r) = (self.usable_size[u], self.usable_profit[u]);
            // Upper bounds over the solutions that do (`ub_in`) and do
            // not (`ub_out`) contain item r.
            let ub_in = p_r + self.dantzig_excluding(r, capacity - s_r);
            if ub_in < lb {
                self.state[u] = State::ForcedOut;
            } else if self.dantzig_excluding(r, capacity) < lb {
                self.state[u] = State::ForcedIn;
            }
        }
        // Past the prefix an item's removal leaves the prefix, and every
        // break in it, untouched: `ub_in` is its profit plus the plain
        // Dantzig bound at `capacity - size`, computed once per size
        // (a direct-mapped cache keyed by size; no usable size is 0),
        // and `ub_out` is the global bound, never below the incumbent —
        // so no item past the prefix is fixed in.
        let mut by_size = [(0u64, 0u64); SIZE_SLOTS];
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
            if p + slot.1 < lb {
                self.state[u] = State::ForcedOut;
            }
        }
        true
    }

    /// Whether the ordered prefix is exactly in density order, as every
    /// Dantzig bound needs (module docs, *Exact bounds*): each two
    /// neighbours that share a key, and the last ordered item and each
    /// unordered one that shares its key, are in order by their grid
    /// steps cross-multiplied. Keys of distinct densities below `2^52`
    /// steps times size never tie, so only that range can fail.
    fn order_is_exact(&self) -> bool {
        let (dkeys, _) = self.keys.as_chunks::<2>();
        let k = self.ord.len();
        // Position `u` is at least as dense as position `v`.
        let denser = |u: u64, v: u64| {
            let (u, v) = (u as usize, v as usize);
            u128::from(self.usable_profit[u]) * u128::from(self.usable_size[v])
                >= u128::from(self.usable_profit[v]) * u128::from(self.usable_size[u])
        };
        let mut neighbours = dkeys[..k].windows(2);
        let ordered = neighbours.all(|w| w[0][0] != w[1][0] || denser(w[0][1], w[1][1]));
        // The first unordered key is the least of the rest: only when it
        // ties the last ordered one does the rest hold that key.
        let [last_key, last] = dkeys[k - 1];
        let rest = &dkeys[k..];
        ordered
            && (rest.first().is_none_or(|r| r[0] != last_key)
                || rest
                    .iter()
                    .all(|&[key, u]| key != last_key || denser(last, u)))
    }

    /// The left-out certificate (module docs), run after [`Self::reduce`]
    /// at a binding `capacity`: whether every listed usable size `s`
    /// passes `most + D(capacity − s) < lb`, `most` the largest grid
    /// value below `edge·s`. Leaves in `needed_edge` the highest edge
    /// every size passes at, rounded to the nearest `f64`. The incumbent
    /// `lb` and the bounds are over usable items only — an item larger
    /// than the capacity is in no solution.
    fn certify_left_out(&mut self, capacity: u64, left_out: &LeftOut<'_>) -> bool {
        debug_assert_eq!(left_out.edge.to_bits() << 16, 0, "not a band edge");
        // A size-0 left-out item has no density below an edge, and one
        // larger than the capacity is never usable.
        let sizes = left_out.sizes.iter().filter(|&&s| s != 0 && s <= capacity);
        if sizes.clone().next().is_none() {
            self.needed_edge = f64::INFINITY;
            return true;
        }
        let lb = self.lower_bound.max(self.exchange_incumbent(capacity));
        let mut needed = f64::INFINITY;
        let mut holds = true;
        for &s in sizes {
            let bound = self.dantzig(self.brk, capacity - s).1;
            // The most a left-out item of size `s` is worth: the largest
            // grid value below `edge·s`, which is exact in `f64` — a band
            // edge carries five significant bits and a size fewer than 48.
            let most = ((left_out.edge * s as f64 * GRID_UNITS).ceil() as u64).saturating_sub(1);
            holds &= most.saturating_add(bound) < lb;
            // That holds exactly when `edge·s ≤ lb − bound`.
            let room = lb.saturating_sub(bound) as f64;
            needed = needed.min(room / s as f64 / GRID_UNITS);
        }
        self.needed_edge = needed;
        holds
    }

    /// The greedy incumbent in `sel` improved by its best single
    /// exchange: one selected item out and one unselected item of a
    /// larger size in, filling some of the units greedy left, when that
    /// gains profit. Greedy leaves units no kept item fits, and a
    /// left-out item of that size could fill them: the certificate
    /// cannot pass for sizes below the gap until an incumbent closes
    /// it, and one exchange usually does. Sizes up to
    /// [`EXCHANGE_SIZES`] take part. The value, in grid steps, is a
    /// feasible solution's: greedy's when no exchange gains.
    fn exchange_incumbent(&self, capacity: u64) -> u64 {
        // Per size: the least profitable selected item, the most
        // profitable unselected one.
        let mut worst_in = [u64::MAX; EXCHANGE_SIZES + 1];
        let mut best_out = [0u64; EXCHANGE_SIZES + 1];
        let (mut used, mut greedy) = (0u64, 0u64);
        let usable = self.usable_size.iter().zip(&self.usable_profit);
        for (&selected, (&size, &profit)) in self.sel.iter().zip(usable) {
            let class = usize::try_from(size).map_or(0, |s| s * usize::from(s <= EXCHANGE_SIZES));
            if selected {
                used += size;
                greedy += profit;
                worst_in[class] = worst_in[class].min(profit);
            } else {
                best_out[class] = best_out[class].max(profit);
            }
        }
        let rem = usize::try_from(capacity - used).unwrap_or(usize::MAX);
        let mut gain = 0u64;
        for (out, &worst) in worst_in.iter().enumerate().skip(1) {
            let into = &best_out[out + 1..=EXCHANGE_SIZES.min(out.saturating_add(rem))];
            for &best in into {
                gain = gain.max(best.saturating_sub(worst));
            }
        }
        greedy + gain
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

    /// Full-instance DP for the instances past the range where the
    /// reduction is exact.
    fn full_dp(&mut self, items: &[Item], capacity: u64, dp: &mut DpScratch) -> f64 {
        let value = DpByCapacity.solve_into(items, capacity, dp);
        self.chosen.clear();
        self.chosen.extend_from_slice(dp.chosen());
        self.cells_touched = dp.cells_touched();
        self.value = value;
        self.method = SolveMethod::CoreDp;
        self.core_size = self.usable_idx.len();
        self.items_fixed = 0;
        value
    }

    /// The selection in `sel` is optimal by a bound certificate: no DP
    /// runs and the core is empty.
    fn certify(&mut self, items: &[Item]) -> f64 {
        let value = self.finish(items);
        self.method = SolveMethod::CertifiedGreedy;
        self.core_size = 0;
        self.items_fixed = self.usable_idx.len();
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
    /// density order, rounded down to a grid step, and its break rank,
    /// searched from `hint`. The ordered prefix either holds every item
    /// or has sizes past the capacity, so the break lies inside it.
    fn dantzig(&self, hint: usize, cap: u64) -> (usize, u64) {
        let len = self.ord.len();
        let b = largest_fitting_prefix(hint, len, cap, |t| self.ord_psize[t]);
        let rem = cap - self.ord_psize[b];
        let bound = if b < len && rem > 0 {
            let u = self.ord[b] as usize;
            self.ord_pprofit[b] + share(self.usable_profit[u], rem, self.usable_size[u])
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
    fn dantzig_excluding(&self, skip: usize, cap: u64) -> u64 {
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
        let pex_profit = |t: usize| -> u64 {
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
            pex_profit(b) + share(self.usable_profit[q], rem, self.usable_size[q])
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

/// `⌊profit·rem/size⌋`: a break item's share of a Dantzig bound, in
/// grid steps, rounded down. A bound with it is below a whole-step
/// incumbent exactly when the unrounded bound is.
fn share(profit: u64, rem: u64, size: u64) -> u64 {
    (u128::from(profit) * u128::from(rem) / u128::from(size)) as u64
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
        // Profits past the exact range: the second one cannot even move
        // the first in f64.
        let items = [Item::new(1, 1e18), Item::new(1, 1.0)];
        let mut scratch = AdaptiveScratch::new();
        // At capacity 0 both items are oversized and nothing enters the
        // sum; from capacity 1 it routes the instance to the full DP.
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
        // Tied, the sparse group is fixed out and the dense group, which
        // no bound can split, is left for the DP to pick from.
        let items = dense_and_sparse_duplicates(0.0);
        let mut scratch = AdaptiveScratch::new();
        solve(&items, 30, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CoreDp);
        assert_eq!(scratch.items_fixed(), 40, "sparse duplicates pruned");
        assert_eq!(scratch.core_size(), 40);
        assert_parity(&items, [0, 1, 15, 30, 39, 40, 41, 100]);
        // With its profits nudged apart the same reduction decides every
        // item: ten dense items and the sparse group fixed out, thirty
        // dense items in.
        let twin = dense_and_sparse_duplicates(1e-6);
        solve(&twin, 30, &mut scratch);
        assert_eq!(scratch.method(), SolveMethod::CertifiedGreedy);
        assert_eq!(scratch.items_fixed(), 80);
        assert_eq!(scratch.chosen(), (10..40).collect::<Vec<_>>());
        assert_parity(&twin, [0, 1, 15, 30, 39, 40, 41, 100]);
    }

    #[test]
    fn tied_instances_nothing_prunes_run_the_full_dp() {
        // Equal densities everywhere: no bound fixes an item either way,
        // so the DP sweeps every one and picks the lowest indices.
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
    fn one_grid_step_profit_gaps_are_decided() {
        // Distinct profits one grid step apart: the bounds compare in
        // grid steps, so a gap of one decides every item where the
        // greedy fills the capacity — still bit-identical. (At an odd
        // capacity half an item's profit separates the bounds from the
        // incumbent, and the 300 items stay a core.)
        let step = 1.0 / GRID_UNITS;
        let items: Vec<Item> = (0..300)
            .map(|i| Item::new(2, 1000.0 + i as f64 * step))
            .collect();
        let mut scratch = AdaptiveScratch::new();
        for cap in [30, 150, 320] {
            solve(&items, cap, &mut scratch);
            assert_eq!(scratch.method(), SolveMethod::CertifiedGreedy, "cap {cap}");
            assert_eq!(
                scratch.chosen(),
                (300 - cap as usize / 2..300).collect::<Vec<_>>()
            );
        }
        assert_parity(&items, [30, 31, 150, 151, 320]);
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

    /// Density descending, decided exactly by cross-multiplying grid
    /// steps, then index ascending.
    fn by_exact_density_then_index(items: &[Item]) -> impl Fn(usize, usize) -> Ordering + '_ {
        let steps = |i: usize| u128::from((items[i].profit() * GRID_UNITS) as u64);
        move |a, b| {
            let (size_a, size_b) = (u128::from(items[a].size()), u128::from(items[b].size()));
            (steps(b) * size_a)
                .cmp(&(steps(a) * size_b))
                .then(a.cmp(&b))
        }
    }

    /// Sizes and profits picked to stress the key orders: equal
    /// densities at different sizes, bit-equal profits, profits below
    /// the grid (zero once on it) and near `f64::MAX`, sizes above 2^53,
    /// where `size as f64` rounds, and two densities `1/930` of a grid
    /// step apart at a profit times size just below `2^20`, where
    /// distinct densities come closest to sharing a key — all mixed into
    /// seeded random filler.
    fn awkward_items(seed: u64, n: usize) -> Vec<Item> {
        let step = 1.0 / GRID_UNITS;
        let special = [
            Item::new(31, 31744.0 + step),
            Item::new(30, 30720.0 + step),
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
        let (mut partial, mut shared) = (0, 0);
        for seed in 1..=40 {
            let items = awkward_items(seed, 30 + seed as usize * 7);
            let nu = items.len();

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
            // everything fits, which orders every key, and under binding
            // capacities (the items that fit usable), which order a
            // prefix of it only. On profits summing below 2^21, the
            // range the solver reduces, the order is a prefix of the
            // exact density order exactly when the reduction finds it
            // exact, which it does unless an odd seed's two densities
            // that share a key are both usable.
            let mut items: Vec<Item> = items
                .into_iter()
                .filter(|i| i.profit() < 32768.0 && i.size() <= 31)
                .collect();
            let tie = seed % 2 == 1;
            if tie {
                items.extend(shared_key());
            }
            let total: u64 = items.iter().map(Item::size).sum();
            let filler: u64 = items.iter().map(Item::size).filter(|&s| s <= 30).sum();
            for cap in [total, filler / 32, filler / 8] {
                let usable: Vec<Item> = items.iter().copied().filter(|i| i.size() <= cap).collect();
                let mut scratch = loaded(&usable);
                let exact = scratch.reduce(cap);
                let mut want: Vec<usize> = (0..usable.len()).collect();
                want.sort_by(|&a, &b| by_exact_density_then_index(&usable)(a, b));
                let got: Vec<usize> = scratch.ord.iter().map(|&u| u as usize).collect();
                let what = format!("seed {seed} cap {cap}");
                assert_eq!(exact, got == want[..got.len()], "{what}");
                assert_eq!(exact, !tie || cap < shared_key()[1].size(), "{what}");
                partial += usize::from(exact && got.len() < want.len());
                shared += usize::from(!exact && got.len() < want.len());
            }
        }
        assert!(
            partial > 0,
            "no binding capacity left an exact order partial"
        );
        assert!(
            shared > 0,
            "no binding capacity left an inexact order partial"
        );
    }

    /// Two densities `2/93` of a grid step apart, `2^47 + 1/3` and
    /// `2^47 + 11/31` steps a unit, on one key (its `1/32` of a step
    /// holds both); the sparser one first.
    fn shared_key() -> [Item; 2] {
        let step = 1.0 / GRID_UNITS;
        [
            Item::new(3, 98304.0 + step),
            Item::new(31, 1015808.0 + 11.0 * step),
        ]
    }

    /// `items`, every one usable, classified into a fresh scratch.
    fn loaded(items: &[Item]) -> AdaptiveScratch {
        let mut scratch = AdaptiveScratch::new();
        scratch.usable_idx.extend(0..items.len() as u32);
        scratch.usable_size.extend(items.iter().map(Item::size));
        let steps = items.iter().map(|i| (i.profit() * GRID_UNITS) as u64);
        scratch.usable_profit.extend(steps);
        scratch.sel.resize(items.len(), false);
        scratch
    }

    /// The reduction alone, as [`AdaptiveSolver::solve_into`] runs it on
    /// `items` (every one usable at `capacity`), with the density order
    /// built lazily or every key ordered up front.
    fn reduced(items: &[Item], capacity: u64, order_all: bool) -> AdaptiveScratch {
        let mut scratch = loaded(items);
        scratch.probe.order_all = order_all;
        scratch.reduce(capacity);
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
                assert_eq!(lazy.lower_bound, eager.lower_bound, "{what}");
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
        // The stats pin what the reduction decides on the grid's
        // profits: any drift in an order, a break rank or a fixing
        // decision moves them.
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
        let want = (
            SolveMethod::CoreDp,
            12,
            34_988,
            57,
            344,
            4678582800158382944,
        );
        assert_eq!(solve_stats(&items, 1_000), want);
    }

    /// An untied round of `n` items of size `1..=max_size`: client
    /// counts Zipf-headed at `head` times a benefit drawn from 2^62
    /// steps, so profits rarely share their bits.
    fn untied_round(n: u64, max_size: u64, head: u64, seed: u64) -> Vec<Item> {
        let mut state = seed;
        (0..n)
            .map(|i| {
                let size = 1 + lcg(&mut state) % max_size;
                let clients = 1 + head / (i + 1) + lcg(&mut state) % 3;
                let steps = lcg(&mut state) << 31 | lcg(&mut state);
                let benefit = 0.05 + 0.4 * steps as f64 / (1u64 << 62) as f64;
                Item::new(size, clients as f64 * benefit)
            })
            .collect()
    }

    /// The stats the `*_repeats_the_pinned_stats` tests pin, of one
    /// solve of `items` at `capacity`: method, core, fixed, cells,
    /// chosen count, value bits — the full DP's set and bits.
    fn solve_stats(items: &[Item], capacity: u64) -> (SolveMethod, usize, usize, u64, usize, u64) {
        assert_parity(items, [capacity]);
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
        // eighth of their total size. The pins are what fixing in
        // both directions decides here (the same with same-size dominance in
        // front of it, as it once was): a weaker rule moves them.
        let items = untied_round(500, 20, 10_000, 500);
        let total: u64 = items.iter().map(Item::size).sum();
        let stats = solve_stats(&items, total / 8);
        let want = (SolveMethod::CoreDp, 23, 477, 464, 110, 4667464593015494016);
        assert_eq!(stats, want);
    }

    #[test]
    fn engine_scale_untied_reduction_repeats_the_pinned_stats() {
        // The engine round's shape with its profits drawn apart: 35 000
        // items of size 1..=8 under capacity 1 000, a client head of
        // `engine-massive`'s 500 000 standing requests, pinned as above.
        // (A head of 20 a item, 700 000, would sum the profits past
        // 2^21, where the solve is the full DP.)
        let items = untied_round(35_000, 8, 500_000, 35_000);
        let stats = solve_stats(&items, 1_000);
        let want = (
            SolveMethod::CoreDp,
            15,
            34_985,
            109,
            341,
            4696838181245745180,
        );
        assert_eq!(stats, want);
    }
}
