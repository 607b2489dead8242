//! The capacity DP of [`DpByCapacity`] and the reusable tables it runs on.
//!
//! This file holds the crate's only DP sweeps. [`DpScratch`] owns the
//! `values` and `keep` tables across calls, so a caller that solves a
//! fresh knapsack every scheduling round allocates nothing after the
//! first; [`DpByCapacity::solve_trace`] is the same sweep on tables the
//! returned [`crate::DpTrace`] owns. The sweeps are bounded two ways:
//!
//! * **Prefix-bounded sweeps.** After processing items `0..=i`, the DP
//!   value function is flat above `S_i` (the total size of the usable
//!   items so far), so each item's descending sweep only needs to touch
//!   capacities up to `min(C, S_i)`. The flat frontier is maintained
//!   lazily (one scalar plus an `O(C)` amortized backfill) and the keep
//!   bits above the frontier are represented implicitly per row.
//! * **Suffix-bounded sweeps** ([`DpByCapacity::solve_into`] only). When
//!   a caller wants the solution at a *single* capacity `C`, cells below
//!   `C − T_{i+1}` (with `T_{i+1}` the total size of usable items after
//!   `i`) can never be reached by backtracking from `C`, so the sweep is
//!   bounded from below as well. Near `C ≈ total size` this removes
//!   almost all DP work.
//!
//! Both solves run one row loop, the suffix bound on for the
//! single-capacity solve only, and each row is one kernel, `sweep_row`: a
//! 64-cell keep word at a time, it copies the word's source cells out,
//! stores each cell's larger value unconditionally and writes the
//! word's keep bits once, from a register — straight-line code the
//! compiler vectorizes, bit-identical to the in-place descending cell
//! loop (its docs give the argument).
//!
//! Both are exact. The plain full-table sweep — every row over every
//! capacity, one explicit bit per cell — lives once, as test support in
//! `tests/reference/mod.rs`: [`DpByCapacity::solve_trace_into`] produces
//! its values, recovered item sets and marginal gains bit for bit, and
//! [`DpByCapacity::solve_into`] recovers its item set at the solved
//! capacity (this file's unit tests and `tests/scratch_reuse.rs`).

use crate::{DpByCapacity, Instance, Item, Solution};

/// What the scratch currently holds, which gates the accessors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Nothing solved yet.
    Empty,
    /// Full per-capacity trace: every accessor is valid.
    Trace,
    /// Single-capacity solve: only `value()` and `chosen()` are valid.
    Single,
}

/// How a row's decision bits are stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RowKind {
    /// Item skipped (zero profit or oversized): never kept.
    Skip,
    /// Zero-size positive-profit item: kept at every capacity.
    Always,
    /// Physical bits up to `phys_end`, implicit `c >= flat_from` above.
    Mixed,
}

/// Reusable state for the capacity-indexed knapsack DP.
///
/// Create once (or [`DpScratch::reserve`] once), then feed to
/// [`DpByCapacity::solve_trace_into`] or [`DpByCapacity::solve_into`]
/// every round. After the first call at a given problem shape,
/// subsequent calls perform no heap allocation.
#[derive(Debug, Clone)]
pub struct DpScratch {
    values: Vec<f64>,
    keep: Vec<u64>,
    kind: Vec<RowKind>,
    flat_from: Vec<u64>,
    phys_end: Vec<u64>,
    sizes: Vec<u64>,
    suffix: Vec<u64>,
    chosen: Vec<usize>,
    words: usize,
    n: usize,
    requested: u64,
    effective: u64,
    cells_touched: u64,
    mode: Mode,
}

impl Default for DpScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl DpScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            values: Vec::new(),
            keep: Vec::new(),
            kind: Vec::new(),
            flat_from: Vec::new(),
            phys_end: Vec::new(),
            sizes: Vec::new(),
            suffix: Vec::new(),
            chosen: Vec::new(),
            words: 0,
            n: 0,
            requested: 0,
            effective: 0,
            cells_touched: 0,
            mode: Mode::Empty,
        }
    }

    /// Pre-size every buffer for instances of up to `max_items` items and
    /// effective capacities up to `max_capacity`, so even the first solve
    /// allocates nothing.
    pub fn reserve(&mut self, max_items: usize, max_capacity: u64) {
        let cap = usize::try_from(max_capacity).expect("capacity exceeds addressable memory");
        let words = cap / 64 + 1;
        self.kind.reserve(max_items);
        self.flat_from.reserve(max_items);
        self.phys_end.reserve(max_items);
        self.sizes.reserve(max_items);
        self.suffix.reserve(max_items + 1);
        self.chosen.reserve(max_items);
        // The two tables last, keep bits before values: the order
        // decides which heap holes a planner's build leaves (see
        // `PlannerScratch::reserve` in `basecache-core`).
        self.keep.reserve(max_items.saturating_mul(words));
        self.values.reserve(cap.saturating_add(1));
    }

    /// The capacity the last solve was requested for.
    pub fn capacity(&self) -> u64 {
        self.requested
    }

    /// DP table cells swept by the last solve — the work actually done
    /// after the prefix/suffix bounds pruned the table. Computed
    /// analytically from each row's sweep bounds (one addition per row),
    /// so reading it costs the hot path nothing.
    pub fn cells_touched(&self) -> u64 {
        self.cells_touched
    }

    /// Optimal profit at the solved capacity.
    pub fn value(&self) -> f64 {
        assert!(self.mode != Mode::Empty, "no solve has been run");
        self.values[self.effective as usize]
    }

    /// Optimal profit at capacity `c` (clamped to the effective capacity).
    ///
    /// Requires a preceding [`DpByCapacity::solve_trace_into`].
    pub fn value_at(&self, c: u64) -> f64 {
        assert!(self.mode == Mode::Trace, "value_at requires a trace solve");
        self.values[c.min(self.effective) as usize]
    }

    /// The optimal values for capacities `0..=min(C, total_size)`;
    /// non-decreasing. Requires a trace solve.
    pub fn values(&self) -> &[f64] {
        assert!(self.mode == Mode::Trace, "values requires a trace solve");
        &self.values[..=self.effective as usize]
    }

    /// The chosen item indices (ascending) of the last
    /// [`DpByCapacity::solve_into`].
    pub fn chosen(&self) -> &[usize] {
        assert!(
            self.mode == Mode::Single,
            "chosen requires a single-capacity solve"
        );
        &self.chosen
    }

    /// Recover an optimal item set at capacity `c` into `out` (ascending,
    /// allocation-free given sufficient `out` capacity). Requires a
    /// preceding [`DpByCapacity::solve_trace_into`].
    pub fn solution_indices_at_into(&self, c: u64, out: &mut Vec<usize>) {
        assert!(
            self.mode == Mode::Trace,
            "per-capacity recovery requires a full trace solve"
        );
        out.clear();
        let mut c = c.min(self.effective) as usize;
        for i in (0..self.n).rev() {
            if self.bit(i, c) {
                out.push(i);
                c -= self.sizes[i] as usize;
            }
        }
        out.reverse();
    }

    /// [`Self::solution_indices_at_into`] into the scratch's own index
    /// buffer — the one [`Self::reserve`] sized — for a caller that keeps
    /// none of its own.
    pub fn solution_indices_at(&mut self, c: u64) -> &[usize] {
        let mut out = std::mem::take(&mut self.chosen);
        self.solution_indices_at_into(c, &mut out);
        self.chosen = out;
        &self.chosen
    }

    /// Convenience wrapper building a verified [`Solution`] at capacity
    /// `c` (allocates the solution itself).
    pub fn solution_at(&self, instance: &Instance, c: u64) -> Solution {
        let mut chosen = Vec::new();
        self.solution_indices_at_into(c, &mut chosen);
        Solution::from_indices(instance, chosen)
    }

    /// Marginal gain of each extra capacity unit into `out`:
    /// `out[c] = value_at(c+1) - value_at(c)`. Requires a trace solve.
    pub fn marginal_gains_into(&self, out: &mut Vec<f64>) {
        assert!(
            self.mode == Mode::Trace,
            "marginal gains require a full trace solve"
        );
        out.clear();
        out.extend(self.values().windows(2).map(|w| w[1] - w[0]));
    }

    /// Decision bit for item `i` at remaining capacity `c`.
    #[inline]
    fn bit(&self, i: usize, c: usize) -> bool {
        match self.kind[i] {
            RowKind::Skip => false,
            RowKind::Always => true,
            RowKind::Mixed => {
                if (self.sizes[i] as usize) > c {
                    false
                } else if c > self.phys_end[i] as usize {
                    c as u64 >= self.flat_from[i]
                } else {
                    self.keep[i * self.words + c / 64] >> (c % 64) & 1 == 1
                }
            }
        }
    }

    /// Reset per-solve metadata and size the value/keep tables.
    fn begin(&mut self, n: usize, requested: u64, effective: u64) {
        let eff = usize::try_from(effective).expect("capacity exceeds addressable memory");
        self.words = eff / 64 + 1;
        self.n = n;
        self.requested = requested;
        self.effective = effective;
        self.cells_touched = 0;
        self.values.clear();
        self.values.resize(eff + 1, 0.0);
        // Row words are zeroed lazily per used row; stale content in
        // unused rows is never read (RowKind gates every access).
        self.keep.resize(n * self.words, 0);
        self.kind.clear();
        self.flat_from.clear();
        self.phys_end.clear();
        self.sizes.clear();
    }

    /// The DP's rows over `items` at the effective capacity [`Self::begin`]
    /// set, shared by both solves. With `suffix_bound` (the
    /// single-capacity solve) each row is bounded from below too, by the
    /// cells a backtrack from the effective capacity can reach, read off
    /// `self.suffix`.
    fn sweep_rows(&mut self, items: &[Item], suffix_bound: bool) {
        let effective = self.effective;
        let eff = effective as usize;
        let words = self.words;

        let mut flat = 0.0_f64; // value of the flat region: Σ profit of used items so far
        let mut used_prefix = 0u64; // S_i: total size of used items so far
        let mut w_prev = 0usize; // physical frontier: cells 0..=w_prev are up to date

        for (i, item) in items.iter().enumerate() {
            let size_u = item.size();
            let profit = item.profit();
            self.sizes.push(size_u);
            debug_assert!(profit.is_finite() && profit >= 0.0, "invalid profit");
            if profit <= 0.0 || size_u > effective {
                self.kind.push(RowKind::Skip);
                self.flat_from.push(0);
                self.phys_end.push(0);
                continue;
            }
            if size_u == 0 {
                // Free profit: take at every capacity. Only the physical
                // frontier needs the addition; the flat scalar covers the
                // rest.
                for v in &mut self.values[..=w_prev] {
                    *v += profit;
                }
                flat += profit;
                self.kind.push(RowKind::Always);
                self.flat_from.push(0);
                self.phys_end.push(0);
                continue;
            }

            let size = size_u as usize;
            used_prefix += size_u;
            // Above S_i the value function is flat and (normally) the item
            // is kept at every capacity: `flat + profit > flat`. If profit
            // is too small to move the flat value in f64, fall back to the
            // full-width sweep for this row so bits stay exact.
            let degenerate = flat + profit <= flat;
            let w_new = if degenerate {
                eff
            } else {
                w_prev.max(eff.min(used_prefix as usize))
            };
            // Backfill the frontier cells (w_prev, w_new] with the flat
            // value of the previous level; each cell is backfilled at most
            // once across the whole solve.
            for v in &mut self.values[w_prev + 1..=w_new] {
                *v = flat;
            }
            // Bounded above by the frontier. Without the suffix bound the
            // row starts at `size`, and as `size <= eff` and `size <=
            // used_prefix` it is never empty; with it, backtracking from
            // `effective` can only visit cells >= effective - suffix[i+1].
            let low = if suffix_bound {
                effective.saturating_sub(self.suffix[i + 1]) as usize
            } else {
                0
            };
            let sweep_lo = size.max(low);
            if sweep_lo <= w_new {
                let row = &mut self.keep[i * words..(i + 1) * words];
                sweep_row(&mut self.values, row, size, profit, sweep_lo, w_new);
                self.cells_touched += (w_new - sweep_lo + 1) as u64;
            }
            flat += profit;
            self.kind.push(RowKind::Mixed);
            self.flat_from.push(if degenerate {
                effective + 1
            } else {
                used_prefix
            });
            self.phys_end.push(w_new as u64);
            w_prev = w_new;
        }
        // Cells beyond the final frontier hold the flat optimum.
        for v in &mut self.values[w_prev + 1..=eff] {
            *v = flat;
        }
    }
}

impl DpByCapacity {
    /// The full solution-space trace into reusable scratch: the optimal
    /// value and an optimal item set at every capacity
    /// `0..=min(capacity, total size)`, read back through
    /// [`DpScratch::values`], [`DpScratch::solution_indices_at_into`] and
    /// [`DpScratch::marginal_gains_into`]. No per-call table allocation
    /// after the first use.
    pub fn solve_trace_into(&self, items: &[Item], capacity: u64, scratch: &mut DpScratch) {
        let total: u64 = items.iter().map(|i| i.size()).sum();
        scratch.begin(items.len(), capacity, capacity.min(total));
        scratch.sweep_rows(items, false);
        scratch.mode = Mode::Trace;
    }

    /// Solution-only fast path: the optimal item set and value at a
    /// *single* capacity, with the DP additionally bounded from below by
    /// suffix sizes (cells unreachable by backtracking from `capacity`
    /// are never computed). Recovers the identical item set to
    /// [`DpByCapacity::solve_trace_into`] +
    /// [`DpScratch::solution_indices_at_into`] at `capacity`.
    ///
    /// The chosen indices are left in [`DpScratch::chosen`]; the optimal
    /// value is returned and also available as [`DpScratch::value`].
    pub fn solve_into(&self, items: &[Item], capacity: u64, scratch: &mut DpScratch) -> f64 {
        // Clamp the sweep to the sizes that can actually participate:
        // zero-profit and oversized items never enter the table, so
        // columns beyond the usable total are dead weight when
        // `capacity` exceeds it. Every usable item's size is a term of
        // the sum, so usability is unchanged by the tighter clamp.
        let total: u64 = items
            .iter()
            .filter(|i| i.profit() > 0.0 && i.size() <= capacity)
            .map(|i| i.size())
            .sum();
        let effective = capacity.min(total);
        let eff = usize::try_from(effective).expect("capacity exceeds addressable memory");
        scratch.begin(items.len(), capacity, effective);

        // Suffix sums of usable item sizes: suffix[i] = Σ_{j>=i} size_j
        // over items that participate in the DP.
        scratch.suffix.clear();
        scratch.suffix.resize(items.len() + 1, 0);
        for i in (0..items.len()).rev() {
            let usable = items[i].profit() > 0.0 && items[i].size() <= effective;
            scratch.suffix[i] = scratch.suffix[i + 1] + if usable { items[i].size() } else { 0 };
        }

        scratch.sweep_rows(items, true);

        // Backtrack at the solved capacity only (lower cells were never
        // maintained below their per-row bounds).
        scratch.chosen.clear();
        let mut c = eff;
        for i in (0..scratch.n).rev() {
            if scratch.bit(i, c) {
                scratch.chosen.push(i);
                c -= scratch.sizes[i] as usize;
            }
        }
        scratch.chosen.reverse();
        scratch.mode = Mode::Single;
        scratch.values[eff]
    }
}

/// One item's row of the DP: for every cell `c` in `lo..=hi` (with
/// `size <= lo`), `values[c] = max(values[c], values[c - size] +
/// profit)`, and the row's keep bit of `c` set exactly when the
/// candidate won by strict `>`. Equal to the in-place descending cell
/// loop, one 64-cell keep word at a time:
///
/// * a word's source cells `c - size` are copied out before any of its
///   cells is stored. Every source lies below its cell, so in the
///   descending loop it is read before it is written: the copies are
///   the values that loop reads;
/// * each cell stores the larger of its value and its candidate, taken
///   unconditionally. Where neither wins strictly the two are equal
///   non-negative finite values with the same bits, so the store is the
///   one the loop's conditional store leaves;
/// * the word's keep bits are gathered in a register and written once,
///   bits outside `lo..=hi` clear. Cells below `lo` in the lowest word
///   are never read: a backtrack reads a row only at cells it swept.
///
/// Without a branch on which side won and with no store that a later
/// load might alias, the word's cells compile to straight-line vector
/// code.
#[inline]
fn sweep_row(values: &mut [f64], row: &mut [u64], size: usize, profit: f64, lo: usize, hi: usize) {
    debug_assert!(0 < size && size <= lo && lo <= hi);
    let mut src = [0.0_f64; 64];
    for word in (lo / 64..=hi / 64).rev() {
        let start = (word * 64).max(lo);
        let end = (word * 64 + 63).min(hi);
        let n = end - start + 1;
        let src = &mut src[..n];
        src.copy_from_slice(&values[start - size..=end - size]);
        let dst = &mut values[start..=end];
        let mut bits = 0u64;
        for (j, (cell, &from)) in dst.iter_mut().zip(src.iter()).enumerate() {
            let candidate = from + profit;
            let take = candidate > *cell;
            *cell = if take { candidate } else { *cell };
            bits |= u64::from(take) << j;
        }
        row[word] = bits << (start % 64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn classic() -> Instance {
        Instance::new(vec![
            Item::new(5, 3.0),
            Item::new(4, 5.0),
            Item::new(5, 4.0),
            Item::new(9, 8.0),
        ])
        .unwrap()
    }

    #[test]
    fn trace_into_matches_fresh_trace_on_the_classic_instance() {
        let inst = classic();
        let mut scratch = DpScratch::new();
        for cap in [0u64, 1, 5, 10, 23, 1000] {
            let fresh = reference::solve_trace(&inst, cap);
            DpByCapacity.solve_trace_into(inst.items(), cap, &mut scratch);
            assert_eq!(scratch.values(), fresh.values(), "cap={cap}");
            for c in 0..=cap.min(inst.total_size()) {
                let a = fresh.solution_at(&inst, c);
                let b = scratch.solution_at(&inst, c);
                assert_eq!(a.chosen_indices(), b.chosen_indices(), "cap={cap} c={c}");
            }
        }
    }

    #[test]
    fn solve_into_matches_trace_backtrack() {
        let inst = classic();
        let mut scratch = DpScratch::new();
        for cap in 0..=inst.total_size() + 2 {
            let fresh = reference::solve_trace(&inst, cap).solution_at(&inst, cap);
            let value = DpByCapacity.solve_into(inst.items(), cap, &mut scratch);
            assert_eq!(scratch.chosen(), fresh.chosen_indices(), "cap={cap}");
            assert_eq!(value, fresh.total_profit(), "cap={cap}");
        }
    }

    #[test]
    fn zero_size_and_zero_profit_items_are_handled() {
        let inst = Instance::new(vec![
            Item::new(0, 2.0),
            Item::new(3, 5.0),
            Item::new(1, 0.0),
        ])
        .unwrap();
        let mut scratch = DpScratch::new();
        DpByCapacity.solve_trace_into(inst.items(), 3, &mut scratch);
        assert_eq!(scratch.value_at(0), 2.0);
        assert_eq!(scratch.value_at(3), 7.0);
        assert_eq!(
            scratch.solution_at(&inst, 0).chosen_indices(),
            &[0],
            "free item taken at zero capacity"
        );
        let v = DpByCapacity.solve_into(inst.items(), 0, &mut scratch);
        assert_eq!(v, 2.0);
        assert_eq!(scratch.chosen(), &[0]);
    }

    #[test]
    fn cells_touched_reflects_pruned_work() {
        let inst = classic();
        let mut scratch = DpScratch::new();
        DpByCapacity.solve_trace_into(inst.items(), 23, &mut scratch);
        let trace_cells = scratch.cells_touched();
        assert!(trace_cells > 0);
        // The single-capacity path adds suffix bounds, so it can only do
        // less sweeping than the trace at the same capacity.
        DpByCapacity.solve_into(inst.items(), 23, &mut scratch);
        let single_cells = scratch.cells_touched();
        assert!(single_cells > 0);
        assert!(single_cells <= trace_cells);
        // An empty instance touches nothing and resets the counter.
        DpByCapacity.solve_into(&[], 23, &mut scratch);
        assert_eq!(scratch.cells_touched(), 0);
    }

    #[test]
    fn tiny_profit_fallback_keeps_bits_exact() {
        // The second item's profit cannot move the flat value in f64, which
        // exercises the degenerate full-width fallback row.
        let inst = Instance::new(vec![Item::new(1, 1e18), Item::new(1, 1.0)]).unwrap();
        let mut scratch = DpScratch::new();
        for cap in 0..=2u64 {
            let fresh = reference::solve_trace(&inst, cap);
            DpByCapacity.solve_trace_into(inst.items(), cap, &mut scratch);
            assert_eq!(scratch.values(), fresh.values(), "cap={cap}");
            for c in 0..=cap.min(2) {
                assert_eq!(
                    scratch.solution_at(&inst, c).chosen_indices(),
                    fresh.solution_at(&inst, c).chosen_indices(),
                    "cap={cap} c={c}"
                );
            }
        }
    }
}
