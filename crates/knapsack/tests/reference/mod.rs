//! The reference capacity DP: the textbook full-table sweep — every
//! item's row swept over every capacity, one explicit keep bit per
//! cell, nothing bounded, nothing implicit. The bounded sweeps in
//! `src/scratch.rs` are pinned bit for bit against it (values, item
//! sets, marginal gains) by that file's unit tests and by
//! `scratch_reuse.rs`. Beside it, the canonical optimum by its
//! definition ([`Subsets`]), which no DP computes. Test support only: no
//! library code calls it.

// Each test binary that includes this module uses its own subset.
#![allow(dead_code)]

use basecache_knapsack::{Instance, Item, Solution};

/// Every subset of a few items, its size and profit summed: the
/// canonical optimum by definition. Exact on the profit grid, where
/// sums below `2^21` are exact, so `>` and `==` compare true values.
pub(crate) struct Subsets {
    /// Per subset, one bit per item: Σ size.
    size: Vec<u64>,
    /// Per subset: Σ profit.
    profit: Vec<f64>,
    items: Vec<Item>,
}

impl Subsets {
    pub(crate) fn new(items: &[Item]) -> Self {
        let n = items.len();
        assert!(n <= 20, "every subset of {n} items");
        let mut size = vec![0u64; 1 << n];
        let mut profit = vec![0.0f64; 1 << n];
        for mask in 1..1usize << n {
            let (i, rest) = (mask.trailing_zeros() as usize, mask & (mask - 1));
            size[mask] = size[rest] + items[i].size();
            profit[mask] = profit[rest] + items[i].profit();
        }
        Self {
            size,
            profit,
            items: items.to_vec(),
        }
    }

    /// The best profit of a subset of the first `i` items (the subsets
    /// below `2^i`) within `capacity`.
    pub(crate) fn best(&self, i: usize, capacity: u64) -> f64 {
        (0..1usize << i)
            .filter(|&m| self.size[m] <= capacity)
            .map(|m| self.profit[m])
            .fold(0.0, f64::max)
    }

    /// How many subsets of all the items are optimal at `capacity`.
    pub(crate) fn optima(&self, capacity: u64) -> usize {
        let best = self.best(self.items.len(), capacity);
        (0..self.size.len())
            .filter(|&m| self.size[m] <= capacity && self.profit[m] == best)
            .count()
    }

    /// The canonical optimum at `capacity`, ascending: scanning from the
    /// highest index down with `c` units left, item `i` is taken exactly
    /// when the best subset of the items below it within `c − sᵢ`, plus
    /// `pᵢ`, beats the best subset of them within `c`.
    pub(crate) fn canonical(&self, capacity: u64) -> Vec<usize> {
        let mut chosen = Vec::new();
        let mut c = capacity;
        for (i, item) in self.items.iter().enumerate().rev() {
            let s = item.size();
            if s <= c && self.best(i, c - s) + item.profit() > self.best(i, c) {
                chosen.push(i);
                c -= s;
            }
        }
        chosen.reverse();
        chosen
    }
}

/// The full table of [`solve_trace`].
pub(crate) struct PlainTrace {
    requested: u64,
    values: Vec<f64>,
    keep: Vec<u64>,
    words: usize,
    sizes: Vec<u64>,
}

/// Sweep the whole `n × (min(capacity, total size) + 1)` table.
pub(crate) fn solve_trace(instance: &Instance, capacity: u64) -> PlainTrace {
    let cap = capacity.min(instance.total_size()) as usize;
    let words = cap / 64 + 1;
    let mut values = vec![0.0_f64; cap + 1];
    let mut keep = vec![0u64; instance.len() * words];

    for (i, item) in instance.items().iter().enumerate() {
        let size = item.size() as usize;
        let profit = item.profit();
        // Zero-profit items never help; oversized items never fit.
        if profit <= 0.0 || size > cap {
            continue;
        }
        let row = &mut keep[i * words..(i + 1) * words];
        if size == 0 {
            // Free profit: take at every capacity.
            for v in values.iter_mut() {
                *v += profit;
            }
            for w in row.iter_mut() {
                *w = u64::MAX;
            }
            continue;
        }
        // In-place descending sweep: values[] holds dp over items 0..i.
        for c in (size..=cap).rev() {
            let candidate = values[c - size] + profit;
            if candidate > values[c] {
                values[c] = candidate;
                row[c / 64] |= 1 << (c % 64);
            }
        }
    }
    PlainTrace {
        requested: capacity,
        values,
        keep,
        words,
        sizes: instance.items().iter().map(|i| i.size()).collect(),
    }
}

impl PlainTrace {
    /// The capacity the trace was requested for.
    pub(crate) fn capacity(&self) -> u64 {
        self.requested
    }

    /// The optimal values for capacities `0..=min(C, total_size)`.
    pub(crate) fn values(&self) -> &[f64] {
        &self.values
    }

    /// An optimal item set at capacity `c` (clamped), by walking the
    /// keep bits backwards through the items.
    pub(crate) fn solution_at(&self, instance: &Instance, c: u64) -> Solution {
        let mut c = (c as usize).min(self.values.len() - 1);
        let mut chosen = Vec::new();
        for i in (0..self.sizes.len()).rev() {
            if self.keep[i * self.words + c / 64] >> (c % 64) & 1 == 1 {
                chosen.push(i);
                c -= self.sizes[i] as usize;
            }
        }
        Solution::from_indices(instance, chosen)
    }

    /// `gains[c] = values[c + 1] - values[c]`.
    pub(crate) fn marginal_gains(&self) -> Vec<f64> {
        self.values.windows(2).map(|w| w[1] - w[0]).collect()
    }
}
