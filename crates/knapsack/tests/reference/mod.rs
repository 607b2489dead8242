//! The reference capacity DP: the textbook full-table sweep — every
//! item's row swept over every capacity, one explicit keep bit per
//! cell, nothing bounded, nothing implicit. The bounded sweeps in
//! `src/scratch.rs` are pinned bit for bit against it (values, item
//! sets, marginal gains) by that file's unit tests and by
//! `scratch_reuse.rs`. Test support only: no library code calls it.

use basecache_knapsack::{Instance, Solution};

/// The full table of [`solve_trace`].
pub struct PlainTrace {
    requested: u64,
    values: Vec<f64>,
    keep: Vec<u64>,
    words: usize,
    sizes: Vec<u64>,
}

/// Sweep the whole `n × (min(capacity, total size) + 1)` table.
pub fn solve_trace(instance: &Instance, capacity: u64) -> PlainTrace {
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

// Each test binary that includes this module uses its own subset.
#[allow(dead_code)]
impl PlainTrace {
    /// The capacity the trace was requested for.
    pub fn capacity(&self) -> u64 {
        self.requested
    }

    /// The optimal values for capacities `0..=min(C, total_size)`.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// An optimal item set at capacity `c` (clamped), by walking the
    /// keep bits backwards through the items.
    pub fn solution_at(&self, instance: &Instance, c: u64) -> Solution {
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
    pub fn marginal_gains(&self) -> Vec<f64> {
        self.values.windows(2).map(|w| w[1] - w[0]).collect()
    }
}
