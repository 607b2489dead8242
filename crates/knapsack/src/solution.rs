use crate::{Instance, KnapsackError};

/// A feasible 0/1 knapsack solution: a set of chosen item indices plus
/// cached totals.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    chosen: Vec<usize>,
    total_size: u64,
    total_profit: f64,
}

impl Solution {
    /// Build a solution from chosen indices, computing totals from the
    /// instance. Indices are sorted and deduplication is *not* performed —
    /// duplicates are a solver bug surfaced by [`Solution::verify`].
    pub fn from_indices(instance: &Instance, mut chosen: Vec<usize>) -> Self {
        chosen.sort_unstable();
        let items = instance.items();
        let total_size = chosen.iter().map(|&i| items[i].size()).sum();
        // From `+0.0`: an empty `f64` sum is `-0.0`, not the DP's `0.0`.
        let total_profit = chosen.iter().fold(0.0, |acc, &i| acc + items[i].profit());
        Self {
            chosen,
            total_size,
            total_profit,
        }
    }

    /// The empty solution.
    pub fn empty() -> Self {
        Self {
            chosen: Vec::new(),
            total_size: 0,
            total_profit: 0.0,
        }
    }

    /// Chosen item indices, ascending.
    #[inline]
    pub fn chosen_indices(&self) -> &[usize] {
        &self.chosen
    }

    /// Whether item `index` is part of the solution.
    pub fn contains(&self, index: usize) -> bool {
        self.chosen.binary_search(&index).is_ok()
    }

    /// Total size of chosen items in data units.
    #[inline]
    pub fn total_size(&self) -> u64 {
        self.total_size
    }

    /// Total profit of chosen items.
    #[inline]
    pub fn total_profit(&self) -> f64 {
        self.total_profit
    }

    /// Membership mask over the instance's items (`mask[i]` ⇔ chosen).
    pub fn mask(&self, len: usize) -> Vec<bool> {
        let mut mask = vec![false; len];
        for &i in &self.chosen {
            if i < len {
                mask[i] = true;
            }
        }
        mask
    }

    /// Check feasibility against an instance and capacity: indices in
    /// range, no duplicates, capacity respected, totals consistent.
    pub fn verify(&self, instance: &Instance, capacity: u64) -> Result<(), KnapsackError> {
        let items = instance.items();
        let mut prev: Option<usize> = None;
        for &i in &self.chosen {
            if i >= items.len() {
                return Err(KnapsackError::IndexOutOfRange {
                    index: i,
                    len: items.len(),
                });
            }
            if prev == Some(i) {
                return Err(KnapsackError::DuplicateItem { index: i });
            }
            prev = Some(i);
        }
        let size: u64 = self.chosen.iter().map(|&i| items[i].size()).sum();
        let profit: f64 = self.chosen.iter().map(|&i| items[i].profit()).sum();
        if size != self.total_size {
            return Err(KnapsackError::InconsistentTotals {
                detail: format!("recorded size {} != recomputed {}", self.total_size, size),
            });
        }
        if (profit - self.total_profit).abs() > 1e-6 * profit.abs().max(1.0) {
            return Err(KnapsackError::InconsistentTotals {
                detail: format!(
                    "recorded profit {} != recomputed {}",
                    self.total_profit, profit
                ),
            });
        }
        if size > capacity {
            return Err(KnapsackError::CapacityExceeded {
                total_size: size,
                capacity,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Item;

    fn inst() -> Instance {
        Instance::new(vec![
            Item::new(2, 1.0),
            Item::new(3, 2.0),
            Item::new(4, 3.0),
        ])
        .unwrap()
    }

    #[test]
    fn from_indices_computes_totals() {
        let s = Solution::from_indices(&inst(), vec![2, 0]);
        assert_eq!(s.chosen_indices(), &[0, 2]);
        assert_eq!(s.total_size(), 6);
        assert!((s.total_profit() - 4.0).abs() < 1e-12);
        assert!(s.contains(0) && !s.contains(1) && s.contains(2));
    }

    #[test]
    fn verify_catches_capacity_violation() {
        let s = Solution::from_indices(&inst(), vec![0, 1, 2]);
        assert!(s.verify(&inst(), 9).is_ok());
        assert!(matches!(
            s.verify(&inst(), 8),
            Err(KnapsackError::CapacityExceeded {
                total_size: 9,
                capacity: 8
            })
        ));
    }

    #[test]
    fn verify_catches_out_of_range_and_duplicates() {
        let s = Solution::from_indices(&inst(), vec![1, 1]);
        assert!(matches!(
            s.verify(&inst(), 100),
            Err(KnapsackError::DuplicateItem { index: 1 })
        ));

        // Build a raw out-of-range solution through the mask path.
        let mut bad = Solution::empty();
        bad.chosen = vec![7];
        assert!(matches!(
            bad.verify(&inst(), 100),
            Err(KnapsackError::IndexOutOfRange { index: 7, len: 3 })
        ));
    }

    #[test]
    fn mask_marks_membership() {
        let s = Solution::from_indices(&inst(), vec![1]);
        assert_eq!(s.mask(3), vec![false, true, false]);
    }

    #[test]
    fn empty_solution_is_feasible_everywhere() {
        assert!(Solution::empty().verify(&inst(), 0).is_ok());
    }
}
