use basecache_sim::metrics::{from_steps, to_steps, STEPS};

use crate::KnapsackError;

/// From this magnitude up one ulp of an `f64` is at least `2^-32`, so
/// every value is on the profit grid.
const GRID_FREE: f64 = (1u64 << 20) as f64;

/// Below this, any sum of profits on the grid is exact in `f64`.
pub(crate) const EXACT_SUM: f64 = (1u64 << 21) as f64;

/// Grid steps ([`STEPS`]) in one unit of profit: a grid profit below
/// [`EXACT_SUM`] times this is an exact integer below `2^53`.
pub(crate) const GRID_UNITS: f64 = STEPS as f64;

/// `profit` rounded to the profit grid, the multiples of `2^-32`
/// (to nearest, ties to even; [`to_steps`]): what [`Item::new`] stores.
/// A sum of such
/// profits below `2^21` needs at most 53 significant bits, so every
/// fold of them below that is exact and equal whatever its order.
/// Values from `2^20` up are already on the grid; a negative or
/// non-finite `profit` is returned as it is, for [`Instance::new`] to
/// reject.
#[inline]
pub fn grid_profit(profit: f64) -> f64 {
    if !(0.0..GRID_FREE).contains(&profit) {
        return profit;
    }
    from_steps(to_steps(profit))
}

/// A single knapsack item.
///
/// In the paper's mapping an item is a requested object: `size` is the
/// object size in data units and `profit` is the sum, over every client
/// requesting the object, of the benefit `1.0 - score(cached copy)` of
/// downloading a fresh copy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    size: u64,
    profit: f64,
}

impl Item {
    /// Create an item, its profit rounded to the grid of `2^-32`
    /// ([`grid_profit`]): sums of profits below `2^21` are then exact,
    /// so the solvers' optima do not depend on the order they fold in.
    /// `profit` is validated lazily by [`Instance::new`].
    #[inline]
    pub fn new(size: u64, profit: f64) -> Self {
        let profit = grid_profit(profit);
        Self { size, profit }
    }

    /// Size in data units.
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Profit (aggregate download benefit); finite and non-negative once
    /// the item is part of a validated [`Instance`].
    #[inline]
    pub fn profit(&self) -> f64 {
        self.profit
    }

    /// Profit per unit of size; `f64::INFINITY` for zero-size items with
    /// positive profit (they are always worth taking).
    #[inline]
    pub fn density(&self) -> f64 {
        if self.size == 0 {
            if self.profit > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.profit / self.size as f64
        }
    }
}

/// Sort key of the crate's one *density order* (density descending,
/// index ascending): sort `(density_key(d), index)` pairs ascending.
///
/// A density here is a positive double, `+0.0` (an underflowed quotient)
/// or `+inf` (a free item). On those `to_bits()` preserves numeric order
/// and equal values have equal bits, so the complemented bits ascend
/// exactly as the densities descend. The index makes every key distinct,
/// so an unstable sort of the pairs is deterministic.
#[inline]
pub(crate) fn density_key(density: f64) -> u64 {
    debug_assert!(density >= 0.0 && density.is_sign_positive());
    !density.to_bits()
}

/// Indices of the positive-profit items in density order.
pub(crate) fn density_order(items: &[Item]) -> Vec<usize> {
    let mut keys: Vec<(u64, usize)> = items
        .iter()
        .enumerate()
        .filter(|(_, item)| item.profit > 0.0)
        .map(|(i, item)| (density_key(item.density()), i))
        .collect();
    keys.sort_unstable();
    keys.into_iter().map(|(_, i)| i).collect()
}

/// A validated set of knapsack items.
///
/// Validation guarantees every profit is finite and non-negative, which is
/// all downstream solvers assume. Item order is preserved: solution indices
/// refer to positions in the original `Vec`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Instance {
    items: Vec<Item>,
}

impl Instance {
    /// Validate and wrap a set of items.
    ///
    /// # Errors
    ///
    /// Returns [`KnapsackError::NonFiniteProfit`] or
    /// [`KnapsackError::NegativeProfit`] for invalid profits.
    pub fn new(items: Vec<Item>) -> Result<Self, KnapsackError> {
        for (index, item) in items.iter().enumerate() {
            if !item.profit.is_finite() {
                return Err(KnapsackError::NonFiniteProfit {
                    index,
                    profit: item.profit,
                });
            }
            if item.profit < 0.0 {
                return Err(KnapsackError::NegativeProfit {
                    index,
                    profit: item.profit,
                });
            }
        }
        Ok(Self { items })
    }

    /// The items, in construction order.
    #[inline]
    pub fn items(&self) -> &[Item] {
        &self.items
    }

    /// Number of items.
    #[inline]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the instance has no items.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Sum of all item sizes — the capacity at which every item fits.
    pub fn total_size(&self) -> u64 {
        self.items.iter().map(|i| i.size).sum()
    }

    /// Sum of all item profits — the value of downloading everything;
    /// `+0.0` for an empty instance, as [`crate::Solution::empty`] reports.
    pub fn total_profit(&self) -> f64 {
        self.items.iter().fold(0.0, |sum, i| sum + i.profit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_nan_profit() {
        let err = Instance::new(vec![Item::new(1, f64::NAN)]).unwrap_err();
        assert!(matches!(
            err,
            KnapsackError::NonFiniteProfit { index: 0, .. }
        ));
    }

    #[test]
    fn rejects_infinite_profit() {
        let err = Instance::new(vec![Item::new(1, 1.0), Item::new(2, f64::INFINITY)]).unwrap_err();
        assert!(matches!(
            err,
            KnapsackError::NonFiniteProfit { index: 1, .. }
        ));
    }

    #[test]
    fn rejects_negative_profit() {
        let err = Instance::new(vec![Item::new(1, -0.5)]).unwrap_err();
        assert!(matches!(
            err,
            KnapsackError::NegativeProfit { index: 0, .. }
        ));
    }

    #[test]
    fn accepts_zero_profit_and_zero_size() {
        let inst = Instance::new(vec![Item::new(0, 0.0), Item::new(0, 1.0)]).unwrap();
        assert_eq!(inst.len(), 2);
        assert_eq!(inst.total_size(), 0);
        assert!((inst.total_profit() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn profits_round_to_the_grid() {
        let grid = 1.0 / (1u64 << 32) as f64;
        // Rounding to nearest, ties to even: `basecache_sim::metrics`.
        assert_eq!(Item::new(1, 1.0 / 3.0).profit(), (grid * 1_431_655_765.0));
        let below = (1u64 << 20) as f64 - 0.1;
        assert_eq!(grid_profit(below) / grid, (below / grid).round_ties_even());
        for kept in [1e6 + 0.125, 2e6, 1e300, f64::MAX, -0.5, f64::INFINITY] {
            assert_eq!(grid_profit(kept), kept);
        }
        assert!(grid_profit(f64::NAN).is_nan());
        // Sums below 2^21 are exact: any fold order gives the same bits.
        let profits: Vec<f64> = (1..=200).map(|i| grid_profit(i as f64 / 7.0)).collect();
        let up: f64 = profits.iter().sum();
        let down: f64 = profits.iter().rev().sum();
        assert_eq!(up.to_bits(), down.to_bits());
    }

    #[test]
    fn density_handles_zero_size() {
        assert_eq!(Item::new(0, 1.0).density(), f64::INFINITY);
        assert_eq!(Item::new(0, 0.0).density(), 0.0);
        assert!((Item::new(4, 2.0).density() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn totals_sum_items() {
        let inst = Instance::new(vec![
            Item::new(3, 1.5),
            Item::new(4, 2.5),
            Item::new(5, 0.0),
        ])
        .unwrap();
        assert_eq!(inst.total_size(), 12);
        assert!((inst.total_profit() - 4.0).abs() < 1e-12);
    }
}
