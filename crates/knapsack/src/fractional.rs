use crate::instance::density_order;
use crate::Instance;

/// The optimum of the fractional (LP) relaxation, where at most one item
/// is split.
#[derive(Debug, Clone, PartialEq)]
pub struct FractionalSolution {
    /// Items taken whole, by index.
    pub whole: Vec<usize>,
    /// The split item, if any: `(index, fraction in (0,1))`.
    pub split: Option<(usize, f64)>,
    /// Optimal fractional profit — an upper bound on the 0/1 optimum.
    pub profit: f64,
}

/// Solve the fractional knapsack relaxation exactly (greedy by density,
/// splitting the first item that does not fit).
///
/// The returned profit is a valid upper bound on the 0/1 optimum; it is
/// the fluid bound in `basecache-analytic` and an oracle in property
/// tests.
pub fn fractional_upper_bound(instance: &Instance, capacity: u64) -> FractionalSolution {
    let items = instance.items();
    let order = density_order(items);

    let mut whole = Vec::new();
    let mut split = None;
    let mut profit = 0.0;
    let mut remaining = capacity;
    for &i in &order {
        let size = items[i].size();
        if size <= remaining {
            remaining -= size;
            profit += items[i].profit();
            whole.push(i);
        } else if remaining > 0 {
            let fraction = remaining as f64 / size as f64;
            profit += items[i].profit() * fraction;
            split = Some((i, fraction));
            break;
        } else {
            break;
        }
    }
    whole.sort_unstable();
    FractionalSolution {
        whole,
        split,
        profit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpByCapacity, Item, Solver};

    #[test]
    fn splits_exactly_one_item() {
        let inst = Instance::new(vec![
            Item::new(10, 60.0),
            Item::new(20, 100.0),
            Item::new(30, 120.0),
        ])
        .unwrap();
        let f = fractional_upper_bound(&inst, 50);
        // Classic CLRS example: take items 0 and 1 whole, 2/3 of item 2.
        assert_eq!(f.whole, vec![0, 1]);
        let (idx, frac) = f.split.unwrap();
        assert_eq!(idx, 2);
        assert!((frac - 2.0 / 3.0).abs() < 1e-9);
        assert!((f.profit - 240.0).abs() < 1e-9);
    }

    #[test]
    fn upper_bounds_the_integral_optimum() {
        let inst = Instance::new(vec![
            Item::new(3, 4.0),
            Item::new(4, 5.0),
            Item::new(2, 3.0),
            Item::new(7, 9.0),
        ])
        .unwrap();
        for cap in 0..=16u64 {
            let frac = fractional_upper_bound(&inst, cap).profit;
            let int = DpByCapacity.solve(&inst, cap).total_profit();
            assert!(frac >= int - 1e-9, "cap={cap}: frac={frac} < int={int}");
        }
    }

    #[test]
    fn no_split_when_everything_fits() {
        let inst = Instance::new(vec![Item::new(1, 1.0), Item::new(2, 2.0)]).unwrap();
        let f = fractional_upper_bound(&inst, 10);
        assert_eq!(f.whole, vec![0, 1]);
        assert!(f.split.is_none());
        assert!((f.profit - 3.0).abs() < 1e-12);
    }

    #[test]
    fn zero_capacity_gives_zero_profit_unless_free_items() {
        let inst = Instance::new(vec![Item::new(4, 9.0), Item::new(0, 1.0)]).unwrap();
        let f = fractional_upper_bound(&inst, 0);
        assert_eq!(f.whole, vec![1], "zero-size item has infinite density");
        assert!((f.profit - 1.0).abs() < 1e-12);
    }
}
