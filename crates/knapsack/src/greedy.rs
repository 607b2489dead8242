use crate::instance::density_order;
use crate::{Instance, Solution, Solver};

/// Profit-density greedy with the classic 2-approximation guarantee.
///
/// Items are considered in non-increasing `profit/size` order and taken
/// whenever they fit. The returned solution is the better of the greedy
/// packing and the single most profitable item that fits, which guarantees
/// at least half the optimal profit.
///
/// This is the planner a latency-sensitive base station would run when the
/// exact DP (`O(n·C)`) is too expensive for the per-round deadline; the
/// ablation benches compare both.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyDensity;

impl Solver for GreedyDensity {
    fn solve(&self, instance: &Instance, capacity: u64) -> Solution {
        let items = instance.items();
        // Ties broken by index for determinism.
        let order = density_order(items);

        let mut chosen = Vec::new();
        let mut remaining = capacity;
        for &i in &order {
            let size = items[i].size();
            if size <= remaining {
                remaining -= size;
                chosen.push(i);
            }
        }
        let greedy = Solution::from_indices(instance, chosen);

        // Best single item that fits, for the 2-approximation bound.
        let best_single = (0..items.len())
            .filter(|&i| items[i].size() <= capacity && items[i].profit() > 0.0)
            .max_by(|&a, &b| {
                items[a]
                    .profit()
                    .partial_cmp(&items[b].profit())
                    .expect("validated profits are never NaN")
                    .then_with(|| b.cmp(&a))
            });

        match best_single {
            Some(i) => {
                let single = Solution::from_indices(instance, vec![i]);
                if single.total_profit() > greedy.total_profit() {
                    single
                } else {
                    greedy
                }
            }
            None => greedy,
        }
    }

    fn name(&self) -> &'static str {
        "greedy-density"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DpByCapacity, Item};

    #[test]
    fn greedy_is_feasible_and_at_least_half_optimal() {
        let inst = Instance::new(vec![
            Item::new(1, 2.0),
            Item::new(10, 10.0),
            Item::new(10, 9.9),
            Item::new(5, 5.5),
        ])
        .unwrap();
        for cap in 0..=26u64 {
            let g = GreedyDensity.solve(&inst, cap);
            g.verify(&inst, cap).unwrap();
            let opt = DpByCapacity.solve(&inst, cap).total_profit();
            assert!(
                g.total_profit() >= opt / 2.0 - 1e-9,
                "cap={cap}: greedy={} opt={opt}",
                g.total_profit()
            );
        }
    }

    #[test]
    fn best_single_item_rescues_density_trap() {
        // Density greedy alone takes the small dense item (profit 2) and
        // then cannot fit the big item (profit 10). The single-item fix
        // must return the big item.
        let inst = Instance::new(vec![Item::new(1, 2.0), Item::new(10, 10.0)]).unwrap();
        let sol = GreedyDensity.solve(&inst, 10);
        assert_eq!(sol.chosen_indices(), &[1]);
        assert!((sol.total_profit() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_fills_in_density_order() {
        let inst = Instance::new(vec![
            Item::new(2, 1.0), // density 0.5
            Item::new(2, 2.0), // density 1.0
            Item::new(2, 4.0), // density 2.0
        ])
        .unwrap();
        let sol = GreedyDensity.solve(&inst, 4);
        assert_eq!(sol.chosen_indices(), &[1, 2]);
    }

    #[test]
    fn deterministic_on_ties() {
        let inst = Instance::new(vec![Item::new(2, 2.0), Item::new(2, 2.0)]).unwrap();
        let a = GreedyDensity.solve(&inst, 2);
        let b = GreedyDensity.solve(&inst, 2);
        assert_eq!(a, b);
        assert_eq!(a.chosen_indices(), &[0], "lowest index wins ties");
    }
}
