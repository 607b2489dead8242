//! GreedyDual-Size — the classic web-proxy replacement policy (Cao &
//! Irani), here as the strongest conventional baseline for the
//! bounded-cache experiments.
//!
//! Every resident object carries a credit `H = L + cost/size`, where `L`
//! is a global inflation value. Eviction removes the minimum-`H` object
//! and raises `L` to its credit, so objects that have not been touched
//! recently deflate relative to fresh arrivals; hits restore an object's
//! credit to the current `L + cost/size`. With `cost = 1` ("GDS(1)", the
//! variant implemented here) it prefers evicting large objects, which
//! suits the base station's mix of sizes.

use std::collections::{BTreeSet, HashMap};

use basecache_net::ObjectId;

use crate::policy::ReplacementPolicy;

/// The GreedyDual-Size policy with uniform miss cost.
#[derive(Debug)]
pub struct GreedyDualSize {
    inflation: f64,
    /// Resident objects: id → (credit bits, size).
    by_id: HashMap<ObjectId, (u64, u64)>,
    ordered: BTreeSet<(u64, ObjectId)>,
}

/// Order-preserving bits of a non-negative finite f64.
fn bits(h: f64) -> u64 {
    debug_assert!(h.is_finite() && h >= 0.0);
    h.to_bits()
}

impl GreedyDualSize {
    /// GDS(1): every miss costs 1, so small objects are favoured.
    pub fn uniform() -> Self {
        Self {
            inflation: 0.0,
            by_id: HashMap::new(),
            ordered: BTreeSet::new(),
        }
    }

    fn credit(&self, size: u64) -> f64 {
        self.inflation + 1.0 / size.max(1) as f64
    }

    fn set_credit(&mut self, id: ObjectId, size: u64) {
        let h = bits(self.credit(size));
        if let Some(&(old, _)) = self.by_id.get(&id) {
            self.ordered.remove(&(old, id));
        }
        self.by_id.insert(id, (h, size));
        self.ordered.insert((h, id));
    }
}

impl ReplacementPolicy for GreedyDualSize {
    fn on_insert(&mut self, id: ObjectId, size: u64) {
        self.set_credit(id, size);
    }

    fn on_access(&mut self, id: ObjectId) {
        if let Some(&(_, size)) = self.by_id.get(&id) {
            self.set_credit(id, size);
        }
    }

    fn on_remove(&mut self, id: ObjectId) {
        if let Some((h, _)) = self.by_id.remove(&id) {
            self.ordered.remove(&(h, id));
        }
    }

    fn victim(&mut self) -> Option<ObjectId> {
        let &(h, id) = self.ordered.first()?;
        // Evicting the minimum raises the inflation to its credit.
        self.inflation = f64::from_bits(h);
        Some(id)
    }

    fn name(&self) -> &'static str {
        "gds(1)"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn o(i: u32) -> ObjectId {
        ObjectId(i)
    }

    #[test]
    fn uniform_cost_prefers_evicting_large_objects() {
        let mut p = GreedyDualSize::uniform();
        p.on_insert(o(0), 10); // H = 0.1
        p.on_insert(o(1), 1); // H = 1.0
        p.on_insert(o(2), 2); // H = 0.5
        assert_eq!(p.victim(), Some(o(0)));
    }

    #[test]
    fn access_restores_credit_above_inflation() {
        let mut p = GreedyDualSize::uniform();
        p.on_insert(o(0), 2); // H = 0.5
        p.on_insert(o(1), 2); // H = 0.5
                              // Evict o(0) (tie → lowest id), raising L to 0.5.
        assert_eq!(p.victim(), Some(o(0)));
        p.on_remove(o(0));
        assert!((p.inflation - 0.5).abs() < 1e-12);
        // A new small object now enters at H = 0.5 + 1.0 = 1.5 > o(1)'s.
        p.on_insert(o(2), 1);
        assert_eq!(p.victim(), Some(o(1)));
        // But touching o(1) re-inflates it past the newcomer's credit? No:
        // both recomputed against the same L; o(1) gets 0.5 + 0.5 = 1.0,
        // still below o(2)'s 1.5.
        p.on_access(o(1));
        assert_eq!(p.victim(), Some(o(1)));
    }

    #[test]
    fn removal_is_idempotent() {
        let mut p = GreedyDualSize::uniform();
        p.on_insert(o(0), 1);
        p.on_remove(o(0));
        p.on_remove(o(0));
        assert_eq!(p.victim(), None);
    }

    #[test]
    fn inflation_is_monotone_under_evictions() {
        let mut p = GreedyDualSize::uniform();
        for i in 0..50 {
            p.on_insert(o(i), u64::from(i % 9 + 1));
        }
        let mut last = 0.0;
        for _ in 0..50 {
            let v = p.victim().unwrap();
            assert!(p.inflation >= last);
            last = p.inflation;
            p.on_remove(v);
        }
    }
}
