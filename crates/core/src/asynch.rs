//! The asynchronous background-refresh baseline.
//!
//! The alternative the paper argues against: the base station refreshes
//! its cache in the background, independent of client requests (as in
//! Cho & Garcia-Molina's freshness-synchronization work). Section 3.2
//! implements it as a fixed-order round robin: "At each time interval, if
//! k was the upper bound on the number of objects to download, the next k
//! objects in the fixed order were downloaded and updated in the cache."

use basecache_net::{Catalog, ObjectId};

/// Round-robin cache refresher over a fixed object order.
#[derive(Debug, Clone)]
pub struct AsyncRefresher {
    order: Vec<ObjectId>,
    cursor: usize,
}

impl AsyncRefresher {
    /// Refresh objects in ascending id order (the paper's "fixed order").
    pub fn new(catalog: &Catalog) -> Self {
        Self {
            order: catalog.ids().collect(),
            cursor: 0,
        }
    }

    /// Append the next `k` objects to refresh to `out`, advancing the
    /// cursor (wraps around the fixed order, so the appended run is not
    /// ascending in the round that wraps). `k` larger than the catalog
    /// yields each object at most once per call.
    pub fn next_batch(&mut self, k: usize, out: &mut Vec<ObjectId>) {
        for _ in 0..k.min(self.order.len()) {
            out.push(self.order[self.cursor]);
            self.cursor = (self.cursor + 1) % self.order.len();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog(n: usize) -> Catalog {
        Catalog::uniform_unit(n)
    }

    fn next(r: &mut AsyncRefresher, k: usize) -> Vec<ObjectId> {
        let mut batch = Vec::new();
        r.next_batch(k, &mut batch);
        batch
    }

    #[test]
    fn round_robin_wraps_in_fixed_order() {
        let mut r = AsyncRefresher::new(&catalog(5));
        assert_eq!(next(&mut r, 3), vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
        assert_eq!(next(&mut r, 3), vec![ObjectId(3), ObjectId(4), ObjectId(0)]);
    }

    #[test]
    fn batch_never_exceeds_catalog() {
        let mut r = AsyncRefresher::new(&catalog(3));
        assert_eq!(next(&mut r, 10).len(), 3);
    }

    #[test]
    fn each_object_refreshed_equally_often() {
        let mut r = AsyncRefresher::new(&catalog(7));
        let mut counts = [0u32; 7];
        for _ in 0..70 {
            for id in next(&mut r, 2) {
                counts[id.index()] += 1;
            }
        }
        assert!(counts.iter().all(|&c| c == 20), "{counts:?}");
    }
}
