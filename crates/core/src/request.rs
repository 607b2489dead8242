//! Client request batches, aggregated per object.

use std::collections::BTreeMap;

use basecache_net::ObjectId;
use basecache_workload::GeneratedRequest;

/// One scheduling round's worth of client requests.
///
/// The paper's model: "each client requests only one object, but the same
/// object may be requested by multiple clients". A batch therefore maps
/// each requested object to the list of target recencies of the clients
/// requesting it. `BTreeMap` keeps iteration order deterministic.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestBatch {
    per_object: BTreeMap<ObjectId, Vec<f64>>,
    total: usize,
}

impl RequestBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one client request for `object` with the given target recency.
    ///
    /// # Panics
    ///
    /// Panics unless `target_recency ∈ (0, 1]`.
    pub fn push(&mut self, object: ObjectId, target_recency: f64) {
        assert!(
            target_recency > 0.0 && target_recency <= 1.0,
            "target recency must be in (0, 1], got {target_recency}"
        );
        self.per_object
            .entry(object)
            .or_default()
            .push(target_recency);
        self.total += 1;
    }

    /// Build a batch from workload-generated requests.
    pub fn from_generated(requests: &[GeneratedRequest]) -> Self {
        let mut batch = Self::new();
        for r in requests {
            batch.push(r.object, r.target_recency);
        }
        batch
    }

    /// Total number of client requests in the batch.
    pub fn total_requests(&self) -> usize {
        self.total
    }

    /// Number of distinct objects requested.
    pub fn distinct_objects(&self) -> usize {
        self.per_object.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The target recencies of the clients requesting `object`.
    pub fn targets_for(&self, object: ObjectId) -> &[f64] {
        self.per_object
            .get(&object)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Iterate over `(object, targets)` in ascending object order.
    pub fn iter(&self) -> impl Iterator<Item = (ObjectId, &[f64])> {
        self.per_object.iter().map(|(&id, t)| (id, t.as_slice()))
    }

    /// The distinct requested objects, ascending.
    pub fn objects(&self) -> impl Iterator<Item = ObjectId> + '_ {
        self.per_object.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_object() {
        let mut b = RequestBatch::new();
        b.push(ObjectId(2), 1.0);
        b.push(ObjectId(1), 0.5);
        b.push(ObjectId(2), 0.8);
        assert_eq!(b.total_requests(), 3);
        assert_eq!(b.distinct_objects(), 2);
        assert_eq!(b.targets_for(ObjectId(2)), &[1.0, 0.8]);
        assert_eq!(b.targets_for(ObjectId(7)), &[] as &[f64]);
        let objects: Vec<_> = b.objects().collect();
        assert_eq!(
            objects,
            vec![ObjectId(1), ObjectId(2)],
            "deterministic ascending order"
        );
    }

    #[test]
    fn from_generated_preserves_everything() {
        let reqs = vec![
            GeneratedRequest {
                object: ObjectId(0),
                target_recency: 0.9,
            },
            GeneratedRequest {
                object: ObjectId(0),
                target_recency: 0.7,
            },
            GeneratedRequest {
                object: ObjectId(3),
                target_recency: 1.0,
            },
        ];
        let b = RequestBatch::from_generated(&reqs);
        assert_eq!(b.total_requests(), 3);
        assert_eq!(b.targets_for(ObjectId(0)), &[0.9, 0.7]);
    }

    #[test]
    #[should_panic(expected = "target recency")]
    fn rejects_invalid_target() {
        RequestBatch::new().push(ObjectId(0), 1.0001);
    }
}
