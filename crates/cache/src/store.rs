use basecache_net::{ObjectId, Version};
use basecache_sim::SimTime;

use crate::entry::CacheEntry;
use crate::policy::ReplacementPolicy;
use crate::stats::CacheStats;

/// The base station's object cache.
///
/// Unbounded by default (the paper's Section 2 assumption); give it a
/// size budget and a [`ReplacementPolicy`] to study the bounded-cache
/// regime the paper defers to future work.
///
/// Object ids are catalog-dense ([`ObjectId::index`]), so the store is
/// two flat tables, not a map: one slot per object saying where its copy
/// is, and the copies themselves packed together. A lookup is two
/// indexings; memory is four bytes per object plus an entry per resident
/// copy.
#[derive(Debug)]
pub struct CacheStore {
    /// `slots[i]` is the position in `copies` of `ObjectId(i)`'s copy,
    /// or [`VACANT`].
    slots: Vec<u32>,
    /// The resident copies, in no particular order.
    copies: Vec<CacheEntry>,
    capacity: Option<u64>,
    used: u64,
    policy: Option<Box<dyn ReplacementPolicy + Send>>,
    stats: CacheStats,
}

/// The slot of an object with no resident copy. Past the end of any
/// `copies` table, so looking it up there finds nothing.
const VACANT: u32 = u32::MAX;

impl CacheStore {
    /// An unbounded cache — every inserted object stays resident.
    pub fn unbounded() -> Self {
        Self {
            slots: Vec::new(),
            copies: Vec::new(),
            capacity: None,
            used: 0,
            policy: None,
            stats: CacheStats::default(),
        }
    }

    /// A cache bounded to `capacity` total data units, evicting with
    /// `policy` when an insertion would overflow.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn bounded(capacity: u64, policy: Box<dyn ReplacementPolicy + Send>) -> Self {
        assert!(capacity > 0, "bounded cache capacity must be positive");
        Self {
            slots: Vec::new(),
            copies: Vec::new(),
            capacity: Some(capacity),
            used: 0,
            policy: Some(policy),
            stats: CacheStats::default(),
        }
    }

    /// Size both tables for object ids `0..objects`, once, so no later
    /// insert grows either. A caller that knows its catalog calls this at
    /// construction; without it the tables grow as copies arrive.
    pub fn reserve_objects(&mut self, objects: usize) {
        if objects > self.slots.len() {
            self.slots.resize(objects, VACANT);
        }
        self.copies
            .reserve_exact(objects.saturating_sub(self.copies.len()));
    }

    /// Look up an object, counting a hit or miss and notifying the policy.
    pub fn get(&mut self, id: ObjectId) -> Option<CacheEntry> {
        match self.peek(id) {
            Some(&entry) => {
                self.stats.hits += 1;
                self.stats.units_served += entry.size;
                if let Some(p) = &mut self.policy {
                    p.on_access(id);
                }
                Some(entry)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Inspect an entry without touching statistics or policy state
    /// (used by planners scoring the whole cache).
    #[inline]
    pub fn peek(&self, id: ObjectId) -> Option<&CacheEntry> {
        self.copies.get(*self.slots.get(id.index())? as usize)
    }

    /// Whether a copy of `id` is resident.
    pub fn contains(&self, id: ObjectId) -> bool {
        self.peek(id).is_some()
    }

    /// Insert a freshly downloaded copy, refreshing in place if an entry
    /// already exists (same size) or evicting as needed to fit a new one.
    ///
    /// Returns the entries evicted to make room (empty for unbounded
    /// caches and refreshes). Objects larger than the whole cache are
    /// refused and returned as an error.
    pub fn insert(
        &mut self,
        id: ObjectId,
        size: u64,
        version: Version,
        now: SimTime,
    ) -> Result<Vec<CacheEntry>, CacheEntry> {
        let entry = CacheEntry::new(id, size, version, now);
        let slot = self.slots.get(id.index()).copied().unwrap_or(VACANT);
        if let Some(existing) = self.copies.get_mut(slot as usize) {
            debug_assert_eq!(
                existing.size, size,
                "object size is immutable in the catalog"
            );
            *existing = entry;
            self.stats.refreshes += 1;
            if let Some(p) = &mut self.policy {
                p.on_access(id);
            }
            return Ok(Vec::new());
        }
        if let Some(cap) = self.capacity {
            if size > cap {
                return Err(entry);
            }
        }
        let mut evicted = Vec::new();
        if let Some(cap) = self.capacity {
            while self.used + size > cap {
                let victim = self
                    .policy
                    .as_mut()
                    .and_then(|p| p.victim())
                    .expect("bounded cache over capacity must have a victim");
                let removed = self
                    .take_slot(victim)
                    .expect("policy victims are always resident");
                if let Some(p) = &mut self.policy {
                    p.on_remove(victim);
                }
                self.stats.evictions += 1;
                evicted.push(removed);
            }
        }
        if id.index() >= self.slots.len() {
            self.slots.resize(id.index() + 1, VACANT);
        }
        self.slots[id.index()] =
            u32::try_from(self.copies.len()).expect("at most one copy per u32 object id");
        self.copies.push(entry);
        self.used += size;
        if let Some(p) = &mut self.policy {
            p.on_insert(id, size);
        }
        self.stats.insertions += 1;
        Ok(evicted)
    }

    /// Explicitly drop an entry (e.g. on server invalidation).
    pub fn remove(&mut self, id: ObjectId) -> Option<CacheEntry> {
        let removed = self.take_slot(id)?;
        if let Some(p) = &mut self.policy {
            p.on_remove(id);
        }
        self.stats.removals += 1;
        Some(removed)
    }

    /// Vacate `id`'s slot: its copy leaves `copies`, the last copy
    /// moves into the gap, and the used units stay exact.
    fn take_slot(&mut self, id: ObjectId) -> Option<CacheEntry> {
        let slot = std::mem::replace(self.slots.get_mut(id.index())?, VACANT);
        if slot == VACANT {
            return None;
        }
        let removed = self.copies.swap_remove(slot as usize);
        if let Some(moved) = self.copies.get(slot as usize) {
            self.slots[moved.object.index()] = slot;
        }
        self.used -= removed.size;
        Some(removed)
    }

    /// Supply an external weight for `id` to weight-driven policies.
    pub fn set_weight(&mut self, id: ObjectId, weight: f64) {
        if let Some(p) = &mut self.policy {
            p.set_weight(id, weight);
        }
    }

    /// Data units currently resident.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.copies.len()
    }

    /// Whether the cache is empty.
    /// (The `len` companion clippy's `len_without_is_empty` asks for.)
    pub fn is_empty(&self) -> bool {
        self.copies.is_empty()
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Iterate over resident entries in ascending object-id order.
    pub fn entries(&self) -> impl Iterator<Item = &CacheEntry> {
        self.slots
            .iter()
            .filter_map(|&slot| self.copies.get(slot as usize))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Lru, SizeAware};

    fn o(i: u32) -> ObjectId {
        ObjectId(i)
    }
    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn unbounded_never_evicts() {
        let mut c = CacheStore::unbounded();
        for i in 0..1000 {
            assert!(c.insert(o(i), 10, Version(0), t(0)).unwrap().is_empty());
        }
        assert_eq!(c.len(), 1000);
        assert_eq!(c.used(), 10_000);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn get_counts_hits_and_misses() {
        let mut c = CacheStore::unbounded();
        c.insert(o(0), 5, Version(1), t(2)).unwrap();
        assert!(c.get(o(0)).is_some());
        assert!(c.get(o(1)).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.units_served), (1, 1, 5));
        assert_eq!(c.stats().hit_ratio(), Some(0.5));
    }

    #[test]
    fn refresh_updates_version_in_place() {
        let mut c = CacheStore::unbounded();
        c.insert(o(0), 5, Version(1), t(1)).unwrap();
        c.insert(o(0), 5, Version(3), t(9)).unwrap();
        let e = c.peek(o(0)).unwrap();
        assert_eq!(e.version, Version(3));
        assert_eq!(e.fetched_at, t(9));
        assert_eq!(c.len(), 1);
        assert_eq!(c.used(), 5);
        assert_eq!(c.stats().refreshes, 1);
    }

    #[test]
    fn bounded_cache_evicts_lru_until_fit() {
        let mut c = CacheStore::bounded(10, Box::new(Lru::new()));
        c.insert(o(0), 4, Version(0), t(0)).unwrap();
        c.insert(o(1), 4, Version(0), t(1)).unwrap();
        c.get(o(0)); // o(1) becomes LRU
        let evicted = c.insert(o(2), 6, Version(0), t(2)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].object, o(1));
        assert!(c.contains(o(0)) && c.contains(o(2)));
        assert!(c.used() <= 10);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn bounded_cache_may_evict_multiple() {
        let mut c = CacheStore::bounded(10, Box::new(SizeAware::new()));
        c.insert(o(0), 3, Version(0), t(0)).unwrap();
        c.insert(o(1), 3, Version(0), t(0)).unwrap();
        c.insert(o(2), 3, Version(0), t(0)).unwrap();
        let evicted = c.insert(o(3), 8, Version(0), t(1)).unwrap();
        assert_eq!(evicted.len(), 3, "needs 8 units: evicts 3+3+3");
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn object_larger_than_cache_is_refused() {
        let mut c = CacheStore::bounded(5, Box::new(Lru::new()));
        c.insert(o(0), 3, Version(0), t(0)).unwrap();
        let refused = c.insert(o(1), 6, Version(0), t(1)).unwrap_err();
        assert_eq!(refused.object, o(1));
        assert!(c.contains(o(0)), "refusal must not disturb residents");
    }

    #[test]
    fn remove_frees_space() {
        let mut c = CacheStore::bounded(6, Box::new(Lru::new()));
        c.insert(o(0), 6, Version(0), t(0)).unwrap();
        assert!(c.remove(o(0)).is_some());
        assert!(c.remove(o(0)).is_none());
        assert_eq!(c.used(), 0);
        assert!(c.insert(o(1), 6, Version(0), t(1)).unwrap().is_empty());
        assert_eq!(c.stats().removals, 1);
    }

    #[test]
    fn size_accounting_invariant_under_churn() {
        let mut c = CacheStore::bounded(50, Box::new(Lru::new()));
        for round in 0u32..200 {
            let id = o(round % 23);
            if round % 7 == 3 {
                c.remove(id);
            } else {
                // Size is a deterministic function of the id: the catalog
                // fixes each object's size.
                let _ = c.insert(
                    id,
                    u64::from(id.0 % 9 + 1),
                    Version(u64::from(round)),
                    t(u64::from(round)),
                );
            }
            let recount: u64 = c.entries().map(|e| e.size).sum();
            assert_eq!(recount, c.used(), "round {round}");
            assert_eq!(c.len(), c.entries().count(), "round {round}");
            assert!(c.used() <= 50);
        }
    }

    #[test]
    fn ids_beyond_the_table_are_absent_not_a_panic() {
        // Unsized, sized-but-short, and after an insert grew the table.
        let mut c = CacheStore::unbounded();
        for stage in 0..3 {
            assert!(c.peek(o(90)).is_none(), "stage {stage}");
            assert!(c.get(o(90)).is_none(), "stage {stage}");
            assert!(!c.contains(o(90)), "stage {stage}");
            assert!(c.remove(o(90)).is_none(), "stage {stage}");
            if stage == 0 {
                c.reserve_objects(8);
            } else {
                c.insert(o(20), 1, Version(0), t(0)).unwrap();
            }
        }
        assert_eq!((c.len(), c.stats().misses, c.stats().removals), (1, 3, 0));
    }

    #[test]
    fn reserving_never_shrinks_or_disturbs_residents() {
        let mut c = CacheStore::unbounded();
        c.insert(o(30), 4, Version(2), t(1)).unwrap();
        c.reserve_objects(8);
        c.reserve_objects(100);
        assert_eq!(c.peek(o(30)).map(|e| e.version), Some(Version(2)));
        assert_eq!((c.len(), c.used()), (1, 4));
    }

    #[test]
    fn remove_then_reinsert_keeps_the_counts_exact() {
        let mut c = CacheStore::unbounded();
        c.reserve_objects(4);
        c.insert(o(1), 3, Version(0), t(0)).unwrap();
        c.insert(o(3), 5, Version(0), t(0)).unwrap();
        assert_eq!(c.remove(o(1)).map(|e| e.size), Some(3));
        assert_eq!((c.len(), c.used()), (1, 5));
        // The copy that moved into the gap is still found under its id.
        assert_eq!(c.peek(o(3)).map(|e| (e.object, e.size)), Some((o(3), 5)));
        assert!(!c.is_empty());
        c.insert(o(1), 3, Version(7), t(4)).unwrap();
        assert_eq!((c.len(), c.used()), (2, 8));
        // A fresh slot, not a refresh of the removed copy.
        assert_eq!((c.stats().insertions, c.stats().refreshes), (3, 0));
        assert_eq!(c.peek(o(1)).map(|e| e.version), Some(Version(7)));
        c.remove(o(1));
        c.remove(o(3));
        assert!(c.is_empty());
        assert_eq!(c.used(), 0);
    }

    #[test]
    fn entries_iterate_in_ascending_id_order() {
        let mut c = CacheStore::unbounded();
        for id in [17, 3, 42, 0, 8] {
            c.insert(o(id), 1, Version(0), t(0)).unwrap();
        }
        c.remove(o(8));
        let ids: Vec<u32> = c.entries().map(|e| e.object.0).collect();
        assert_eq!(ids, [0, 3, 17, 42]);
    }

    #[test]
    fn lru_eviction_frees_the_victims_slot() {
        let mut c = CacheStore::bounded(6, Box::new(Lru::new()));
        c.insert(o(5), 3, Version(0), t(0)).unwrap();
        c.insert(o(2), 3, Version(0), t(1)).unwrap();
        let evicted = c.insert(o(9), 3, Version(0), t(2)).unwrap();
        assert_eq!(evicted.len(), 1);
        assert_eq!(evicted[0].object, o(5));
        assert!(c.peek(o(5)).is_none() && !c.contains(o(5)));
        assert_eq!((c.len(), c.used()), (2, 6));
        assert_eq!(c.entries().count(), 2);
        // The freed slot takes a new copy as an insertion, evicting the
        // next-oldest resident in turn.
        let evicted = c.insert(o(5), 3, Version(4), t(3)).unwrap();
        assert_eq!(evicted[0].object, o(2));
        assert_eq!((c.stats().insertions, c.stats().refreshes), (4, 0));
        assert_eq!((c.len(), c.used()), (2, 6));
    }
}
