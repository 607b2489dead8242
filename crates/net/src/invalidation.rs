//! Invalidation reports (Barbara & Imielinski's "sleepers and
//! workaholics", the paper's reference \[8\]).
//!
//! A server periodically broadcasts which objects changed since its last
//! report. A base station that cannot query per-object versions can
//! still track staleness *exactly* from a complete report stream — and
//! approximately from a lossy one (wireless links drop reports). The
//! estimator experiments measure how report loss degrades the on-demand
//! planner.
//!
//! The module also hosts the regional coherence channel the L2 tier
//! rides: a [`VersionBus`] directory where cells publish the copies
//! they hold and the freshest version wins. A publish of a newer
//! version retires the stale directory entry (the `InvalidatedRemote`
//! lifecycle transition); a publish of an *older* version — a copy that
//! was invalidated while its transfer was on the wire — loses the race
//! and is dropped, so a stale L2 hit can never be served as fresh.

use basecache_sim::SimTime;

use crate::object::{Catalog, ObjectId, Version};

/// One broadcast invalidation report: the objects updated in
/// `(previous report, at]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidationReport {
    /// Broadcast time.
    pub at: SimTime,
    /// Report sequence number (detects gaps after losses).
    pub sequence: u64,
    /// Updated objects, ascending, deduplicated.
    pub updated: Vec<ObjectId>,
    /// How many updates hit each entry of `updated` in the window
    /// (aligned with `updated`).
    pub update_counts: Vec<u64>,
}

/// Server-side log accumulating updates between reports.
#[derive(Debug, Clone)]
pub struct ReportLog {
    pending: Vec<u64>,
    sequence: u64,
}

impl ReportLog {
    /// An empty log for the catalog's objects.
    pub fn new(catalog: &Catalog) -> Self {
        Self {
            pending: vec![0; catalog.len()],
            sequence: 0,
        }
    }

    /// Record a simultaneous wave updating every object.
    pub fn record_wave(&mut self) {
        for count in &mut self.pending {
            *count += 1;
        }
    }

    /// Cut a report covering everything since the previous one, clearing
    /// the log.
    pub fn cut_report(&mut self, now: SimTime) -> InvalidationReport {
        let mut updated = Vec::new();
        let mut update_counts = Vec::new();
        for (i, count) in self.pending.iter_mut().enumerate() {
            if *count > 0 {
                updated.push(ObjectId(i as u32));
                update_counts.push(*count);
                *count = 0;
            }
        }
        self.sequence += 1;
        InvalidationReport {
            at: now,
            sequence: self.sequence,
            updated,
            update_counts,
        }
    }
}

/// Sentinel for "no cell holds a registered copy".
const NO_HOLDER: u32 = u32::MAX;

/// What happened when a copy was published to the [`VersionBus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PublishOutcome {
    /// First registered copy of the object in the region.
    Installed,
    /// The publish carried a fresher version: the previous holder's
    /// stale entry was retired (an `InvalidatedRemote` in lifecycle
    /// terms).
    Invalidated {
        /// Cell whose directory entry was retired.
        previous_holder: u32,
        /// Version the retired entry held.
        previous_version: Version,
    },
    /// The exact `(object, version)` was already registered; the
    /// directory keeps its current holder.
    Duplicate {
        /// Cell already registered for this version.
        holder: u32,
    },
    /// The published copy is *older* than the directory's — it was
    /// invalidated while in flight and lost the race. The directory is
    /// untouched; the publisher must treat its copy as stale.
    Stale {
        /// Version the directory currently holds.
        current: Version,
    },
}

/// The regional version directory: maps each object to the freshest
/// `(version, holder)` any cell has registered.
///
/// Monotonicity is the load-bearing guarantee: the registered version
/// of an object never decreases, so a lookup can trust that whatever it
/// returns was the freshest published copy at that instant — stale
/// publishes (copies invalidated mid-flight) are rejected with
/// [`PublishOutcome::Stale`] instead of clobbering the directory.
#[derive(Debug, Clone)]
pub struct VersionBus {
    versions: Vec<Version>,
    holders: Vec<u32>,
    sequence: u64,
    invalidations: u64,
}

impl VersionBus {
    /// An empty directory for the catalog's objects.
    pub fn new(catalog: &Catalog) -> Self {
        Self {
            versions: vec![Version(0); catalog.len()],
            holders: vec![NO_HOLDER; catalog.len()],
            sequence: 0,
            invalidations: 0,
        }
    }

    /// Register `holder`'s copy of `object` at `version`. The freshest
    /// version wins; see [`PublishOutcome`] for the race semantics.
    pub fn publish(&mut self, object: ObjectId, version: Version, holder: u32) -> PublishOutcome {
        let i = object.index();
        let current_holder = self.holders[i];
        let current = self.versions[i];
        if current_holder != NO_HOLDER {
            if version < current {
                return PublishOutcome::Stale { current };
            }
            if version == current {
                return PublishOutcome::Duplicate {
                    holder: current_holder,
                };
            }
        }
        let outcome = if current_holder == NO_HOLDER {
            PublishOutcome::Installed
        } else {
            self.invalidations += 1;
            PublishOutcome::Invalidated {
                previous_holder: current_holder,
                previous_version: current,
            }
        };
        self.versions[i] = version;
        self.holders[i] = holder;
        self.sequence += 1;
        outcome
    }

    /// The freshest registered copy of `object`, if any cell holds one.
    pub fn lookup(&self, object: ObjectId) -> Option<(Version, u32)> {
        let i = object.index();
        (self.holders[i] != NO_HOLDER).then(|| (self.versions[i], self.holders[i]))
    }

    /// Whether `(object, version)` is exactly what the directory holds —
    /// the "may I join the regional copy?" question.
    pub fn holds(&self, object: ObjectId, version: Version) -> bool {
        self.lookup(object).is_some_and(|(v, _)| v == version)
    }

    /// Publishes that changed the directory so far (installs plus
    /// invalidations).
    pub fn sequence(&self) -> u64 {
        self.sequence
    }

    /// Stale directory entries retired by fresher publishes.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        Catalog::uniform_unit(5)
    }

    #[test]
    fn report_covers_and_clears_pending_updates() {
        let mut log = ReportLog::new(&catalog());
        log.record_wave();
        let report = log.cut_report(SimTime::from_ticks(10));
        assert_eq!(report.sequence, 1);
        assert_eq!(report.updated, catalog().ids().collect::<Vec<_>>());
        assert_eq!(report.update_counts, vec![1; 5]);
        let empty = log.cut_report(SimTime::from_ticks(20));
        assert_eq!(empty.sequence, 2);
        assert!(empty.updated.is_empty());
    }

    #[test]
    fn waves_hit_every_object() {
        let mut log = ReportLog::new(&catalog());
        log.record_wave();
        log.record_wave();
        let report = log.cut_report(SimTime::from_ticks(5));
        assert_eq!(report.updated.len(), 5);
        assert!(report.update_counts.iter().all(|&c| c == 2));
    }

    #[test]
    fn sequence_numbers_expose_gaps() {
        let mut log = ReportLog::new(&catalog());
        let a = log.cut_report(SimTime::from_ticks(1));
        let b = log.cut_report(SimTime::from_ticks(2));
        let c = log.cut_report(SimTime::from_ticks(3));
        assert_eq!((a.sequence, b.sequence, c.sequence), (1, 2, 3));
    }

    #[test]
    fn bus_registers_and_looks_up_the_freshest_copy() {
        let mut bus = VersionBus::new(&catalog());
        assert_eq!(bus.lookup(ObjectId(0)), None);
        assert_eq!(
            bus.publish(ObjectId(0), Version(1), 2),
            PublishOutcome::Installed
        );
        assert_eq!(bus.lookup(ObjectId(0)), Some((Version(1), 2)));
        assert!(bus.holds(ObjectId(0), Version(1)));
        assert!(!bus.holds(ObjectId(0), Version(2)));
    }

    #[test]
    fn fresher_publish_invalidates_the_stale_entry() {
        let mut bus = VersionBus::new(&catalog());
        bus.publish(ObjectId(3), Version(1), 0);
        assert_eq!(
            bus.publish(ObjectId(3), Version(4), 1),
            PublishOutcome::Invalidated {
                previous_holder: 0,
                previous_version: Version(1),
            }
        );
        assert_eq!(bus.lookup(ObjectId(3)), Some((Version(4), 1)));
        assert_eq!(bus.invalidations(), 1);
    }

    #[test]
    fn stale_publish_loses_the_race_and_leaves_the_directory_alone() {
        let mut bus = VersionBus::new(&catalog());
        bus.publish(ObjectId(2), Version(5), 0);
        assert_eq!(
            bus.publish(ObjectId(2), Version(3), 1),
            PublishOutcome::Stale {
                current: Version(5)
            }
        );
        assert_eq!(bus.lookup(ObjectId(2)), Some((Version(5), 0)));
        assert_eq!(bus.invalidations(), 0, "a lost race is not a retire");
    }

    #[test]
    fn duplicate_publish_keeps_the_first_holder() {
        let mut bus = VersionBus::new(&catalog());
        bus.publish(ObjectId(1), Version(2), 0);
        assert_eq!(
            bus.publish(ObjectId(1), Version(2), 3),
            PublishOutcome::Duplicate { holder: 0 }
        );
        assert_eq!(bus.lookup(ObjectId(1)), Some((Version(2), 0)));
    }
}
