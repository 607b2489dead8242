//! Remote servers: versioned object stores and update processes.
//!
//! Servers in the paper's model are passive ("pull-based"): they never
//! push data, they just answer downloads with the newest version. What
//! matters for the analyses is *when objects update*, which is what
//! [`UpdateProcess`] models.
//!
//! A server also remembers *which* objects changed since it was last
//! asked (a [`ChangeSet`]), so a station can refresh what it derives
//! from versions per change instead of per object.

use basecache_sim::{SimDuration, SimTime, StreamRng};

use crate::object::{Catalog, ObjectId, Version};

/// How the objects at a remote server are updated over time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateProcess {
    /// Every object updates simultaneously once per `period` — the paper's
    /// Section 3 setting ("all objects are updated simultaneously, once
    /// every 5 time units ... updates occur at time 0, 5, 10, etc.").
    PeriodicSimultaneous {
        /// Interval between update waves.
        period: SimDuration,
    },
    /// Each object updates once per `period`, with object `i` offset by
    /// `i * stride` ticks (mod `period`). This de-synchronizes the update
    /// waves while keeping every object's rate identical.
    PeriodicStaggered {
        /// Interval between an object's successive updates.
        period: SimDuration,
        /// Per-object phase offset stride in ticks.
        stride: u64,
    },
    /// Each object updates according to an independent Poisson process
    /// with the given mean interval in ticks (exponential gaps).
    Poisson {
        /// Mean ticks between an object's successive updates.
        mean_interval: f64,
    },
}

impl UpdateProcess {
    /// The first update time of `object` strictly after `now`.
    ///
    /// For the Poisson process this draws from `rng`, so the caller must
    /// use a dedicated, per-object RNG stream for reproducibility.
    pub fn next_update_after(
        &self,
        object: ObjectId,
        now: SimTime,
        rng: &mut StreamRng,
    ) -> SimTime {
        match *self {
            UpdateProcess::PeriodicSimultaneous { period } => {
                next_periodic(now.ticks(), period.ticks(), 0)
            }
            UpdateProcess::PeriodicStaggered { period, stride } => {
                let offset = (object.index() as u64).wrapping_mul(stride) % period.ticks().max(1);
                next_periodic(now.ticks(), period.ticks(), offset)
            }
            UpdateProcess::Poisson { mean_interval } => {
                assert!(
                    mean_interval > 0.0,
                    "Poisson mean interval must be positive"
                );
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let gap = (-u.ln() * mean_interval).ceil().max(1.0) as u64;
                SimTime::from_ticks(now.ticks() + gap)
            }
        }
    }
}

/// Next time strictly after `now` congruent to `offset` mod `period`.
fn next_periodic(now: u64, period: u64, offset: u64) -> SimTime {
    assert!(period > 0, "update period must be positive");
    let rem = (now + period - offset % period) % period;
    let gap = period - rem;
    SimTime::from_ticks(now + gap)
}

/// The objects that changed since the set was last cleared, in the
/// order noted — or "everything", a flag that replaces listing every
/// object. The list is sized for one note per catalog object when the
/// set is built, so noting never allocates: a note past that turns the
/// set into "everything". An object noted twice is listed twice; a
/// reader that recomputes per listed object pays one more look for it
/// and gets the same result.
#[derive(Debug, Clone)]
pub struct ChangeSet {
    objects: Vec<ObjectId>,
    everything: bool,
}

impl ChangeSet {
    /// A set over `objects` objects that starts as "everything changed":
    /// whoever reads it first has seen nothing yet.
    pub fn everything(objects: usize) -> Self {
        Self {
            objects: Vec::with_capacity(objects),
            everything: true,
        }
    }

    /// Note that `object` changed. O(1), and a no-op once everything
    /// has changed.
    #[inline]
    pub fn note(&mut self, object: ObjectId) {
        if !self.everything {
            if self.objects.len() < self.objects.capacity() {
                self.objects.push(object);
            } else {
                self.everything = true;
            }
        }
    }

    /// Note that every object changed.
    pub fn note_everything(&mut self) {
        self.everything = true;
    }

    /// The changed objects in the order noted; `None` when every object
    /// changed.
    pub fn listed(&self) -> Option<&[ObjectId]> {
        (!self.everything).then_some(&self.objects)
    }

    /// Note everything `self` holds into `into`, then clear `self`.
    pub fn drain_into(&mut self, into: &mut ChangeSet) {
        let room = into.objects.capacity() - into.objects.len();
        if self.everything || self.objects.len() > room {
            into.note_everything();
        } else if !into.everything {
            into.objects.extend_from_slice(&self.objects);
        }
        self.clear();
    }

    /// Forget every change.
    pub fn clear(&mut self) {
        self.objects.clear();
        self.everything = false;
    }
}

/// A remote server on the fixed network: the authoritative versions of a
/// set of objects, updated by an [`UpdateProcess`] driven from outside
/// (the simulation harness schedules the update events), and the set of
/// objects updated since a reader last drained it.
#[derive(Debug, Clone)]
pub struct RemoteServer {
    versions: Vec<Version>,
    changes: ChangeSet,
}

impl RemoteServer {
    /// A server exporting all objects of `catalog` at version 0. Its
    /// change set starts as "everything changed".
    pub fn new(catalog: &Catalog) -> Self {
        Self {
            versions: vec![Version::INITIAL; catalog.len()],
            changes: ChangeSet::everything(catalog.len()),
        }
    }

    /// Number of objects served.
    pub fn len(&self) -> usize {
        self.versions.len()
    }

    /// Whether the server exports no objects.
    pub fn is_empty(&self) -> bool {
        self.versions.is_empty()
    }

    /// Apply one update to `object`: bumps its version and notes the
    /// change, O(1). The update's time is the caller's to keep; the
    /// server holds versions only.
    pub fn apply_update(&mut self, object: ObjectId, _now: SimTime) {
        let i = object.index();
        self.versions[i] = self.versions[i].next();
        self.changes.note(object);
    }

    /// Apply one update to *every* object (the paper's simultaneous wave).
    /// The change set records "everything", not a list.
    pub fn apply_simultaneous_update(&mut self, _now: SimTime) {
        for v in &mut self.versions {
            *v = v.next();
        }
        self.changes.note_everything();
    }

    /// Move the changes since the last drain into `into`, and start
    /// recording afresh.
    pub fn drain_changes_into(&mut self, into: &mut ChangeSet) {
        self.changes.drain_into(into);
    }

    /// Current authoritative version of `object`.
    #[inline]
    pub fn version_of(&self, object: ObjectId) -> Version {
        self.versions[object.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_sim::RngStreams;

    fn rng() -> StreamRng {
        RngStreams::new(7).stream("updates")
    }

    #[test]
    fn periodic_simultaneous_hits_multiples_of_period() {
        let p = UpdateProcess::PeriodicSimultaneous {
            period: SimDuration::from_ticks(5),
        };
        let mut r = rng();
        assert_eq!(
            p.next_update_after(ObjectId(0), SimTime::ZERO, &mut r),
            SimTime::from_ticks(5)
        );
        assert_eq!(
            p.next_update_after(ObjectId(3), SimTime::from_ticks(5), &mut r),
            SimTime::from_ticks(10),
            "strictly after: an update at t=5 schedules the next at t=10"
        );
        assert_eq!(
            p.next_update_after(ObjectId(3), SimTime::from_ticks(7), &mut r),
            SimTime::from_ticks(10)
        );
    }

    #[test]
    fn staggered_offsets_objects_differently() {
        let p = UpdateProcess::PeriodicStaggered {
            period: SimDuration::from_ticks(10),
            stride: 3,
        };
        let mut r = rng();
        let t0 = p.next_update_after(ObjectId(0), SimTime::ZERO, &mut r);
        let t1 = p.next_update_after(ObjectId(1), SimTime::ZERO, &mut r);
        let t2 = p.next_update_after(ObjectId(2), SimTime::ZERO, &mut r);
        assert_eq!(t0, SimTime::from_ticks(10)); // offset 0
        assert_eq!(t1, SimTime::from_ticks(3)); // offset 3
        assert_eq!(t2, SimTime::from_ticks(6)); // offset 6
                                                // Successive updates of the same object are exactly one period apart.
        let t1b = p.next_update_after(ObjectId(1), t1, &mut r);
        assert_eq!(t1b, SimTime::from_ticks(13));
    }

    #[test]
    fn poisson_gaps_are_positive_and_average_near_mean() {
        let p = UpdateProcess::Poisson { mean_interval: 8.0 };
        let mut r = rng();
        let mut now = SimTime::ZERO;
        let mut gaps = Vec::new();
        for _ in 0..4000 {
            let next = p.next_update_after(ObjectId(0), now, &mut r);
            assert!(next > now);
            gaps.push((next.ticks() - now.ticks()) as f64);
            now = next;
        }
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        // Ceil-discretization biases the mean up by ~0.5.
        assert!((mean - 8.5).abs() < 0.5, "mean gap {mean} far from 8.5");
    }

    #[test]
    fn poisson_is_reproducible_per_stream() {
        let p = UpdateProcess::Poisson { mean_interval: 5.0 };
        let streams = RngStreams::new(42);
        let mut a = streams.stream_indexed("updates", 3);
        let mut b = streams.stream_indexed("updates", 3);
        for _ in 0..100 {
            assert_eq!(
                p.next_update_after(ObjectId(3), SimTime::from_ticks(50), &mut a),
                p.next_update_after(ObjectId(3), SimTime::from_ticks(50), &mut b)
            );
        }
    }

    #[test]
    fn server_versions_advance_and_staleness_detected() {
        let catalog = Catalog::uniform_unit(4);
        let mut s = RemoteServer::new(&catalog);
        assert_eq!(s.len(), 4);
        assert_eq!(s.version_of(ObjectId(2)), Version(0));
        s.apply_update(ObjectId(2), SimTime::from_ticks(5));
        assert_eq!(s.version_of(ObjectId(2)), Version(1));
        assert_eq!(
            s.version_of(ObjectId(1)),
            Version(0),
            "only the updated object moves"
        );
    }

    #[test]
    fn drains_report_the_changed_objects_or_everything() {
        let catalog = Catalog::uniform_unit(6);
        let mut s = RemoteServer::new(&catalog);
        let mut seen = ChangeSet::everything(catalog.len());
        seen.clear();
        s.drain_changes_into(&mut seen);
        assert_eq!(seen.listed(), None, "a new server has changed everything");
        seen.clear();
        s.drain_changes_into(&mut seen);
        assert_eq!(seen.listed(), Some(&[][..]));
        for i in [4, 1, 4] {
            s.apply_update(ObjectId(i), SimTime::from_ticks(1));
        }
        seen.note(ObjectId(2));
        s.drain_changes_into(&mut seen);
        let listed = [2, 4, 1, 4].map(ObjectId);
        assert_eq!(seen.listed(), Some(&listed[..]), "repeats stay listed");
        seen.clear();
        s.apply_update(ObjectId(4), SimTime::from_ticks(2));
        s.apply_simultaneous_update(SimTime::from_ticks(2));
        s.drain_changes_into(&mut seen);
        assert_eq!(seen.listed(), None, "a wave lists nothing, it flags");
        seen.clear();
        s.apply_update(ObjectId(4), SimTime::from_ticks(3));
        s.drain_changes_into(&mut seen);
        assert_eq!(seen.listed(), Some(&[ObjectId(4)][..]), "drained afresh");
    }

    #[test]
    fn a_list_past_the_catalog_size_becomes_everything() {
        let catalog = Catalog::uniform_unit(3);
        let mut s = RemoteServer::new(&catalog);
        let mut seen = ChangeSet::everything(catalog.len());
        s.drain_changes_into(&mut seen);
        seen.clear();
        for i in [0, 1, 0] {
            s.apply_update(ObjectId(i), SimTime::from_ticks(1));
        }
        seen.note(ObjectId(2));
        s.drain_changes_into(&mut seen);
        assert_eq!(seen.listed(), None, "four notes do not fit three slots");
        seen.clear();
        for i in [0, 1, 2, 0] {
            s.apply_update(ObjectId(i), SimTime::from_ticks(2));
        }
        s.drain_changes_into(&mut seen);
        assert_eq!(seen.listed(), None, "the server's own list overflowed");
    }

    #[test]
    fn simultaneous_wave_updates_everything() {
        let catalog = Catalog::uniform_unit(10);
        let mut s = RemoteServer::new(&catalog);
        s.apply_simultaneous_update(SimTime::from_ticks(5));
        s.apply_simultaneous_update(SimTime::from_ticks(10));
        assert!(catalog.ids().all(|id| s.version_of(id) == Version(2)));
    }
}
