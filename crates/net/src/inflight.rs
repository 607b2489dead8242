//! The in-flight download ledger: multi-round transfers with
//! single-flight coalescing.
//!
//! The paper's model completes every download inside the time unit it is
//! issued. [`InFlightLedger`] drops that assumption at the round
//! granularity the planner works in: a transfer of `size` data units on a
//! fixed network moving `bandwidth_per_round` units per round occupies
//! the link for `ceil(size / bandwidth)` rounds (FIFO behind whatever is
//! already queued) and only refreshes the cache when it *arrives*.
//!
//! Three things make the ledger more than a delay line:
//!
//! * **Single-flight.** At most one transfer may be in flight per
//!   `(object, version)` — a request arriving for an object already being
//!   fetched **joins** the in-flight transfer instead of launching a
//!   duplicate (the stampede protection of production pull-through
//!   caches). Joiners park in a waiter pool and are served on arrival,
//!   with their waiting time recorded. When the server invalidates the
//!   version on the wire, the stale transfer is *not* joinable any more:
//!   later requesters launch (or join) a fetch of the fresh version, so
//!   invalidated flights never absorb joiners they would serve stale.
//!   Coalescing can be disabled ([`InFlightConfig::coalesce`] = false)
//!   to model the naive re-fetching baseline the flash-crowd experiment
//!   measures against.
//! * **Commitment accounting.** [`InFlightLedger::committed_at`] reports
//!   how many link units already-accepted transfers will consume in a
//!   given round, so the planner can subtract committed bandwidth from
//!   its round budget, and [`InFlightLedger::arrival_delay`] reports how
//!   many rounds a new transfer would take to arrive, so candidate
//!   profits can be amortized over their arrival round.
//! * **Determinism.** The FIFO queue makes completion order equal launch
//!   order; arrival rounds are pure integer arithmetic over the backlog.
//!   Replaying the same launches and joins replays the same arrivals,
//!   waiter orders and statistics bit for bit.
//!
//! The bandwidth is positive: the paper's same-round download model is
//! a station without a ledger, not a ledger of bandwidth 0.
//!
//! Steady-state operation allocates nothing: the transfer queue is a
//! ring, waiters live in a free-listed pool, and both only grow while
//! the simulation is warming up.

use crate::object::{ObjectId, Version};
use std::collections::VecDeque;

/// Free-list terminator for the waiter pool.
const NIL: u32 = u32::MAX;

/// Configuration of an [`InFlightLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlightConfig {
    /// Fixed-network capacity in data units per round; positive.
    pub bandwidth_per_round: u64,
    /// Single-flight coalescing: when true (the default for real
    /// deployments), launching a duplicate of an in-flight
    /// `(object, version)` is a contract violation and requesters join
    /// the existing transfer instead. When false, the ledger accepts
    /// duplicate launches — the naive re-fetching baseline.
    pub coalesce: bool,
}

impl InFlightConfig {
    /// A coalescing ledger over a `bandwidth_per_round`-units link.
    pub fn coalescing(bandwidth_per_round: u64) -> Self {
        Self {
            bandwidth_per_round,
            coalesce: true,
        }
    }

    /// The naive baseline: same link, no single-flight.
    pub fn naive(bandwidth_per_round: u64) -> Self {
        Self {
            bandwidth_per_round,
            coalesce: false,
        }
    }
}

/// A request parked on an in-flight transfer, returned by
/// [`InFlightLedger::pop_arrival`] when its transfer lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParkedWaiter {
    /// The target recency the waiting client attached to its request.
    pub target_recency: f64,
    /// The round the client issued the request (waiting time is the
    /// arrival round minus this).
    pub issued_at: u64,
}

/// A completed transfer popped from the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrived {
    /// The object whose copy arrived.
    pub object: ObjectId,
    /// The version that was fetched (the server's version at launch
    /// time; updates may have landed while it was on the wire).
    pub version: Version,
    /// Size in data units.
    pub size: u64,
    /// The round the transfer was launched.
    pub launched_at: u64,
    /// Number of waiters drained with this arrival.
    pub waiters: usize,
}

/// A read-only view of one active transfer (see
/// [`InFlightLedger::for_each_active`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ActiveTransfer {
    /// The object being fetched.
    pub object: ObjectId,
    /// The version being fetched.
    pub version: Version,
    /// Size in data units.
    pub size: u64,
    /// The round the transfer was launched.
    pub launched_at: u64,
    /// The round the transfer will arrive.
    pub arrives_at: u64,
    /// Waiters currently parked on it.
    pub waiters: usize,
}

/// Monotone counters describing the ledger's lifetime activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerStats {
    /// Transfers launched.
    pub launched: u64,
    /// Data units of all launched transfers.
    pub units_launched: u64,
    /// Launches for an object that already had an active transfer (any
    /// version) — only the naive mode and version-invalidated refetches
    /// produce these.
    pub duplicate_launches: u64,
    /// Requests parked on a transfer (any transfer, including the one
    /// their own round launched).
    pub joins: u64,
    /// Joins onto a transfer launched in an *earlier* round — each one
    /// is a fetch the coalescing saved.
    pub coalesced_joins: u64,
    /// Transfers completed.
    pub completed: u64,
    /// Waiters served on arrival.
    pub waiters_served: u64,
}

impl LedgerStats {
    /// Fraction of fetch demand satisfied by joining an already-flying
    /// transfer instead of launching: `coalesced_joins /
    /// (coalesced_joins + launched)`. `0.0` before any activity.
    pub fn coalesced_fetch_ratio(&self) -> f64 {
        let denom = self.coalesced_joins + self.launched;
        if denom == 0 {
            0.0
        } else {
            self.coalesced_joins as f64 / denom as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    object: ObjectId,
    version: Version,
    size: u64,
    launched_at: u64,
    arrives_at: u64,
    waiters_head: u32,
    waiters_tail: u32,
}

#[derive(Debug, Clone, Copy)]
struct WaiterSlot {
    target_recency: f64,
    issued_at: u64,
    next: u32,
}

#[derive(Debug, Clone, Copy, Default)]
struct PerObject {
    /// Active transfers for this object (0 or 1 under coalescing unless
    /// a mid-flight invalidation forced a fresh-version refetch).
    active: u32,
    /// Sequence number of the newest active transfer (valid when
    /// `active > 0`).
    newest_seq: u64,
    /// Version of the newest active transfer (valid when `active > 0`).
    newest_version: Version,
}

/// Tracks transfers occupying the fixed network across rounds. See the
/// module docs for the model.
#[derive(Debug)]
pub struct InFlightLedger {
    config: InFlightConfig,
    /// Active transfers, FIFO: completion order equals launch order.
    transfers: VecDeque<Transfer>,
    /// Sequence number of `transfers[0]`; stable ids survive pops.
    front_seq: u64,
    next_seq: u64,
    per_object: Vec<PerObject>,
    /// Waiter pool: intrusive singly linked lists per transfer plus a
    /// free list, so steady-state joins and drains never allocate.
    slots: Vec<WaiterSlot>,
    free_head: u32,
    waiting: u64,
    /// Undelivered units in the FIFO queue, as of round `as_of`.
    backlog: u64,
    as_of: u64,
    stats: LedgerStats,
}

impl InFlightLedger {
    /// A ledger over `num_objects` objects (ids `0..num_objects`).
    ///
    /// # Panics
    ///
    /// Panics if `config.bandwidth_per_round == 0`: a transfer over a
    /// link that moves nothing never lands.
    pub fn new(config: InFlightConfig, num_objects: usize) -> Self {
        assert!(
            config.bandwidth_per_round > 0,
            "an in-flight ledger needs a positive bandwidth"
        );
        Self {
            config,
            transfers: VecDeque::new(),
            front_seq: 0,
            next_seq: 0,
            per_object: vec![PerObject::default(); num_objects],
            slots: Vec::new(),
            free_head: NIL,
            waiting: 0,
            backlog: 0,
            as_of: 0,
            stats: LedgerStats::default(),
        }
    }

    /// Pre-size the transfer ring and waiter pool so a run that stays
    /// within these bounds never allocates after construction.
    pub fn reserve(&mut self, transfers: usize, waiters: usize) {
        self.transfers.reserve(transfers);
        while self.slots.len() < waiters {
            let idx = self.slots.len() as u32;
            self.slots.push(WaiterSlot {
                target_recency: 0.0,
                issued_at: 0,
                next: self.free_head,
            });
            self.free_head = idx;
        }
    }

    /// The configuration.
    pub fn config(&self) -> InFlightConfig {
        self.config
    }

    /// Whether single-flight coalescing is on.
    pub fn coalesce(&self) -> bool {
        self.config.coalesce
    }

    /// Undelivered units still queued on the link as of round `now`.
    pub fn backlog_at(&self, now: u64) -> u64 {
        let elapsed = now.saturating_sub(self.as_of);
        self.backlog
            .saturating_sub(elapsed.saturating_mul(self.config.bandwidth_per_round))
    }

    /// Link units that already-accepted transfers will consume in round
    /// `now` — what the planner subtracts from its round budget before
    /// commissioning new downloads. Zero when idle.
    pub fn committed_at(&self, now: u64) -> u64 {
        self.backlog_at(now).min(self.config.bandwidth_per_round)
    }

    /// Rounds until a transfer of `size` launched in round `now` would
    /// arrive (behind the current backlog), at least one — the divisor
    /// for amortizing a candidate's profit over its arrival round.
    pub fn arrival_delay(&self, size: u64, now: u64) -> u64 {
        let queued = self.backlog_at(now) + size;
        queued.div_ceil(self.config.bandwidth_per_round)
    }

    /// Whether a request for `object` at the server's `current` version
    /// can join an in-flight transfer: the newest active transfer for
    /// the object is fetching exactly that version. A transfer whose
    /// version was invalidated mid-flight is never joinable — later
    /// requesters must fetch (or join a fetch of) the fresh version.
    pub fn joinable(&self, object: ObjectId, current: Version) -> bool {
        let po = &self.per_object[object.index()];
        po.active > 0 && po.newest_version == current
    }

    /// Whether `object` has any active transfer (any version).
    pub fn is_object_active(&self, object: ObjectId) -> bool {
        self.per_object[object.index()].active > 0
    }

    /// Park a request on `object`'s newest active transfer; it will be
    /// returned by [`Self::pop_arrival`] when that transfer lands.
    /// Returns the round the joined transfer was launched (joins onto
    /// earlier rounds' transfers count as coalesced).
    ///
    /// # Panics
    ///
    /// Panics if the object has no active transfer — callers gate on
    /// [`Self::joinable`] / [`Self::is_object_active`].
    pub fn join(&mut self, object: ObjectId, target_recency: f64, now: u64) -> u64 {
        let po = self.per_object[object.index()];
        assert!(
            po.active > 0,
            "join requires an active transfer for {object:?}"
        );
        let idx = (po.newest_seq - self.front_seq) as usize;
        let slot = if self.free_head != NIL {
            let s = self.free_head;
            self.free_head = self.slots[s as usize].next;
            s
        } else {
            self.slots.push(WaiterSlot {
                target_recency: 0.0,
                issued_at: 0,
                next: NIL,
            });
            (self.slots.len() - 1) as u32
        };
        self.slots[slot as usize] = WaiterSlot {
            target_recency,
            issued_at: now,
            next: NIL,
        };
        let t = &mut self.transfers[idx];
        if t.waiters_tail == NIL {
            t.waiters_head = slot;
        } else {
            self.slots[t.waiters_tail as usize].next = slot;
        }
        t.waiters_tail = slot;
        self.waiting += 1;
        self.stats.joins += 1;
        if t.launched_at < now {
            self.stats.coalesced_joins += 1;
        }
        t.launched_at
    }

    /// Launch a transfer of `object` at the server's `version`,
    /// `size > 0` data units, in round `now`. Returns the round it will
    /// arrive, at least `now + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `size == 0`, if `now` runs backwards, or — under
    /// coalescing — if an active transfer for the same
    /// `(object, version)` already exists (the single-flight contract:
    /// such requests must [`Self::join`] instead).
    pub fn launch(&mut self, object: ObjectId, version: Version, size: u64, now: u64) -> u64 {
        assert!(size > 0, "zero-size transfer");
        assert!(now >= self.as_of, "ledger time ran backwards");
        if self.config.coalesce {
            assert!(
                !self.joinable(object, version),
                "single-flight violation: {object:?} {version:?} is already in flight"
            );
        }
        if self.per_object[object.index()].active > 0 {
            self.stats.duplicate_launches += 1;
        }
        self.drain_to(now);
        self.backlog += size;
        let arrives_at = now + self.backlog.div_ceil(self.config.bandwidth_per_round);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.transfers.push_back(Transfer {
            object,
            version,
            size,
            launched_at: now,
            arrives_at,
            waiters_head: NIL,
            waiters_tail: NIL,
        });
        let po = &mut self.per_object[object.index()];
        po.active += 1;
        po.newest_seq = seq;
        po.newest_version = version;
        self.stats.launched += 1;
        self.stats.units_launched += size;
        arrives_at
    }

    /// Pop the next transfer arriving at or before round `now`, in
    /// deterministic FIFO (launch) order, appending its parked waiters
    /// to `waiters_out` in join order. Returns `None` when nothing else
    /// lands this round. Call in a loop each round before planning.
    pub fn pop_arrival(
        &mut self,
        now: u64,
        waiters_out: &mut Vec<ParkedWaiter>,
    ) -> Option<Arrived> {
        self.drain_to(now);
        if self.transfers.front()?.arrives_at > now {
            return None;
        }
        let t = self.transfers.pop_front().expect("checked non-empty");
        self.front_seq += 1;
        self.per_object[t.object.index()].active -= 1;
        let mut served = 0usize;
        let mut cur = t.waiters_head;
        while cur != NIL {
            let slot = self.slots[cur as usize];
            waiters_out.push(ParkedWaiter {
                target_recency: slot.target_recency,
                issued_at: slot.issued_at,
            });
            self.slots[cur as usize].next = self.free_head;
            self.free_head = cur;
            cur = slot.next;
            served += 1;
        }
        self.waiting -= served as u64;
        self.stats.completed += 1;
        self.stats.waiters_served += served as u64;
        Some(Arrived {
            object: t.object,
            version: t.version,
            size: t.size,
            launched_at: t.launched_at,
            waiters: served,
        })
    }

    /// Visit every active transfer in FIFO (launch) order.
    pub fn for_each_active(&self, mut f: impl FnMut(ActiveTransfer)) {
        for t in &self.transfers {
            let mut waiters = 0usize;
            let mut cur = t.waiters_head;
            while cur != NIL {
                waiters += 1;
                cur = self.slots[cur as usize].next;
            }
            f(ActiveTransfer {
                object: t.object,
                version: t.version,
                size: t.size,
                launched_at: t.launched_at,
                arrives_at: t.arrives_at,
                waiters,
            });
        }
    }

    /// Number of transfers currently in flight.
    pub fn active_transfers(&self) -> usize {
        self.transfers.len()
    }

    /// Number of requests currently parked on in-flight transfers.
    pub fn waiting(&self) -> u64 {
        self.waiting
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> &LedgerStats {
        &self.stats
    }

    fn drain_to(&mut self, now: u64) {
        self.backlog = self.backlog_at(now);
        self.as_of = self.as_of.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ledger(bandwidth: u64, coalesce: bool) -> InFlightLedger {
        InFlightLedger::new(
            InFlightConfig {
                bandwidth_per_round: bandwidth,
                coalesce,
            },
            16,
        )
    }

    #[test]
    fn transfer_time_is_size_over_bandwidth() {
        let mut l = ledger(10, true);
        // 25 units over a 10-units/round link: arrives 3 rounds later.
        assert_eq!(l.launch(ObjectId(0), Version(0), 25, 0), 3);
        assert_eq!(l.committed_at(0), 10);
        assert_eq!(l.committed_at(1), 10);
        assert_eq!(l.committed_at(2), 5);
        assert_eq!(l.committed_at(3), 0);
        let mut w = Vec::new();
        assert!(l.pop_arrival(2, &mut w).is_none());
        let a = l.pop_arrival(3, &mut w).expect("arrives at 3");
        assert_eq!(a.object, ObjectId(0));
        assert_eq!(a.launched_at, 0);
        assert_eq!(l.active_transfers(), 0);
    }

    #[test]
    fn fifo_backlog_serializes_transfers_in_launch_order() {
        let mut l = ledger(10, true);
        assert_eq!(l.launch(ObjectId(0), Version(0), 10, 0), 1);
        assert_eq!(l.launch(ObjectId(1), Version(0), 10, 0), 2, "queued");
        assert_eq!(l.launch(ObjectId(2), Version(0), 5, 1), 3, "behind both");
        let mut w = Vec::new();
        let order: Vec<ObjectId> = (1..=3)
            .filter_map(|t| l.pop_arrival(t, &mut w).map(|a| a.object))
            .collect();
        assert_eq!(order, [ObjectId(0), ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn joiners_drain_with_their_transfer_in_join_order() {
        let mut l = ledger(5, true);
        l.launch(ObjectId(3), Version(0), 10, 0);
        assert!(l.joinable(ObjectId(3), Version(0)));
        assert_eq!(l.join(ObjectId(3), 0.9, 1), 0, "joined round-0 launch");
        l.join(ObjectId(3), 0.4, 1);
        assert_eq!(l.waiting(), 2);
        let mut w = Vec::new();
        let a = l.pop_arrival(2, &mut w).expect("arrives at 2");
        assert_eq!(a.waiters, 2);
        assert_eq!(w[0].target_recency, 0.9, "FIFO join order");
        assert_eq!(w[1].target_recency, 0.4);
        assert_eq!(w[0].issued_at, 1);
        assert_eq!(l.waiting(), 0);
        assert_eq!(l.stats().coalesced_joins, 2);
        assert!((l.stats().coalesced_fetch_ratio() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "single-flight violation")]
    fn coalescing_rejects_duplicate_object_version_launches() {
        let mut l = ledger(5, true);
        l.launch(ObjectId(1), Version(0), 10, 0);
        l.launch(ObjectId(1), Version(0), 10, 0);
    }

    #[test]
    fn invalidated_versions_are_not_joinable_but_fresh_refetch_is_allowed() {
        let mut l = ledger(5, true);
        l.launch(ObjectId(1), Version(0), 10, 0);
        // Server moved to version 1 while the fetch is on the wire: the
        // stale flight must not absorb joiners...
        assert!(!l.joinable(ObjectId(1), Version(1)));
        // ...and a fetch of the fresh version is legal under
        // single-flight (different version).
        l.launch(ObjectId(1), Version(1), 10, 1);
        assert_eq!(l.stats().duplicate_launches, 1);
        assert!(l.joinable(ObjectId(1), Version(1)));
        // The joiner attaches to the fresh transfer, not the stale one.
        l.join(ObjectId(1), 1.0, 1);
        let mut w = Vec::new();
        let stale = l.pop_arrival(10, &mut w).expect("stale flight lands");
        assert_eq!(stale.version, Version(0));
        assert_eq!(stale.waiters, 0, "no joiner served stale");
        let fresh = l.pop_arrival(10, &mut w).expect("fresh flight lands");
        assert_eq!(fresh.version, Version(1));
        assert_eq!(fresh.waiters, 1);
    }

    #[test]
    fn naive_mode_accepts_duplicates_and_counts_them() {
        let mut l = ledger(5, false);
        l.launch(ObjectId(0), Version(0), 10, 0);
        l.launch(ObjectId(0), Version(0), 10, 0);
        l.launch(ObjectId(0), Version(0), 10, 1);
        assert_eq!(l.stats().duplicate_launches, 2);
        assert_eq!(l.active_transfers(), 3);
    }

    #[test]
    #[should_panic(expected = "an in-flight ledger needs a positive bandwidth")]
    fn a_zero_bandwidth_ledger_is_refused() {
        ledger(0, true);
    }

    #[test]
    fn arrival_delay_reflects_backlog() {
        let mut l = ledger(10, true);
        assert_eq!(l.arrival_delay(10, 0), 1);
        assert_eq!(l.arrival_delay(25, 0), 3);
        l.launch(ObjectId(0), Version(0), 30, 0);
        assert_eq!(l.arrival_delay(10, 0), 4, "behind 30 queued units");
        assert_eq!(l.arrival_delay(10, 2), 2, "backlog drained to 10");
    }

    #[test]
    fn steady_state_join_and_pop_do_not_grow_the_pool() {
        let mut l = ledger(5, true);
        l.reserve(4, 8);
        let slots_before = l.slots.len();
        let mut w = Vec::with_capacity(8);
        for round in 0u64..50 {
            let now = round * 2;
            l.launch(ObjectId((round % 4) as u32), Version(round), 10, now);
            for _ in 0..4 {
                l.join(ObjectId((round % 4) as u32), 1.0, now);
            }
            w.clear();
            while l.pop_arrival(now + 2, &mut w).is_some() {}
        }
        assert_eq!(l.slots.len(), slots_before, "waiter pool never regrew");
        assert_eq!(l.waiting(), 0);
        assert_eq!(l.stats().completed, 50);
        assert_eq!(l.stats().waiters_served, 200);
    }
}
