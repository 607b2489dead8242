//! Fixed identifier spaces for the hot-path instrumentation.
//!
//! Recorders index their storage by these enums rather than by string
//! names so that recording an event never hashes, compares or allocates:
//! every id maps to a dense array slot via [`Stage::index`] and friends,
//! and the human-readable names are only materialized when a snapshot is
//! exported.

/// A timed section of the request path. RAII [`crate::Span`] guards feed
/// elapsed nanoseconds into per-stage sinks keyed by this id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// One whole base-station simulation step (a full scheduling round).
    Step,
    /// Building the (estimated) recency vector for the planner.
    Recency,
    /// The download decision: request aggregation + knapsack mapping.
    Plan,
    /// The knapsack solve inside the planning stage.
    Solve,
    /// Refreshing the cache with the downloaded copies.
    Refresh,
    /// Serving the round's client requests from the cache.
    Serve,
    /// Landing the in-flight transfers that arrive this round and
    /// serving the requests parked on them.
    Fetch,
}

impl Stage {
    /// Every stage, in export order.
    pub const ALL: [Stage; 7] = [
        Stage::Step,
        Stage::Recency,
        Stage::Plan,
        Stage::Solve,
        Stage::Refresh,
        Stage::Serve,
        Stage::Fetch,
    ];

    /// Number of stages (dense array size for recorder storage).
    pub const COUNT: usize = Self::ALL.len();

    /// Dense storage index of this stage.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable, export-facing name (`snake_case`).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::Step => "step",
            Stage::Recency => "recency",
            Stage::Plan => "plan",
            Stage::Solve => "solve",
            Stage::Refresh => "refresh",
            Stage::Serve => "serve",
            Stage::Fetch => "fetch",
        }
    }
}

/// A monotone counter: how many times something happened (or how much of
/// something accumulated). Counters saturate instead of overflowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// Scheduling rounds simulated.
    Rounds,
    /// Client requests served.
    RequestsServed,
    /// Objects downloaded/refreshed from remote servers.
    ObjectsDownloaded,
    /// Data units downloaded from remote servers.
    UnitsDownloaded,
    /// Knapsack items handed to the solver (one per distinct stale
    /// requested object).
    KnapsackItems,
    /// DP table cells touched by the bounded-sweep knapsack solver.
    DpCellsTouched,
    /// Invalidation reports ingested by the station's estimator.
    ReportsIngested,
    /// Fetches launched onto the fixed network (in-flight mode).
    FetchesIssued,
    /// Client handoffs between cells in a multi-cell cluster.
    Handoffs,
    /// Requests that joined an already in-flight transfer launched in an
    /// earlier round instead of launching their own (single-flight
    /// coalescing).
    FetchesCoalesced,
    /// Launches for an object that already had a transfer in flight —
    /// the naive re-fetching baseline's wasted work.
    DuplicateFetches,
    /// Transfers that arrived carrying a version older than the server's
    /// current one — the copy was invalidated while on the wire.
    StaleArrivals,
    /// Invariant monitor: more waiters were served off a transfer than
    /// ever joined it (waiter conservation broke).
    WaiterConservationViolations,
    /// Invariant monitor: a round committed more in-flight units than
    /// the configured refresh budget.
    BudgetOvercommitViolations,
    /// Invariant monitor: a second transfer was launched for an
    /// `(object, version)` pair that already had one in flight while
    /// single-flight coalescing was supposed to hold.
    SingleFlightViolations,
    /// Invariant monitor: the cache's used-units accounting shrank on an
    /// insert-only store.
    CacheAccountingViolations,
    /// Invariant monitor: a transfer arrived at a tick earlier than a
    /// previous arrival or earlier than its own launch.
    ArrivalOrderViolations,
    /// Invariant monitor: an `(object, version)` pair was fetched from
    /// origin more than once across a whole region while the L2 tier's
    /// region-wide single-flight guarantee was supposed to hold.
    RegionSingleFlightViolations,
    /// Requests served out of the regional L2 tier (a neighbor cell's
    /// copy travelled the inter-cell link instead of the backhaul).
    L2Transfers,
    /// Data units moved over the inter-cell link by L2 transfers.
    L2Units,
    /// Stale regional-directory entries retired by the version pub/sub
    /// when a fresher copy landed at some cell.
    L2Invalidations,
}

impl Event {
    /// Every counter id, in export order.
    pub const ALL: [Event; 21] = [
        Event::Rounds,
        Event::RequestsServed,
        Event::ObjectsDownloaded,
        Event::UnitsDownloaded,
        Event::KnapsackItems,
        Event::DpCellsTouched,
        Event::ReportsIngested,
        Event::FetchesIssued,
        Event::Handoffs,
        Event::FetchesCoalesced,
        Event::DuplicateFetches,
        Event::StaleArrivals,
        Event::WaiterConservationViolations,
        Event::BudgetOvercommitViolations,
        Event::SingleFlightViolations,
        Event::CacheAccountingViolations,
        Event::ArrivalOrderViolations,
        Event::RegionSingleFlightViolations,
        Event::L2Transfers,
        Event::L2Units,
        Event::L2Invalidations,
    ];

    /// Number of counter ids.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense storage index of this counter.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable, export-facing name (`snake_case`).
    pub const fn name(self) -> &'static str {
        match self {
            Event::Rounds => "rounds",
            Event::RequestsServed => "requests_served",
            Event::ObjectsDownloaded => "objects_downloaded",
            Event::UnitsDownloaded => "units_downloaded",
            Event::KnapsackItems => "knapsack_items",
            Event::DpCellsTouched => "dp_cells_touched",
            Event::ReportsIngested => "reports_ingested",
            Event::FetchesIssued => "fetches_issued",
            Event::Handoffs => "handoffs",
            Event::FetchesCoalesced => "fetches_coalesced",
            Event::DuplicateFetches => "duplicate_fetches",
            Event::StaleArrivals => "stale_arrivals",
            Event::WaiterConservationViolations => "waiter_conservation_violations",
            Event::BudgetOvercommitViolations => "budget_overcommit_violations",
            Event::SingleFlightViolations => "single_flight_violations",
            Event::CacheAccountingViolations => "cache_accounting_violations",
            Event::ArrivalOrderViolations => "arrival_order_violations",
            Event::RegionSingleFlightViolations => "region_single_flight_violations",
            Event::L2Transfers => "l2_transfers",
            Event::L2Units => "l2_units",
            Event::L2Invalidations => "l2_invalidations",
        }
    }
}

/// A sampled value: each observation feeds a streaming distribution sink
/// (Welford mean/variance + P² p95).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sample {
    /// Requests in one scheduling round's batch.
    BatchSize,
    /// Knapsack value achieved by one round's plan (client benefit
    /// recovered by downloading).
    PlanProfit,
    /// Average client score delivered by one round.
    AverageScore,
    /// Average true recency delivered by one round.
    AverageRecency,
    /// Capacity (budget, data units) of one round's knapsack instance.
    KnapsackCapacity,
    /// Share of one round's download budget its downloads spent, in
    /// `[0, 1]`.
    DownlinkUtilization,
    /// Ticks a client request waited for a remote fetch.
    FetchLatencyTicks,
    /// Fraction of one round's requests served without a download of
    /// their object that round.
    CacheHitRatio,
    /// Upper bound on one round's achievable knapsack value (the value
    /// of downloading *every* requested stale object, budget ignored).
    PlanProfitBound,
    /// Items left undecided after instance reduction: the core the
    /// adaptive solver's DP swept (0 after a certificate).
    CoreSize,
    /// Items removed before the search: forced in or out by bound-based
    /// variable fixing.
    ItemsFixed,
    /// How the adaptive solver's solve ended, as its code (0 = certified
    /// greedy, 2 = core DP). Codes 1 and 3 are retired: 1 was the
    /// branch-and-bound terminal, 3 the certified expanding-core
    /// endgame. The solver no longer emits either; readers still accept
    /// both in old recordings, where `{0,3}` are the certificate exits
    /// and `{1,2}` the sweeps.
    SolverChosen,
    /// Objects whose recency, cache state or request set changed since
    /// the previous round — the round engine's incremental-build
    /// invalidation set (see `basecache_core::engine`).
    DirtyObjects,
    /// Client requests actually rescored by one round's incremental
    /// instance build (requests of untouched objects carry forward).
    RescoredRequests,
    /// Fixed-network units already committed to in-flight transfers in
    /// the observed round — what the planner subtracted from its budget
    /// before commissioning new downloads.
    CommittedUnits,
    /// Age of information at serve time: ticks between the served copy's
    /// origin (its launch tick) and the serving round.
    AoiAtServe,
    /// Age of information the moment a fresh copy arrived: how stale the
    /// replaced copy had grown before the refresh landed.
    AoiAtRefresh,
    /// Queueing component of a waiter's delay: ticks between issuing the
    /// request and the transfer actually launching.
    WaitQueueingTicks,
    /// On-wire component of a waiter's delay: ticks the transfer spent
    /// on the fixed network after the waiter was parked on it.
    WaitOnWireTicks,
    /// Serve component of a waiter's delay: ticks between the transfer's
    /// arrival and the waiter being served (0 when served on arrival).
    WaitServeTicks,
    /// Data units resident in the cache at end of round.
    CachedUnits,
    /// Requests still parked on in-flight transfers at end of round.
    StillWaiting,
    /// Window solves of the adaptive solver's expanding-core endgame.
    /// Nothing emits it since the endgame was deleted, so a reader's
    /// mean (`knapsack.core_rounds_mean`) reads 0; the id stays for
    /// readers that still name it.
    CoreRounds,
    /// Positive-profit objects an engine round left out of its knapsack
    /// instance, below its density cut (0 when it planned the whole
    /// instance).
    LeftOutObjects,
    /// Which instance an engine round planned, by how its left-out
    /// certificate went: 0 the candidates at its first cut (the whole
    /// instance when that cut is 0), 1 those at the lowered cut after
    /// one refusal, 2 the whole instance after a refusal.
    CutCertificate,
}

impl Sample {
    /// Every sample id, in export order.
    pub const ALL: [Sample; 25] = [
        Sample::BatchSize,
        Sample::PlanProfit,
        Sample::AverageScore,
        Sample::AverageRecency,
        Sample::KnapsackCapacity,
        Sample::DownlinkUtilization,
        Sample::FetchLatencyTicks,
        Sample::CacheHitRatio,
        Sample::PlanProfitBound,
        Sample::CoreSize,
        Sample::ItemsFixed,
        Sample::SolverChosen,
        Sample::DirtyObjects,
        Sample::RescoredRequests,
        Sample::CommittedUnits,
        Sample::AoiAtServe,
        Sample::AoiAtRefresh,
        Sample::WaitQueueingTicks,
        Sample::WaitOnWireTicks,
        Sample::WaitServeTicks,
        Sample::CachedUnits,
        Sample::StillWaiting,
        Sample::CoreRounds,
        Sample::LeftOutObjects,
        Sample::CutCertificate,
    ];

    /// Number of sample ids.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense storage index of this sample.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable, export-facing name (`snake_case`).
    pub const fn name(self) -> &'static str {
        match self {
            Sample::BatchSize => "batch_size",
            Sample::PlanProfit => "plan_profit",
            Sample::AverageScore => "average_score",
            Sample::AverageRecency => "average_recency",
            Sample::KnapsackCapacity => "knapsack_capacity",
            Sample::DownlinkUtilization => "downlink_utilization",
            Sample::FetchLatencyTicks => "fetch_latency_ticks",
            Sample::CacheHitRatio => "cache_hit_ratio",
            Sample::PlanProfitBound => "plan_profit_bound",
            Sample::CoreSize => "core_size",
            Sample::ItemsFixed => "items_fixed",
            Sample::SolverChosen => "solver_chosen",
            Sample::DirtyObjects => "dirty_objects",
            Sample::RescoredRequests => "rescored_requests",
            Sample::CommittedUnits => "committed_units",
            Sample::AoiAtServe => "aoi_at_serve",
            Sample::AoiAtRefresh => "aoi_at_refresh",
            Sample::WaitQueueingTicks => "wait_queueing_ticks",
            Sample::WaitOnWireTicks => "wait_on_wire_ticks",
            Sample::WaitServeTicks => "wait_serve_ticks",
            Sample::CachedUnits => "cached_units",
            Sample::StillWaiting => "still_waiting",
            Sample::CoreRounds => "core_rounds",
            Sample::LeftOutObjects => "left_out_objects",
            Sample::CutCertificate => "cut_certificate",
        }
    }
}

/// An attribution channel: a weighted stream of `(key, weight)` pairs
/// where the key is a dense entity id (`ObjectId.0`, `CellId.0`) and
/// the weight is what that entity consumed or suffered. Top-K sinks
/// ([`crate::TopK`]) answer "which entities dominated this channel"
/// without per-entity storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Attr {
    /// Data units of download budget spent per object (key: `ObjectId`).
    DownlinkUnitsByObject,
    /// Staleness suffered at serve time per object (key: `ObjectId`;
    /// weight: quantized `1 - recency` summed over serves).
    ServeStalenessByObject,
    /// Data units of backhaul budget spent per cell (key: `CellId`).
    DownlinkUnitsByCell,
    /// Staleness suffered at serve time per cell (key: `CellId`;
    /// weight: quantized `1 - recency` summed over the cell's serves).
    ServeStalenessByCell,
    /// Age-of-information suffered at serve time per object (key:
    /// `ObjectId`; weight: AoI ticks summed over serves) — the worst-AoI
    /// top-K that refresh scheduling will consume.
    AoiByObject,
    /// Invariant-monitor violations attributed to the object that
    /// triggered them (key: `ObjectId`).
    MonitorViolationsByObject,
    /// Requests served per cache tier (key: tier code — 0 = local L1,
    /// 1 = regional L2 neighbor, 2 = origin download). Three keys, so a
    /// top-K sink of capacity ≥ 3 records the channel exactly.
    ServesByTier,
}

impl Attr {
    /// Every attribution channel, in export order.
    pub const ALL: [Attr; 7] = [
        Attr::DownlinkUnitsByObject,
        Attr::ServeStalenessByObject,
        Attr::DownlinkUnitsByCell,
        Attr::ServeStalenessByCell,
        Attr::AoiByObject,
        Attr::MonitorViolationsByObject,
        Attr::ServesByTier,
    ];

    /// Number of attribution channels.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense storage index of this channel.
    #[inline]
    pub const fn index(self) -> usize {
        self as usize
    }

    /// Stable, export-facing name (`snake_case`).
    pub const fn name(self) -> &'static str {
        match self {
            Attr::DownlinkUnitsByObject => "downlink_units_by_object",
            Attr::ServeStalenessByObject => "serve_staleness_by_object",
            Attr::DownlinkUnitsByCell => "downlink_units_by_cell",
            Attr::ServeStalenessByCell => "serve_staleness_by_cell",
            Attr::AoiByObject => "aoi_by_object",
            Attr::MonitorViolationsByObject => "monitor_violations_by_object",
            Attr::ServesByTier => "serves_by_tier",
        }
    }

    /// Render `key` the way the owning entity displays itself
    /// (`obj#7`, `cell#2`).
    pub fn label(self, key: u32) -> String {
        match self {
            Attr::DownlinkUnitsByObject
            | Attr::ServeStalenessByObject
            | Attr::AoiByObject
            | Attr::MonitorViolationsByObject => format!("obj#{key}"),
            Attr::DownlinkUnitsByCell | Attr::ServeStalenessByCell => format!("cell#{key}"),
            Attr::ServesByTier => format!("tier#{key}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_in_order() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, e) in Event::ALL.iter().enumerate() {
            assert_eq!(e.index(), i);
        }
        for (i, s) in Sample::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, a) in Attr::ALL.iter().enumerate() {
            assert_eq!(a.index(), i);
        }
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = Stage::ALL.iter().map(|s| s.name()).collect();
        names.extend(Event::ALL.iter().map(|e| e.name()));
        names.extend(Sample::ALL.iter().map(|s| s.name()));
        names.extend(Attr::ALL.iter().map(|a| a.name()));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate id name");
    }

    #[test]
    fn attr_labels_match_entity_display() {
        assert_eq!(Attr::DownlinkUnitsByObject.label(7), "obj#7");
        assert_eq!(Attr::ServeStalenessByObject.label(0), "obj#0");
        assert_eq!(Attr::DownlinkUnitsByCell.label(2), "cell#2");
        assert_eq!(Attr::ServeStalenessByCell.label(5), "cell#5");
        assert_eq!(Attr::AoiByObject.label(11), "obj#11");
        assert_eq!(Attr::MonitorViolationsByObject.label(4), "obj#4");
        assert_eq!(Attr::ServesByTier.label(1), "tier#1");
    }
}
