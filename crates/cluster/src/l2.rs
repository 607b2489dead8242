//! The regional L2 tier: a shared version directory plus an inter-cell
//! link that lets a cell that misses locally pull a neighbor's copy
//! before paying for an origin download.
//!
//! Avrachenkov et al.'s geographic cooperative-caching result is the
//! blueprint: whenever the demand of nearby cells overlaps, retrieving
//! a copy over the cheap regional backbone beats re-fetching it from
//! origin. The tier is three cooperating pieces, all grown from
//! existing substrates:
//!
//! 1. a [`VersionBus`] — the regional directory/coherence channel.
//!    Every origin download is published as `(object, version, holder)`;
//!    the freshest version wins, a fresher publish retires the stale
//!    entry (`InvalidatedRemote`), and a publish of a version that was
//!    invalidated mid-flight loses the race, so a stale copy is never
//!    served as fresh;
//! 2. an [`InterCellLink`] — the per-round unit budget of the backbone
//!    L2 transfers ride (cheaper than backhaul but not free);
//! 3. planner exclusions — a cell whose requested object's *current*
//!    version is already registered anywhere in the region is forbidden
//!    from origin-fetching it ([`BaseStationSim::set_plan_exclusions`]),
//!    which is what makes the region-wide single-flight invariant — an
//!    object is origin-fetched at most once per version per region — a
//!    structural guarantee rather than a tendency. The online
//!    [`basecache_obs::InvariantMonitor`] (with
//!    `region_single_flight()` armed) verifies it on every run.
//!
//! The cluster steps cells *interleaved* when L2 is enabled — exchange,
//! step, publish, per cell in cell id order — so cell `i+1`'s exchange
//! already sees cell `i`'s same-round downloads. That ordering is the
//! whole trick: the first cell to want a hot object pays origin once,
//! and every later cell in the same round rides the inter-cell link.

use basecache_core::BaseStationSim;
use basecache_net::{InterCellLink, ObjectId, PublishOutcome, VersionBus};
use basecache_obs::{LifecycleEvent, Recorder, Transition};

/// Configuration of the regional L2 tier.
#[derive(Debug, Clone, Copy)]
pub struct L2Config {
    /// Data units the inter-cell backbone carries per round (shared by
    /// the whole region, like the backhaul budget). Size it comparably
    /// to the backhaul budget: a starved backbone still upholds region
    /// single-flight, but the cells it denies serve stale until their
    /// retry wins a reservation.
    pub intercell_units_per_round: u64,
}

impl Default for L2Config {
    fn default() -> Self {
        Self {
            intercell_units_per_round: 256,
        }
    }
}

/// Serve tiers, as the dense keys of `Attr::ServesByTier`.
pub const TIER_L1: u32 = 0;
/// L2-neighbor tier key: served off a copy pulled over the inter-cell
/// link (this round or an earlier one).
pub const TIER_L2: u32 = 1;
/// Origin tier key: served off a same-round origin download.
pub const TIER_ORIGIN: u32 = 2;

/// The regional tier state: directory, backbone meter, per-round serve
/// tallies and cumulative totals. Owned by the cluster; one per region.
#[derive(Debug)]
pub struct RegionalL2 {
    bus: VersionBus,
    link: InterCellLink,
    /// Per-cell scratch: this cell's origin-fetch exclusions, ascending
    /// and distinct like the aggregation they are filled from.
    exclusions: Vec<ObjectId>,
    /// Per-cell scratch: objects pulled over the backbone this exchange
    /// (ascending, for the same reason).
    transferred: Vec<ObjectId>,
    /// This round's serves per tier (`[L1, L2, origin]`).
    round_tiers: [u64; 3],
    /// Cumulative serves per tier.
    total_tiers: [u64; 3],
    round_transfers: u64,
    round_units: u64,
    round_invalidations: u64,
    transfers: u64,
    units: u64,
    invalidations: u64,
}

impl RegionalL2 {
    /// A fresh tier over `catalog_len` objects.
    pub(crate) fn new(catalog: &basecache_net::Catalog, config: L2Config) -> Self {
        Self {
            bus: VersionBus::new(catalog),
            link: InterCellLink::new(config.intercell_units_per_round),
            exclusions: Vec::new(),
            transferred: Vec::new(),
            round_tiers: [0; 3],
            total_tiers: [0; 3],
            round_transfers: 0,
            round_units: 0,
            round_invalidations: 0,
            transfers: 0,
            units: 0,
            invalidations: 0,
        }
    }

    pub(crate) fn begin_round(&mut self) {
        self.link.begin_round();
        self.round_tiers = [0; 3];
        self.round_transfers = 0;
        self.round_units = 0;
        self.round_invalidations = 0;
    }

    /// Phase one of a cell's L2 round: pull fresher regional copies of
    /// the cell's requested, locally-stale objects over the backbone
    /// (budget permitting), and install the origin-fetch exclusions
    /// that enforce region single-flight. `distinct` is the cell's
    /// aggregated batch — each requested object once, ascending — so the
    /// exchange is deterministic and asks the directory once an object.
    pub(crate) fn exchange(
        &mut self,
        station: &mut BaseStationSim,
        distinct: &[(ObjectId, u32)],
        cell: u32,
        tick: u64,
        recorder: &dyn Recorder,
    ) {
        let observing = recorder.enabled();
        self.exclusions.clear();
        self.transferred.clear();
        for &(o, _) in distinct {
            let current = station.server().version_of(o);
            let local = station.cached_version_of(o);
            if let Some((directory, holder)) = self.bus.lookup(o) {
                // Only origin-current copies ride the backbone. A
                // neighbor's semi-stale copy (fresher than ours, older
                // than origin) would still be re-fetched from origin —
                // installing it first merely dulls the planner's profit
                // for that fetch and drags the delivered score down.
                let fresher = local.is_none_or(|v| directory > v);
                if holder != cell && fresher && directory == current {
                    let size = station.catalog().size_of(o);
                    if self.link.try_reserve(size) {
                        station.install_remote_copy(o, directory);
                        self.transferred.push(o);
                        self.round_transfers += 1;
                        self.round_units += size;
                        if observing {
                            recorder.lifecycle(LifecycleEvent::new(
                                Transition::PromotedToL1,
                                o.0,
                                directory.0,
                                tick,
                            ));
                        }
                    }
                }
                // Region single-flight: if any cell already fetched the
                // *current* version, this cell must not pay origin for
                // it — even when this round's backbone budget could not
                // carry the copy over (it retries next round).
                if directory == current {
                    self.exclusions.push(o);
                }
            }
        }
        station.set_plan_exclusions(&self.exclusions);
    }

    /// Phase two of a cell's L2 round (after the cell stepped): publish
    /// every origin download on the bus so later cells — starting this
    /// same round — ride L2 instead of re-paying origin. A fresher
    /// publish retires the stale directory entry; the publish is also
    /// mirrored to the cluster recorder as a region-scoped `Arrived`
    /// lifecycle event, which is exactly what the armed invariant
    /// monitor counts origin fetches by.
    pub(crate) fn publish_downloads(
        &mut self,
        station: &BaseStationSim,
        cell: u32,
        tick: u64,
        recorder: &dyn Recorder,
    ) {
        let observing = recorder.enabled();
        for &o in station.last_downloaded() {
            let version = station.server().version_of(o);
            // In in-flight mode a launch is not yet a resident copy;
            // only resident versions may enter the directory (a
            // neighbor will install what we claim to hold).
            if station.cached_version_of(o) != Some(version) {
                continue;
            }
            let outcome = self.bus.publish(o, version, cell);
            if let PublishOutcome::Invalidated {
                previous_version, ..
            } = outcome
            {
                self.round_invalidations += 1;
                if observing {
                    recorder.lifecycle(LifecycleEvent::new(
                        Transition::InvalidatedRemote,
                        o.0,
                        previous_version.0,
                        tick,
                    ));
                }
            }
            if observing {
                recorder.lifecycle(
                    LifecycleEvent::new(Transition::Arrived, o.0, version.0, tick).at_launch(tick),
                );
            }
        }
    }

    /// Phase three: attribute every request the cell served this round
    /// to its tier — L2 if its object came over the backbone this
    /// exchange, origin if the cell downloaded it this round, L1
    /// otherwise — and emit `ServedFromL2` lifecycle events for the
    /// backbone-fed serves. One merge of three ascending lists: each
    /// distinct object adds its request count to its tier.
    pub(crate) fn attribute_serves(
        &mut self,
        station: &BaseStationSim,
        distinct: &[(ObjectId, u32)],
        tick: u64,
        recorder: &dyn Recorder,
    ) {
        let observing = recorder.enabled();
        let mut transferred = self.transferred.iter().peekable();
        // Ascending under every policy (the station's plan-stage contract).
        let mut downloaded = station.last_downloaded().iter().peekable();
        for &(o, count) in distinct {
            while transferred.next_if(|&&t| t < o).is_some() {}
            while downloaded.next_if(|&&d| d < o).is_some() {}
            let tier = if transferred.peek() == Some(&&o) {
                if observing {
                    let version = station.cached_version_of(o).map_or(0, |v| v.0);
                    recorder.lifecycle(
                        LifecycleEvent::new(Transition::ServedFromL2, o.0, version, tick)
                            .times(count),
                    );
                }
                TIER_L2
            } else if downloaded.peek() == Some(&&o) {
                TIER_ORIGIN
            } else {
                TIER_L1
            };
            self.round_tiers[tier as usize] += u64::from(count);
        }
    }

    pub(crate) fn end_round(&mut self) {
        for (total, round) in self.total_tiers.iter_mut().zip(&self.round_tiers) {
            *total += round;
        }
        self.transfers += self.round_transfers;
        self.units += self.round_units;
        self.invalidations += self.round_invalidations;
    }

    /// This round's serves per tier (`[L1, L2-neighbor, origin]`).
    pub(crate) fn round_tiers(&self) -> [u64; 3] {
        self.round_tiers
    }

    pub(crate) fn round_transfers(&self) -> u64 {
        self.round_transfers
    }

    pub(crate) fn round_units(&self) -> u64 {
        self.round_units
    }

    pub(crate) fn round_invalidations(&self) -> u64 {
        self.round_invalidations
    }

    /// Cumulative serves per tier (`[L1, L2-neighbor, origin]`).
    pub fn tier_totals(&self) -> [u64; 3] {
        self.total_tiers
    }

    /// Cumulative L2 transfers carried over the backbone.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Cumulative data units carried over the backbone.
    pub fn units(&self) -> u64 {
        self.units
    }

    /// Cumulative stale directory entries retired by fresher publishes.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Backbone reservations refused for lack of per-round budget.
    pub fn denied(&self) -> u64 {
        self.link.denied()
    }

    /// The regional version directory (inspection).
    pub fn bus(&self) -> &VersionBus {
        &self.bus
    }

    /// The inter-cell backbone meter (inspection).
    pub fn link(&self) -> &InterCellLink {
        &self.link
    }
}
