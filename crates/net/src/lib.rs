//! Network substrate for the mobile-computing environment of Figure 1:
//! remote servers with versioned objects and update processes, the
//! bandwidth-limited fixed network downloads travel, and the
//! cell/base-station/client topology.
//!
//! The paper's analyses abstract the network to "k object-units may be
//! downloaded per time unit", each download landing in the time unit
//! that issued it; the in-flight ledger instead gives every download a
//! duration in rounds over a fixed network of finite bandwidth, which
//! is what the transfer-time experiments sweep.
//!
//! Layout:
//!
//! * [`object`] — the shared object model: [`ObjectId`], [`Version`],
//!   [`Catalog`].
//! * [`server`] — [`RemoteServer`] holding per-object versions and the
//!   [`ChangeSet`] of objects updated since it was last drained, plus
//!   [`UpdateProcess`] (simultaneous-periodic as in the paper, staggered,
//!   and Poisson).
//! * [`inflight`] — [`InFlightLedger`]: multi-round transfers over a
//!   FIFO fixed network, with single-flight coalescing and commitment
//!   accounting.
//! * [`topology`] — cells, base stations and mobile clients with
//!   handoff/disconnect, exercised by the `mobile_cell` example.
//! * [`invalidation`] — server invalidation reports, plus the regional
//!   [`VersionBus`] directory (freshest version wins) the L2 tier's
//!   coherence rides.
//! * [`intercell`] — [`InterCellLink`]: the per-round unit budget of the
//!   regional backbone L2 transfers travel.
//! * [`broadcast`] — broadcast-disk programs (the related-work baseline).
//! * [`backhaul`] — the shared fixed-network budget arbiter splitting a
//!   global per-round download budget across cells.
//!
//! # Example
//!
//! ```
//! use basecache_net::{Catalog, InFlightConfig, InFlightLedger, ObjectId, RemoteServer, Version};
//! use basecache_sim::SimTime;
//!
//! let catalog = Catalog::from_sizes(&[3, 5]);
//! let mut server = RemoteServer::new(&catalog);
//! let id = ObjectId(0);
//! server.apply_update(id, SimTime::from_ticks(7));
//! assert_eq!(server.version_of(id), Version(1));
//!
//! // Ship the fresh copy over a 2-units/round fixed network: its 3 units
//! // occupy the link for two rounds.
//! let mut ledger = InFlightLedger::new(InFlightConfig::coalescing(2), catalog.len());
//! let arrives = ledger.launch(id, server.version_of(id), catalog.size_of(id), 10);
//! assert_eq!(arrives, 12);
//!
//! // A request in round 11 joins the transfer instead of launching another.
//! assert!(ledger.joinable(id, server.version_of(id)));
//! assert_eq!(ledger.join(id, 1.0, 11), 10);
//! let mut waiters = Vec::new();
//! assert!(ledger.pop_arrival(11, &mut waiters).is_none());
//! let arrived = ledger.pop_arrival(12, &mut waiters).expect("lands in round 12");
//! assert_eq!((arrived.version, waiters.len()), (Version(1), 1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backhaul;
pub mod broadcast;
pub mod inflight;
pub mod intercell;
pub mod invalidation;
pub mod object;
pub mod server;
pub mod topology;

pub use backhaul::{ArbiterPolicy, ArbiterScratch, BackhaulArbiter};
pub use broadcast::BroadcastSchedule;
pub use inflight::{
    ActiveTransfer, Arrived, InFlightConfig, InFlightLedger, LedgerStats, ParkedWaiter,
};
pub use intercell::InterCellLink;
pub use invalidation::{InvalidationReport, PublishOutcome, ReportLog, VersionBus};
pub use object::{Catalog, ObjectId, Version};
pub use server::{ChangeSet, RemoteServer, UpdateProcess};
pub use topology::{CellId, ClientId, MobileClient, Topology, TopologyError};
