//! Network substrate for the mobile-computing environment of Figure 1:
//! remote servers with versioned objects and update processes, a
//! bandwidth-limited fixed network, the wireless downlink, and the
//! cell/base-station/client topology.
//!
//! The paper's analyses abstract the network to "k object-units may be
//! downloaded per time unit"; these models degrade to exactly that when
//! latency is zero and bandwidth is `k` units/tick, while also supporting
//! the latency/contention studies the extended benches run.
//!
//! Layout:
//!
//! * [`object`] — the shared object model: [`ObjectId`], [`Version`],
//!   [`ObjectSpec`], [`Catalog`].
//! * [`server`] — [`RemoteServer`] holding per-object versions, plus
//!   [`UpdateProcess`] (simultaneous-periodic as in the paper, staggered,
//!   and Poisson).
//! * [`link`] — [`Link`]: FIFO serialization over finite bandwidth with
//!   propagation latency and utilization accounting.
//! * [`downlink`] — [`Downlink`]: the wireless last hop, with the idle-
//!   bandwidth accounting the paper's introduction worries about.
//! * [`topology`] — cells, base stations and mobile clients with
//!   handoff/disconnect, exercised by the `mobile_cell` example.
//! * [`inflight`] — [`InFlightLedger`]: multi-round transfers with
//!   single-flight coalescing and commitment accounting.
//! * [`invalidation`] — server invalidation reports, plus the regional
//!   [`VersionBus`] version pub/sub the L2 tier's coherence rides.
//! * [`intercell`] — [`InterCellLink`]: the per-round unit budget of the
//!   regional backbone L2 transfers travel.
//! * [`broadcast`] — broadcast-disk programs (the related-work baseline).
//! * [`backhaul`] — the shared fixed-network budget arbiter splitting a
//!   global per-round download budget across cells.
//!
//! # Example
//!
//! ```
//! use basecache_net::{Catalog, Link, ObjectId, RemoteServer};
//! use basecache_sim::{SimDuration, SimTime};
//!
//! let catalog = Catalog::from_sizes(&[3, 5]);
//! let mut server = RemoteServer::new(&catalog);
//! server.apply_update(ObjectId(0), SimTime::from_ticks(7));
//! assert!(server.is_stale(ObjectId(0), basecache_net::Version(0)));
//!
//! // Ship a fresh copy over a 2-units/tick link with latency 3.
//! let mut link = Link::new(2, SimDuration::from_ticks(3));
//! let timing = link.enqueue(SimTime::from_ticks(10), catalog.size_of(ObjectId(0)));
//! assert_eq!(timing.arrives, SimTime::from_ticks(15)); // 2 ticks wire + 3 latency
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod backhaul;
pub mod broadcast;
pub mod downlink;
pub mod inflight;
pub mod intercell;
pub mod invalidation;
pub mod link;
pub mod object;
pub mod server;
pub mod topology;

pub use backhaul::{ArbiterPolicy, ArbiterScratch, BackhaulArbiter};
pub use broadcast::BroadcastSchedule;
pub use downlink::Downlink;
pub use inflight::{
    ActiveTransfer, Arrived, InFlightConfig, InFlightLedger, LedgerStats, ParkedWaiter,
};
pub use intercell::InterCellLink;
pub use invalidation::{
    BusUpdate, InvalidationReport, PublishOutcome, ReportLog, VersionBus, NO_HOLDER,
};
pub use link::{Link, SharedLink, TransferTiming};
pub use object::{Catalog, ObjectId, ObjectSpec, Version};
pub use server::{RemoteServer, UpdateProcess};
pub use topology::{BaseStationId, CellId, ClientId, MobileClient, Topology, TopologyError};
