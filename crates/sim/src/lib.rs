//! Deterministic discrete-event simulation engine.
//!
//! The paper's analyses are synthetic-workload simulations over integral
//! "time units". This crate provides the machinery those simulations (and
//! the richer network models in `basecache-net`) run on:
//!
//! * [`SimTime`] / [`SimDuration`] — integral tick clock with a
//!   configurable number of ticks per paper "time unit".
//! * [`Scheduler`] — a stable priority event queue: events at equal times
//!   dequeue in insertion order, so runs are bit-for-bit reproducible.
//! * [`RngStreams`] — named, independently seeded random streams derived
//!   from a single master seed with SplitMix64, so adding a stream never
//!   perturbs the draws of any other stream.
//! * [`metrics`] — the Welford mean/variance accumulator every
//!   experiment reports through.
//! * [`P2Quantile`] — streaming quantile estimation (p95 waits) in O(1)
//!   space.
//! * [`WorkerPool`] — a reusable std-thread pool for per-round fan-out
//!   (e.g. parallel per-cell planning in `basecache-cluster`).
//! * [`check`] — the seeded property-case runner the workspace's
//!   property suites use.
//!
//! # Example
//!
//! ```
//! use basecache_sim::{Scheduler, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev { Tick(u32) }
//!
//! let mut sched = Scheduler::new();
//! sched.schedule_at(SimTime::from_ticks(5), Ev::Tick(1));
//! sched.schedule_at(SimTime::from_ticks(2), Ev::Tick(0));
//! let (t, ev) = sched.pop().unwrap();
//! assert_eq!(t, SimTime::from_ticks(2));
//! assert_eq!(ev, Ev::Tick(0));
//! assert_eq!(sched.now(), SimTime::from_ticks(2));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod check;
pub mod metrics;
mod pool;
mod quantile;
mod rng;
mod scheduler;
mod time;

pub use pool::WorkerPool;
pub use quantile::P2Quantile;
pub use rng::{RandomRange, RandomValue, RngStreams, StreamRng};
pub use scheduler::Scheduler;
pub use time::{SimDuration, SimTime};
