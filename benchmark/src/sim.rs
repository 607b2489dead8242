//! What the four workloads have in common: the closed-loop round the
//! driver times, the facts a round reports, what a pass installs to
//! observe the program, and the tape of inputs the layer replays use.

use std::sync::{Arc, Mutex};

use basecache_core::{BaseStationSim, RoundOutcome, StationBuilder};
use basecache_net::{InFlightConfig, ObjectId};
use basecache_obs::{CausalConfig, CausalRecorder, MONITOR_EVENTS};

use crate::metrics::Metrics;
use crate::recorder::{BenchRecorder, TraceLog};

/// What one round did, as far as a client or the origin can tell. The
/// driver checks it, sums it, and folds every field into the outcome
/// digest.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundFacts {
    /// The program's own round counter for this round.
    pub tick: u64,
    /// Client requests handed to the program this round.
    pub issued: u64,
    /// Requests answered this round (now, or after waiting on a transfer).
    pub served: u64,
    /// Requests still parked on in-flight transfers when the round ended.
    pub still_waiting: u64,
    /// Data units that arrived from the origin this round.
    pub units: u64,
    /// Requests answered without a same-round download of their object.
    pub cache_hits: u64,
    /// Mean delivered score over the requests answered this round.
    pub score: f64,
    /// Mean delivered recency over the requests answered this round.
    pub recency: f64,
    /// Workload-specific outcome fields (launches and joins; handoffs,
    /// demand, budget and L2 traffic), digested but not interpreted.
    pub extra: [u64; 5],
}

impl RoundFacts {
    /// The facts of one station round that was handed `issued` requests.
    pub fn from_outcome(out: &RoundOutcome, issued: u64) -> Self {
        Self {
            tick: out.tick,
            issued,
            served: out.served as u64,
            still_waiting: out.still_waiting as u64,
            units: out.units_downloaded,
            cache_hits: out.cache_hits as u64,
            score: out.average_score,
            recency: out.average_recency,
            extra: [
                out.launched as u64,
                out.joined as u64,
                out.served_after_wait as u64,
                out.objects_downloaded as u64,
                0,
            ],
        }
    }
}

/// One workload's program, built from a seed and stepped by the driver.
pub trait Sim {
    /// Apply round `i`'s pre-generated updates and churn, then step the
    /// program once. Rounds count from 0 through warm-up and on.
    fn round(&mut self, i: usize) -> RoundFacts;

    /// [`Self::round`] with the expensive cross-checks of the verify
    /// pass (re-planning the round with the exact DP).
    fn checked_round(&mut self, i: usize) -> Result<RoundFacts, String> {
        Ok(self.round(i))
    }

    /// Warm-up has ended; timed rounds follow. Snapshot whatever the
    /// layer metrics report as a difference over the timed rounds.
    fn warmed_up(&mut self) {}

    /// The most origin units one round may download, where transfers
    /// are instant and the budget therefore binds every round.
    fn unit_cap(&self) -> Option<u64>;

    /// Σ rounds waited by every request answered so far.
    fn wait_ticks(&self) -> f64 {
        0.0
    }

    /// Violations counted by the invariant monitors of a pass built
    /// under [`Observe::Causal`].
    fn monitor_violations(&self) -> u64;

    /// Traced pass, after timed round `i`, outside the timed region:
    /// put the round's replay inputs on the tape.
    fn record(&mut self, i: usize, tape: &mut Tape);

    /// After the traced pass: this workload's own layer metrics over
    /// its `rounds` timed rounds.
    fn layer_metrics(&self, rounds: usize, metrics: &mut Metrics);
}

/// What a pass installs in every station it builds.
#[derive(Debug, Clone)]
pub enum Observe {
    /// The default `NullRecorder`: the uninstrumented round.
    Nothing,
    /// The benchmark's recorder, all stations writing to one log.
    Trace(Arc<Mutex<TraceLog>>),
    /// The program's full causal stack, for its invariant monitor.
    Causal,
}

impl Observe {
    pub fn install(&self, builder: StationBuilder, cell: u16) -> StationBuilder {
        match self {
            Observe::Nothing => builder,
            Observe::Trace(log) => {
                builder.recorder(Box::new(BenchRecorder::new(cell, Arc::clone(log))))
            }
            Observe::Causal => {
                builder.recorder(Box::new(CausalRecorder::new(CausalConfig::default())))
            }
        }
    }

    /// Whether the pass also times the calls the driver itself makes
    /// into single layers (server updates, engine ingest).
    pub fn times_layers(&self) -> bool {
        matches!(self, Observe::Trace(_))
    }
}

/// Violations the station's causal recorder counted (0 under any other
/// recorder).
pub fn monitor_violations(station: &BaseStationSim) -> u64 {
    station
        .recorder()
        .as_any()
        .downcast_ref::<CausalRecorder>()
        .map_or(0, |causal| {
            MONITOR_EVENTS
                .iter()
                .map(|&e| causal.monitor().count(e))
                .sum()
        })
}

/// Inputs recorded from the traced pass, replayed afterwards against
/// single layers in isolation.
#[derive(Debug, Default)]
pub struct Tape {
    /// Catalog sizes, indexed by object id.
    pub sizes: Vec<u64>,
    /// Per round: the `(object, origin version)` pairs the planner chose.
    pub downloads: Vec<Vec<(ObjectId, u64)>>,
    /// Distinct request-object lists; rounds refer to them by index
    /// (the station cycles 64 batches, so 64 lists cover every round).
    pub request_sets: Vec<Vec<ObjectId>>,
    /// Per round: which of `request_sets` it served.
    pub round_set: Vec<usize>,
    /// Per round: requests that parked on an in-flight transfer.
    pub parked: Vec<u64>,
    /// The station's in-flight configuration, when it has one.
    pub flight: Option<InFlightConfig>,
    /// Per round: the demands the cells declared to the arbiter.
    pub demands: Vec<Vec<u64>>,
    /// The budget the arbiter splits, when there is an arbiter.
    pub backhaul_units: Option<u64>,
}

impl Tape {
    /// Record what `station`'s last round chose to download, at the
    /// versions the origin held then.
    pub fn push_downloads(&mut self, station: &BaseStationSim) {
        let server = station.server();
        let chosen = station
            .last_downloaded()
            .iter()
            .map(|&id| (id, server.version_of(id).0))
            .collect();
        self.downloads.push(chosen);
    }
}
