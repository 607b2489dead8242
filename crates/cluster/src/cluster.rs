//! The cluster simulation: N cells, one shared backhaul, one roaming
//! client population.

use std::fmt;

use basecache_core::{BaseStationSim, Error, RoundOutcome};
use basecache_net::{ArbiterScratch, BackhaulArbiter, CellId, ObjectId};
use basecache_obs::{Attr, Event, NullRecorder, Recorder, Sample, Snapshot};
use basecache_workload::{ClusterWorkload, GeneratedRequest};

use crate::l2::{L2Config, RegionalL2, TIER_L1, TIER_L2, TIER_ORIGIN};

/// One cell: a base station and its round batch's aggregation — the
/// batch's distinct objects, ascending, with their request counts. The
/// aggregation is built once a round, and it is what the coordination
/// steps read: demand declaration, the L2 exchange and tier attribution
/// all work per requested object, as the paper's mapping does.
#[derive(Debug)]
struct Cell {
    station: BaseStationSim,
    /// Requests per catalog object; all zero outside [`Self::load`].
    counts: Vec<u32>,
    distinct: Vec<(ObjectId, u32)>,
}

impl Cell {
    fn new(station: BaseStationSim) -> Self {
        let objects = station.catalog().len();
        Self {
            station,
            counts: vec![0; objects],
            distinct: Vec::with_capacity(objects),
        }
    }

    /// Aggregate this round's batch: count the requests per object into
    /// the catalog-sized column, then compact the column into
    /// `distinct`, leaving it zeroed for the next round.
    fn load(&mut self, batch: &[GeneratedRequest]) {
        for r in batch {
            self.counts[r.object.index()] += 1;
        }
        // Branch-free: a quarter of the column is occupied, in no
        // pattern a predictor learns — write every slot, keep the
        // occupied ones by advancing the length.
        self.distinct.resize(self.counts.len(), (ObjectId(0), 0));
        let mut len = 0;
        for (object, count) in self.counts.iter_mut().enumerate() {
            self.distinct[len] = (ObjectId(object as u32), *count);
            len += usize::from(*count > 0);
            *count = 0;
        }
        self.distinct.truncate(len);
    }

    /// Data units of stale requested demand in the current batch: each
    /// distinct requested object whose *estimated* recency is below 1
    /// counts its catalog size once. This is what the cell declares to
    /// the backhaul arbiter.
    fn declared_demand(&self) -> u64 {
        let station = &self.station;
        let demand: u64 = self
            .distinct
            .iter()
            .filter(|&&(object, _)| station.estimated_recency_of(object) < 1.0)
            .map(|&(object, _)| station.catalog().size_of(object))
            .sum();
        // Units already committed to this station's in-flight transfers
        // are on the wire, not new demand — subtract them so the
        // arbiter stops double-counting bandwidth (PR 7 follow-on).
        // Zero outside in-flight mode, keeping the instantaneous path
        // bit-identical.
        let committed = station
            .flight_ledger()
            .map_or(0, |ledger| ledger.committed_at(station.tick()));
        demand.saturating_sub(committed)
    }
}

/// Construction errors.
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// The number of stations does not match the workload's cell count.
    CellCountMismatch {
        /// Stations supplied.
        stations: usize,
        /// Cells in the workload.
        cells: u32,
    },
    /// The workload requests objects a station's catalog does not hold.
    CatalogTooSmall {
        /// The cell whose station falls short.
        cell: usize,
        /// Objects in that station's catalog.
        catalog: usize,
        /// Objects the workload's popularity ranges over.
        requested: usize,
    },
    /// A station refused the whole backhaul budget, the most the arbiter
    /// can hand one cell (a plan table past
    /// `basecache_core::scratch::MAX_PLAN_TABLE_BYTES`).
    BudgetRefused {
        /// The cell whose station refused it.
        cell: usize,
        /// The station's error.
        error: Error,
    },
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::CellCountMismatch { stations, cells } => write!(
                f,
                "{stations} station(s) supplied for a {cells}-cell workload"
            ),
            Self::CatalogTooSmall {
                cell,
                catalog,
                requested,
            } => write!(
                f,
                "cell {cell}'s catalog holds {catalog} object(s), the workload requests {requested}"
            ),
            Self::BudgetRefused { cell, error } => {
                write!(
                    f,
                    "cell {cell}'s station refused the backhaul budget: {error}"
                )
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// What one cluster round produced, aggregated across cells in cell
/// order. Per-cell outcomes are available from
/// [`ClusterSim::last_outcomes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterStepOutcome {
    /// The time unit just simulated (0-based).
    pub tick: u64,
    /// Client handoffs performed at the start of this round.
    pub handoffs: u64,
    /// Requests served across all cells.
    pub served: usize,
    /// Requests served without a same-round download (cache hits).
    pub cache_hits: usize,
    /// Objects downloaded across all cells.
    pub objects_downloaded: usize,
    /// Data units downloaded across all cells.
    pub units_downloaded: u64,
    /// Stale requested demand declared to the arbiter, in data units.
    pub demand_units: u64,
    /// Budget the arbiter actually allocated, in data units.
    pub budget_units: u64,
    /// Served-weighted mean client score (1.0 when no requests).
    pub average_score: f64,
    /// Served-weighted mean delivered recency (1.0 when no requests).
    pub average_recency: f64,
    /// Copies pulled over the inter-cell backbone this round (0 with
    /// the L2 tier disabled).
    pub l2_transfers: u64,
    /// Data units those L2 transfers moved (0 with the tier disabled).
    pub l2_units: u64,
}

/// The sharded multi-cell simulation.
///
/// Each round: advance the roaming workload (handoffs + per-cell
/// batches), let every cell declare its stale demand, split the global
/// backhaul budget across cells with the arbiter, step every cell
/// under its allocation in cell order, and aggregate the round into
/// the cluster-level recorder.
#[derive(Debug)]
pub struct ClusterSim {
    cells: Vec<Cell>,
    workload: ClusterWorkload,
    arbiter: BackhaulArbiter,
    recorder: Box<dyn Recorder>,
    tick: u64,
    demands: Vec<u64>,
    budgets: Vec<u64>,
    arbiter_scratch: ArbiterScratch,
    last_outcomes: Vec<RoundOutcome>,
    /// The regional L2 tier; `None` (the default) is the exact PR 8
    /// cluster, bit for bit.
    l2: Option<RegionalL2>,
}

impl ClusterSim {
    /// Assemble a cluster from one station per workload cell. Station
    /// `i` serves cell `i`. The default recorder is the no-op
    /// [`NullRecorder`]. Every station is re-budgeted here to the whole
    /// backhaul budget, the most the arbiter can hand one cell, so a
    /// budget a station cannot plan under is refused once, here, and
    /// never in a round (which re-budgets every cell before stepping it).
    pub fn new(
        mut stations: Vec<BaseStationSim>,
        workload: ClusterWorkload,
        arbiter: BackhaulArbiter,
    ) -> Result<Self, ClusterError> {
        if stations.len() != workload.cells() as usize {
            return Err(ClusterError::CellCountMismatch {
                stations: stations.len(),
                cells: workload.cells(),
            });
        }
        let requested = workload.objects();
        for (cell, station) in stations.iter_mut().enumerate() {
            let catalog = station.catalog().len();
            if catalog < requested {
                return Err(ClusterError::CatalogTooSmall {
                    cell,
                    catalog,
                    requested,
                });
            }
            station
                .set_download_budget(arbiter.total_budget())
                .map_err(|error| ClusterError::BudgetRefused { cell, error })?;
        }
        let cells: Vec<Cell> = stations.into_iter().map(Cell::new).collect();
        let n = cells.len();
        Ok(Self {
            cells,
            workload,
            arbiter,
            recorder: Box::new(NullRecorder),
            tick: 0,
            demands: vec![0; n],
            budgets: vec![0; n],
            arbiter_scratch: ArbiterScratch::default(),
            last_outcomes: Vec::with_capacity(n),
            l2: None,
        })
    }

    /// Enable the regional L2 tier (shared version directory +
    /// inter-cell backbone). L2 rounds step cells interleaved in cell
    /// id order — exchange, step, publish — so each cell's exchange
    /// already sees every earlier cell's same-round origin downloads.
    pub fn with_l2(mut self, config: L2Config) -> Self {
        let catalog = self.cells[0].station.catalog();
        self.l2 = Some(RegionalL2::new(catalog, config));
        self
    }

    /// The regional L2 tier, when enabled.
    pub fn l2(&self) -> Option<&RegionalL2> {
        self.l2.as_ref()
    }

    /// Install a cluster-level recorder for the aggregate round
    /// observables (per-cell recorders are installed per station via
    /// `StationBuilder::recorder`).
    pub fn with_recorder(mut self, recorder: Box<dyn Recorder>) -> Self {
        self.recorder = recorder;
        self
    }

    /// Number of cells.
    pub fn cells(&self) -> usize {
        self.cells.len()
    }

    /// The station serving `cell`.
    pub fn station(&self, cell: CellId) -> &BaseStationSim {
        &self.cells[cell.0 as usize].station
    }

    /// The roaming client population.
    pub fn workload(&self) -> &ClusterWorkload {
        &self.workload
    }

    /// The backhaul arbiter in force.
    pub fn arbiter(&self) -> &BackhaulArbiter {
        &self.arbiter
    }

    /// The cluster-level recorder.
    pub fn recorder(&self) -> &dyn Recorder {
        &*self.recorder
    }

    /// Materialize the cluster-level recorder's state.
    pub fn obs_snapshot(&self) -> Snapshot {
        self.recorder.snapshot()
    }

    /// The current time unit (number of rounds taken).
    pub fn tick(&self) -> u64 {
        self.tick
    }

    /// Per-cell outcomes of the most recent round, in cell order.
    pub fn last_outcomes(&self) -> &[RoundOutcome] {
        &self.last_outcomes
    }

    /// Per-cell budget allocations of the most recent round.
    pub fn last_budgets(&self) -> &[u64] {
        &self.budgets
    }

    /// Per-cell demand declarations of the most recent round.
    pub fn last_demands(&self) -> &[u64] {
        &self.demands
    }

    /// Update every remote object in every cell simultaneously (the
    /// paper's update waves, cluster-wide).
    pub fn apply_update_wave(&mut self) {
        for cell in &mut self.cells {
            cell.station.apply_update_wave();
        }
    }

    /// Simulate one cluster round. See the type-level docs for the
    /// phase sequence.
    pub fn step(&mut self) -> ClusterStepOutcome {
        // 1. Mobility: clients move, then emit this round's batches.
        let handoffs = self.workload.advance();
        for (i, cell) in self.cells.iter_mut().enumerate() {
            cell.load(self.workload.batch(CellId(i as u32)));
        }

        // 2. Demand declaration + backhaul arbitration.
        self.demands.clear();
        self.demands
            .extend(self.cells.iter().map(Cell::declared_demand));
        self.arbiter
            .allocate_with(&self.demands, &mut self.budgets, &mut self.arbiter_scratch);
        for (cell, &budget) in self.cells.iter_mut().zip(&self.budgets) {
            // No share exceeds the whole budget `new` checked, and the
            // plan table only grows with the budget.
            let set = cell.station.set_download_budget(budget);
            debug_assert!(set.is_ok(), "{set:?}");
        }

        // 3. Step every cell under its allocation, in cell id order.
        // With the L2 tier enabled each cell's round is wrapped in
        // exchange before and publish after, because cell i+1's
        // exchange must see cell i's same-round publishes for the
        // region single-flight guarantee to hold.
        self.last_outcomes.clear();
        let recorder: &dyn Recorder = &*self.recorder;
        if let Some(l2) = &mut self.l2 {
            l2.begin_round();
        }
        for (i, cell) in self.cells.iter_mut().enumerate() {
            let id = i as u32;
            if let Some(l2) = &mut self.l2 {
                l2.exchange(&mut cell.station, &cell.distinct, id, self.tick, recorder);
            }
            let outcome = cell.station.step(self.workload.batch(CellId(id)));
            if let Some(l2) = &mut self.l2 {
                cell.station.clear_plan_exclusions();
                l2.publish_downloads(&cell.station, id, self.tick, recorder);
                l2.attribute_serves(&cell.station, &cell.distinct, self.tick, recorder);
            }
            self.last_outcomes.push(outcome);
        }
        if let Some(l2) = &mut self.l2 {
            l2.end_round();
        }

        // 4. Aggregate in cell order.
        let mut served = 0usize;
        let mut hits = 0usize;
        let mut objects = 0usize;
        let mut units = 0u64;
        let mut score_sum = 0.0f64;
        let mut recency_sum = 0.0f64;
        for outcome in &self.last_outcomes {
            served += outcome.served;
            hits += outcome.cache_hits;
            objects += outcome.objects_downloaded;
            units += outcome.units_downloaded;
            score_sum += outcome.average_score * outcome.served as f64;
            recency_sum += outcome.average_recency * outcome.served as f64;
        }
        let demand_units: u64 = self.demands.iter().sum();
        let budget_units: u64 = self.budgets.iter().sum();
        let outcome = ClusterStepOutcome {
            tick: self.tick,
            handoffs,
            served,
            cache_hits: hits,
            objects_downloaded: objects,
            units_downloaded: units,
            demand_units,
            budget_units,
            average_score: if served > 0 {
                score_sum / served as f64
            } else {
                1.0
            },
            average_recency: if served > 0 {
                recency_sum / served as f64
            } else {
                1.0
            },
            l2_transfers: self.l2.as_ref().map_or(0, |l2| l2.round_transfers()),
            l2_units: self.l2.as_ref().map_or(0, |l2| l2.round_units()),
        };
        self.record_round(&outcome);
        self.tick += 1;
        outcome
    }

    fn record_round(&self, outcome: &ClusterStepOutcome) {
        let recorder: &dyn Recorder = &*self.recorder;
        recorder.begin_round(outcome.tick);
        recorder.incr(Event::Rounds);
        recorder.add(Event::Handoffs, outcome.handoffs);
        recorder.add(Event::RequestsServed, outcome.served as u64);
        recorder.add(Event::ObjectsDownloaded, outcome.objects_downloaded as u64);
        recorder.add(Event::UnitsDownloaded, outcome.units_downloaded);
        recorder.sample(Sample::BatchSize, outcome.served as f64);
        recorder.sample(Sample::AverageScore, outcome.average_score);
        recorder.sample(Sample::AverageRecency, outcome.average_recency);
        if outcome.served > 0 {
            recorder.sample(
                Sample::CacheHitRatio,
                outcome.cache_hits as f64 / outcome.served as f64,
            );
        }
        let total = self.arbiter.total_budget();
        if total > 0 {
            recorder.sample(
                Sample::DownlinkUtilization,
                outcome.units_downloaded as f64 / total as f64,
            );
        }
        if recorder.enabled() {
            // Cluster-wide gauges: requests still parked on in-flight
            // transfers, and units resident across every cell's cache
            // (the invariant monitor's accounting input).
            let still_waiting: u64 = self
                .last_outcomes
                .iter()
                .map(|o| o.still_waiting as u64)
                .sum();
            recorder.sample(Sample::StillWaiting, still_waiting as f64);
            let cached: u64 = self.cells.iter().map(|c| c.station.cached_units()).sum();
            recorder.sample(Sample::CachedUnits, cached as f64);
            for (i, cell_outcome) in self.last_outcomes.iter().enumerate() {
                let key = i as u32;
                if cell_outcome.units_downloaded > 0 {
                    recorder.attribute(
                        Attr::DownlinkUnitsByCell,
                        key,
                        cell_outcome.units_downloaded,
                    );
                }
                // Staleness charged in thousandths per served request,
                // matching the station's per-object convention.
                let staleness =
                    ((1.0 - cell_outcome.average_recency) * cell_outcome.served as f64 * 1_000.0)
                        .round() as u64;
                if staleness > 0 {
                    recorder.attribute(Attr::ServeStalenessByCell, key, staleness);
                }
            }
        }
        // L2-only channels: absent (not zero) while the tier is
        // disabled, so the disabled round records exactly as before.
        if let Some(l2) = &self.l2 {
            recorder.add(Event::L2Transfers, l2.round_transfers());
            recorder.add(Event::L2Units, l2.round_units());
            recorder.add(Event::L2Invalidations, l2.round_invalidations());
            if recorder.enabled() {
                let tiers = l2.round_tiers();
                for (tier, &count) in [TIER_L1, TIER_L2, TIER_ORIGIN].iter().zip(&tiers) {
                    if count > 0 {
                        recorder.attribute(Attr::ServesByTier, *tier, count);
                    }
                }
            }
        }
        recorder.end_round(outcome.tick);
    }
}
