//! Client mobility across a multi-cell cluster.
//!
//! The paper models one cell; a production deployment shards the
//! geographic area into many, and clients roam. [`ClusterWorkload`]
//! owns a population of mobile clients, each with its *own* forked
//! request stream ([`basecache_sim::StreamRng::fork`]), and produces
//! one request batch per cell per tick. When a client hands off, its
//! stream — including its personal draw history — migrates with it, so
//! the destination cell inherits the client's demand while the cached
//! recency the client's requests earned in the origin cell stays
//! behind (per-cell caches; the cluster layer re-fetches on demand).
//!
//! Two stochastic models, both deterministic for a given master seed:
//!
//! * [`MobilityModel::MarkovRing`] — each tick a client moves to an
//!   adjacent cell on a ring with probability `move_prob` (left/right
//!   equally likely): local roaming between neighbouring cells.
//! * [`MobilityModel::RandomWaypoint`] — with probability `move_prob`
//!   the client jumps to a uniformly random *other* cell: the classic
//!   teleporting waypoint endpoint, stressing cold-start handoffs.

use basecache_net::{CellId, ClientId, ObjectId, Topology};
use basecache_sim::{RngStreams, StreamRng};

use crate::popularity::{Popularity, PopularityDist};
use crate::requests::{GeneratedRequest, TargetRecency};

/// How clients move between cells, applied once per client per tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MobilityModel {
    /// Nobody moves; the cluster degenerates into N independent cells.
    Stationary,
    /// Markov chain on a ring of cells: with probability `move_prob`
    /// hop to the left or right neighbour (equal odds).
    MarkovRing {
        /// Per-tick probability that a client hops.
        move_prob: f64,
    },
    /// Random waypoint (teleport form): with probability `move_prob`
    /// jump to a uniformly random other cell.
    RandomWaypoint {
        /// Per-tick probability that a client jumps.
        move_prob: f64,
    },
}

impl MobilityModel {
    fn validate(self) {
        let p = match self {
            MobilityModel::Stationary => return,
            MobilityModel::MarkovRing { move_prob }
            | MobilityModel::RandomWaypoint { move_prob } => move_prob,
        };
        assert!(
            (0.0..=1.0).contains(&p) && p.is_finite(),
            "move probability must lie in [0, 1]"
        );
    }

    /// The cell `client_rng` moves a client in `cell` to this tick
    /// (possibly unchanged). Pure in the RNG: the draw count depends
    /// only on the model and outcome, never on other clients.
    fn next_cell(self, cell: CellId, cells: u32, rng: &mut StreamRng) -> CellId {
        match self {
            MobilityModel::Stationary => cell,
            MobilityModel::MarkovRing { move_prob } => {
                if cells < 2 || rng.random::<f64>() >= move_prob {
                    return cell;
                }
                let right: bool = rng.random();
                let next = if right {
                    (cell.0 + 1) % cells
                } else {
                    (cell.0 + cells - 1) % cells
                };
                CellId(next)
            }
            MobilityModel::RandomWaypoint { move_prob } => {
                if cells < 2 || rng.random::<f64>() >= move_prob {
                    return cell;
                }
                // Uniform over the other cells: draw from [0, cells-1)
                // and skip past the current cell.
                let pick = rng.random_range(0..cells - 1);
                CellId(if pick >= cell.0 { pick + 1 } else { pick })
            }
        }
    }
}

#[derive(Debug, Clone)]
struct ClientState {
    mobility_rng: StreamRng,
    request_rng: StreamRng,
}

/// A roaming client population producing one request batch per cell
/// per tick.
#[derive(Debug, Clone)]
pub struct ClusterWorkload {
    topology: Topology,
    model: MobilityModel,
    popularity: PopularityDist,
    target: TargetRecency,
    requests_per_client: usize,
    clients: Vec<ClientState>,
    // One reusable batch buffer per cell; cleared and refilled each tick.
    batches: Vec<Vec<GeneratedRequest>>,
    ticks: u64,
}

impl ClusterWorkload {
    /// Build a population of `clients` clients over `cells` cells.
    ///
    /// Initial placement draws each client's home cell from
    /// `placement` (over cell ranks — use [`Popularity::Uniform`] for
    /// even load, a skewed model for hot-spot cells). Each client gets
    /// two RNGs forked off the factory's `"mobility"` and
    /// `"cluster-requests"` streams by client id, so adding clients or
    /// cells never perturbs existing streams and every draw sequence is
    /// reproducible from the master seed alone.
    ///
    /// # Panics
    ///
    /// Panics if `cells == 0`, `clients == 0`, or the mobility model's
    /// probability is outside `[0, 1]`.
    #[allow(clippy::too_many_arguments)] // flat workload definition, every knob orthogonal
    pub fn new(
        cells: u32,
        clients: u32,
        placement: Popularity,
        popularity: PopularityDist,
        target: TargetRecency,
        requests_per_client: usize,
        model: MobilityModel,
        streams: &RngStreams,
    ) -> Self {
        assert!(clients > 0, "a cluster workload needs clients");
        model.validate();
        let mut topology = Topology::new(cells);
        let placement_dist = placement.build(cells as usize);
        let mut placement_rng = streams.stream("placement");
        let mobility_parent = streams.stream("mobility");
        let request_parent = streams.stream("cluster-requests");
        let clients = (0..clients)
            .map(|id| {
                let cell = CellId(placement_dist.sample(&mut placement_rng) as u32);
                topology
                    .add_client(cell)
                    .expect("placement samples a valid cell");
                ClientState {
                    mobility_rng: mobility_parent.fork(u64::from(id)),
                    request_rng: request_parent.fork(u64::from(id)),
                }
            })
            .collect();
        Self {
            topology,
            model,
            popularity,
            target,
            requests_per_client,
            clients,
            batches: (0..cells).map(|_| Vec::new()).collect(),
            ticks: 0,
        }
    }

    /// Number of cells.
    pub fn cells(&self) -> u32 {
        self.topology.cells()
    }

    /// Number of clients.
    pub fn clients(&self) -> usize {
        self.clients.len()
    }

    /// Number of objects requests range over (the popularity's support):
    /// every generated [`ObjectId`] is below it.
    pub fn objects(&self) -> usize {
        self.popularity.len()
    }

    /// Ticks advanced so far.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Total handoffs since construction.
    pub fn total_handoffs(&self) -> u64 {
        self.topology.handoffs()
    }

    /// The cell `client` is currently in.
    pub fn cell_of(&self, client: ClientId) -> CellId {
        self.topology
            .client(client)
            .expect("client ids are dense")
            .cell
    }

    /// Clients currently in `cell`.
    pub fn population_of(&self, cell: CellId) -> usize {
        self.topology.connected_in(cell).count()
    }

    /// The batch generated for `cell` by the last [`Self::advance`].
    pub fn batch(&self, cell: CellId) -> &[GeneratedRequest] {
        &self.batches[cell.0 as usize]
    }

    /// All per-cell batches from the last [`Self::advance`], indexed by
    /// cell id.
    pub fn batches(&self) -> &[Vec<GeneratedRequest>] {
        &self.batches
    }

    /// Advance one tick: move every client per the mobility model, then
    /// generate each client's requests into its (new) cell's batch.
    /// Returns the number of handoffs this tick.
    ///
    /// Clients are processed in id order and each draws only from its
    /// own forked streams, so the result is independent of cell count
    /// iteration order and bit-reproducible for a given master seed.
    pub fn advance(&mut self) -> u64 {
        for b in &mut self.batches {
            b.clear();
        }
        let cells = self.topology.cells();
        let before = self.topology.handoffs();
        for (index, state) in self.clients.iter_mut().enumerate() {
            let id = ClientId(index as u32);
            let cell = self.topology.client(id).expect("client ids are dense").cell;
            let next = self.model.next_cell(cell, cells, &mut state.mobility_rng);
            if next != cell {
                self.topology
                    .hand_off(id, next)
                    .expect("mobility targets valid cells");
            }
            let batch = &mut self.batches[next.0 as usize];
            for _ in 0..self.requests_per_client {
                batch.push(GeneratedRequest {
                    object: ObjectId(self.popularity.sample(&mut state.request_rng) as u32),
                    target_recency: self.target.sample(&mut state.request_rng),
                });
            }
        }
        self.ticks += 1;
        self.topology.handoffs() - before
    }
}

/// A packaged Markov-ring roaming scenario: the canonical workload the
/// cooperative (L2) cluster experiments run against, and the regime
/// Avrachenkov et al.'s geographic-overlap argument needs — the *same*
/// Zipf-popular catalog is demanded from every cell, so a neighbor
/// usually fetched what this cell is about to pay origin for.
///
/// Bundling the knobs keeps experiment, bench and test call sites in
/// literal agreement instead of each re-spelling the same nine
/// [`ClusterWorkload::new`] arguments.
#[derive(Debug, Clone)]
pub struct RoamingScenario {
    /// Cells on the ring.
    pub cells: u32,
    /// Roaming clients over the whole region.
    pub clients: u32,
    /// Catalog size the shared Zipf popularity is built over.
    pub objects: usize,
    /// Requests per client per tick.
    pub requests_per_client: usize,
    /// Per-tick probability that a client hops to a ring neighbour.
    pub move_prob: f64,
}

impl RoamingScenario {
    /// Build the workload: uniform initial placement, shared Zipf(1)
    /// object popularity, always-fresh targets, Markov-ring mobility.
    pub fn build(&self, streams: &RngStreams) -> ClusterWorkload {
        ClusterWorkload::new(
            self.cells,
            self.clients,
            Popularity::Uniform,
            Popularity::ZIPF1.build(self.objects),
            TargetRecency::AlwaysFresh,
            self.requests_per_client,
            MobilityModel::MarkovRing {
                move_prob: self.move_prob,
            },
            streams,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workload(cells: u32, clients: u32, model: MobilityModel, seed: u64) -> ClusterWorkload {
        ClusterWorkload::new(
            cells,
            clients,
            Popularity::Uniform,
            Popularity::ZIPF1.build(50),
            TargetRecency::AlwaysFresh,
            2,
            model,
            &RngStreams::new(seed),
        )
    }

    #[test]
    fn stationary_clients_never_hand_off() {
        let mut w = workload(4, 100, MobilityModel::Stationary, 7);
        for _ in 0..20 {
            assert_eq!(w.advance(), 0);
        }
        assert_eq!(w.total_handoffs(), 0);
    }

    #[test]
    fn batches_cover_every_client_every_tick() {
        let mut w = workload(4, 100, MobilityModel::MarkovRing { move_prob: 0.3 }, 7);
        for _ in 0..10 {
            w.advance();
            let total: usize = w.batches().iter().map(Vec::len).sum();
            assert_eq!(total, 200, "every client issues 2 requests");
        }
    }

    #[test]
    fn markov_ring_moves_clients_between_adjacent_cells() {
        let mut w = workload(8, 200, MobilityModel::MarkovRing { move_prob: 0.5 }, 11);
        let before: Vec<CellId> = (0..200).map(|i| w.cell_of(ClientId(i))).collect();
        let moved = w.advance();
        assert!(moved > 0, "with p=0.5 over 200 clients someone moves");
        for i in 0..200 {
            let (a, b) = (before[i as usize], w.cell_of(ClientId(i)));
            if a != b {
                let diff = (a.0 as i64 - b.0 as i64).rem_euclid(8);
                assert!(diff == 1 || diff == 7, "{a:?} -> {b:?} is not adjacent");
            }
        }
        assert_eq!(w.total_handoffs(), moved);
    }

    #[test]
    fn waypoint_jumps_land_anywhere_but_here() {
        let mut w = workload(6, 300, MobilityModel::RandomWaypoint { move_prob: 1.0 }, 13);
        let before: Vec<CellId> = (0..300).map(|i| w.cell_of(ClientId(i))).collect();
        let moved = w.advance();
        assert_eq!(moved, 300, "p=1 moves everyone");
        for i in 0..300 {
            assert_ne!(before[i as usize], w.cell_of(ClientId(i)));
        }
    }

    #[test]
    fn single_cell_cluster_cannot_hand_off() {
        let mut w = workload(1, 50, MobilityModel::RandomWaypoint { move_prob: 1.0 }, 17);
        for _ in 0..5 {
            assert_eq!(w.advance(), 0);
        }
        assert_eq!(w.batch(CellId(0)).len(), 100);
    }

    #[test]
    fn same_seed_reproduces_the_same_history() {
        let mut a = workload(5, 80, MobilityModel::MarkovRing { move_prob: 0.25 }, 23);
        let mut b = workload(5, 80, MobilityModel::MarkovRing { move_prob: 0.25 }, 23);
        for _ in 0..15 {
            assert_eq!(a.advance(), b.advance());
            assert_eq!(a.batches(), b.batches());
        }
        let cells_a: Vec<CellId> = (0..80).map(|i| a.cell_of(ClientId(i))).collect();
        let cells_b: Vec<CellId> = (0..80).map(|i| b.cell_of(ClientId(i))).collect();
        assert_eq!(cells_a, cells_b);
    }

    #[test]
    fn request_stream_migrates_with_the_client() {
        // A client's draws depend only on its own forked stream: the
        // same population with mobility on and off requests the same
        // object sequence per client, only attributed to different
        // cells.
        let mut moving = workload(3, 1, MobilityModel::RandomWaypoint { move_prob: 1.0 }, 29);
        let mut still = workload(3, 1, MobilityModel::Stationary, 29);
        for _ in 0..10 {
            moving.advance();
            still.advance();
            let from_moving: Vec<_> = moving.batches().iter().flatten().collect();
            let from_still: Vec<_> = still.batches().iter().flatten().collect();
            assert_eq!(from_moving, from_still, "stream content is client-bound");
        }
    }

    #[test]
    fn skewed_placement_concentrates_population() {
        let w = ClusterWorkload::new(
            8,
            800,
            Popularity::ZIPF1,
            Popularity::Uniform.build(10),
            TargetRecency::AlwaysFresh,
            1,
            MobilityModel::Stationary,
            &RngStreams::new(31),
        );
        let hot = w.population_of(CellId(0));
        let cold = w.population_of(CellId(7));
        assert!(
            hot > cold,
            "zipf placement: cell 0 ({hot}) > cell 7 ({cold})"
        );
    }

    #[test]
    #[should_panic(expected = "move probability")]
    fn invalid_move_probability_is_rejected() {
        let _ = workload(2, 1, MobilityModel::MarkovRing { move_prob: 1.5 }, 1);
    }
}
