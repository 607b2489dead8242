//! `cluster-roaming`: sixteen cells sharing one backhaul budget and a
//! regional L2 tier, 3 200 clients roaming a Markov ring. Sixteen small
//! knapsacks a round, so coordination — declare, arbitrate, L2 exchange,
//! publish, attribute — and in-step request generation carry the cost.
//! The only workload with `basecache-workload` and `basecache-cluster` on
//! the hot path.

use std::time::Instant;

use basecache_cluster::{ClusterSim, ClusterStepOutcome, L2Config};
use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::{ArbiterPolicy, BackhaulArbiter, Catalog, CellId};
use basecache_sim::RngStreams;
use basecache_workload::{ClusterWorkload, MobilityModel, Popularity, TargetRecency};

use crate::metrics::{ratio, Metrics};
use crate::sim::{monitor_violations, Observe, RoundFacts, Sim, Tape};

const CELLS: u32 = 16;
const OBJECTS: usize = 1_000;
const REQUESTS_PER_CLIENT: usize = 2;
const BACKHAUL_UNITS: u64 = 2_400;
const WAVE_EVERY: usize = 5;

/// `clients` is 3 200 at full scale, 64 for `--smoke`.
pub struct Cluster {
    cluster: ClusterSim,
    clients: u32,
    sizes: Vec<u64>,
    last: Option<ClusterStepOutcome>,
    /// An identical copy of the client population, advanced alongside
    /// the cluster's own to time `ClusterWorkload::advance` by itself.
    shadow: Option<ClusterWorkload>,
    advance_ns: u64,
    /// Cumulative L2 counters when warm-up ended.
    warm: L2Counters,
    // Sums over the recorded rounds.
    handoffs: u64,
    l2_transfers: u64,
    l2_units: u64,
    demand_units: u64,
    budget_units: u64,
}

#[derive(Debug, Clone, Copy, Default)]
struct L2Counters {
    publishes: u64,
    invalidations: u64,
    transfers: u64,
    denied: u64,
    tiers: [u64; 3],
}

impl Cluster {
    pub fn build(seed: u64, clients: u32, observe: &Observe) -> Self {
        let sizes: Vec<u64> = (0..OBJECTS as u64).map(|i| 1 + i % 5).collect();
        let stations = (0..CELLS)
            .map(|cell| {
                let builder = StationBuilder::new(Catalog::from_sizes(&sizes))
                    .on_demand(OnDemandPlanner::paper_default(), 0);
                observe
                    .install(builder, cell as u16)
                    .build()
                    .expect("valid configuration")
            })
            .collect();
        let workload = ClusterWorkload::new(
            CELLS,
            clients,
            Popularity::Uniform,
            Popularity::ZIPF1.build(OBJECTS),
            TargetRecency::Uniform { lo: 0.4, hi: 1.0 },
            REQUESTS_PER_CLIENT,
            MobilityModel::MarkovRing { move_prob: 0.2 },
            &RngStreams::new(seed),
        );
        let shadow = observe.times_layers().then(|| workload.clone());
        let cluster = ClusterSim::new(
            stations,
            workload,
            BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, BACKHAUL_UNITS),
        )
        .expect("one station per cell")
        .with_l2(L2Config {
            intercell_units_per_round: BACKHAUL_UNITS,
            ..L2Config::default()
        });
        Self {
            cluster,
            clients,
            sizes,
            last: None,
            shadow,
            advance_ns: 0,
            warm: L2Counters::default(),
            handoffs: 0,
            l2_transfers: 0,
            l2_units: 0,
            demand_units: 0,
            budget_units: 0,
        }
    }

    fn l2_counters(&self) -> L2Counters {
        let l2 = self.cluster.l2().expect("built with the L2 tier");
        L2Counters {
            publishes: l2.bus().sequence(),
            invalidations: l2.bus().invalidations(),
            transfers: l2.link().transfers(),
            denied: l2.link().denied(),
            tiers: l2.tier_totals(),
        }
    }
}

impl Sim for Cluster {
    fn round(&mut self, i: usize) -> RoundFacts {
        if i.is_multiple_of(WAVE_EVERY) {
            self.cluster.apply_update_wave();
        }
        let out = self.cluster.step();
        self.last = Some(out);
        RoundFacts {
            tick: out.tick,
            issued: u64::from(self.clients) * REQUESTS_PER_CLIENT as u64,
            served: out.served as u64,
            still_waiting: 0,
            units: out.units_downloaded,
            cache_hits: out.cache_hits as u64,
            score: out.average_score,
            recency: out.average_recency,
            extra: [
                out.handoffs,
                out.demand_units,
                out.budget_units,
                out.l2_transfers,
                out.l2_units,
            ],
        }
    }

    fn unit_cap(&self) -> Option<u64> {
        Some(BACKHAUL_UNITS)
    }

    fn warmed_up(&mut self) {
        self.warm = self.l2_counters();
        if let Some(shadow) = &mut self.shadow {
            for _ in 0..self.cluster.tick() {
                shadow.advance();
            }
        }
    }

    fn monitor_violations(&self) -> u64 {
        (0..CELLS)
            .map(|cell| monitor_violations(self.cluster.station(CellId(cell))))
            .sum()
    }

    /// Cell 0's downloads and requests feed the cache replays; every
    /// cell's declared demand feeds the arbiter replay.
    fn record(&mut self, _i: usize, tape: &mut Tape) {
        if tape.sizes.is_empty() {
            tape.sizes.clone_from(&self.sizes);
            tape.backhaul_units = Some(BACKHAUL_UNITS);
        }
        tape.push_downloads(self.cluster.station(CellId(0)));
        tape.demands.push(self.cluster.last_demands().to_vec());

        let last = self.last.expect("record follows a round");
        self.handoffs += last.handoffs;
        self.l2_transfers += last.l2_transfers;
        self.l2_units += last.l2_units;
        self.demand_units += last.demand_units;
        self.budget_units += last.budget_units;

        // The shadow population draws the same random streams, so after
        // its advance it holds the batches the cluster just served.
        if let Some(shadow) = &mut self.shadow {
            let started = Instant::now();
            shadow.advance();
            self.advance_ns += started.elapsed().as_nanos() as u64;
            tape.round_set.push(tape.request_sets.len());
            tape.request_sets
                .push(shadow.batch(CellId(0)).iter().map(|r| r.object).collect());
        }
    }

    fn layer_metrics(&self, rounds: usize, m: &mut Metrics) {
        let rounds = rounds as f64;
        let now = self.l2_counters();
        let since = |now: u64, warm: u64| (now - warm) as f64;
        m.set(
            "net.bus.publishes_per_round",
            since(now.publishes, self.warm.publishes) / rounds,
        );
        m.set(
            "net.bus.invalidations_per_round",
            since(now.invalidations, self.warm.invalidations) / rounds,
        );
        m.set(
            "net.intercell.transfers_per_round",
            since(now.transfers, self.warm.transfers) / rounds,
        );
        m.set(
            "net.intercell.denied_per_round",
            since(now.denied, self.warm.denied) / rounds,
        );
        let tiers: Vec<f64> = (0..3)
            .map(|t| since(now.tiers[t], self.warm.tiers[t]))
            .collect();
        let served: f64 = tiers.iter().sum();
        m.set("cluster.tier_share_l1", ratio(tiers[0], served));
        m.set("cluster.tier_share_l2", ratio(tiers[1], served));
        m.set("cluster.tier_share_origin", ratio(tiers[2], served));

        m.set("cluster.handoffs_per_round", self.handoffs as f64 / rounds);
        m.set(
            "cluster.l2_transfers_per_round",
            self.l2_transfers as f64 / rounds,
        );
        m.set("cluster.l2_units_per_round", self.l2_units as f64 / rounds);
        m.set(
            "cluster.demand_units_per_round",
            self.demand_units as f64 / rounds,
        );
        m.set(
            "cluster.budget_units_per_round",
            self.budget_units as f64 / rounds,
        );
        m.set(
            "workload.cluster_advance_us_mean",
            self.advance_ns as f64 / 1e3 / rounds,
        );
        let cached: u64 = (0..CELLS)
            .map(|cell| self.cluster.station(CellId(cell)).cached_units())
            .sum();
        m.set("cache.cached_units_end", cached as f64);
    }
}
