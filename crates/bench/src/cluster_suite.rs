//! The cluster crate's bench record, `BENCH_cluster.json`.
//!
//! * `cluster_round/sequential/*` — one full `ClusterSim::step`
//!   (mobility, demand declaration, backhaul arbitration, every cell's
//!   planning round, aggregation) at 1, 4 and 16 cells. The client
//!   population is fixed while the cell count sweeps, so the series
//!   shows what sharding the same service area costs.
//! * `cluster/l2/{off,on}` — the same round with the regional tier off
//!   and on, and the tier's `l2_origin_savings`.
//! * `cluster/roaming/16x3200/*` — the round at the shape of the
//!   end-to-end benchmark's `cluster-roaming` workload, whole (`step`)
//!   and by coordination phase (`declare`, `exchange`, `attribute`).

use std::any::Any;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use basecache_cluster::{ClusterSim, L2Config};
use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_experiments::ext_cluster;
use basecache_net::{ArbiterPolicy, BackhaulArbiter, Catalog};
use basecache_obs::{Event, Recorder, Sample, Snapshot, Stage};
use basecache_sim::RngStreams;
use basecache_workload::{ClusterWorkload, MobilityModel, Popularity, TargetRecency};

use crate::harness::{bench_n, report, write_record, Measurement};

/// Cell counts swept by the cluster-round benches.
const CELL_COUNTS: [u32; 3] = [1, 4, 16];

const SAMPLES: usize = 10;

/// The size of a benched cluster; every client issues two requests a
/// round and roams a Markov ring.
#[derive(Debug, Clone, Copy)]
struct Shape {
    cells: u32,
    objects: usize,
    clients: u32,
    backhaul: u64,
    seed: u64,
}

/// The scaling series: a fixed population over a swept cell count.
const fn sweep(cells: u32) -> Shape {
    Shape {
        cells,
        objects: 200,
        clients: 320,
        backhaul: 480,
        seed: 82,
    }
}

/// `cluster-roaming` as `benchmark/src/cluster.rs` builds it.
const ROAMING: Shape = Shape {
    cells: 16,
    objects: 1_000,
    clients: 3_200,
    backhaul: 2_400,
    seed: 1,
};
/// Rounds between cluster-wide update waves on the roaming shape.
const WAVE_EVERY: usize = 5;

/// Build the cluster; with a `clock`, every station reports its round's
/// start and end to it.
fn build_cluster(shape: Shape, clock: Option<&Arc<PhaseClock>>) -> ClusterSim {
    let sizes: Vec<u64> = (0..shape.objects as u64).map(|i| 1 + i % 5).collect();
    let stations = (0..shape.cells)
        .map(|_| {
            let mut builder = StationBuilder::new(Catalog::from_sizes(&sizes))
                .on_demand(OnDemandPlanner::paper_default(), 0);
            if let Some(clock) = clock {
                builder = builder.recorder(Box::new(Probe::Cell(Arc::clone(clock))));
            }
            builder.build().expect("valid configuration")
        })
        .collect();
    let workload = ClusterWorkload::new(
        shape.cells,
        shape.clients,
        Popularity::Uniform,
        Popularity::ZIPF1.build(shape.objects),
        TargetRecency::Uniform { lo: 0.4, hi: 1.0 },
        2,
        MobilityModel::MarkovRing { move_prob: 0.2 },
        &RngStreams::new(shape.seed),
    );
    ClusterSim::new(
        stations,
        workload,
        BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, shape.backhaul),
    )
    .expect("one station per cell")
}

fn with_l2(cluster: ClusterSim, shape: Shape) -> ClusterSim {
    cluster.with_l2(L2Config {
        intercell_units_per_round: shape.backhaul,
    })
}

/// Bench the cluster round at each cell count.
fn bench_cluster_rounds(results: &mut Vec<Measurement>) {
    for cells in CELL_COUNTS {
        let mut cluster = build_cluster(sweep(cells), None);
        results.push(bench_n(
            &format!("cluster_round/sequential/{cells}"),
            SAMPLES,
            || black_box(cluster.step()),
        ));
    }
}

/// Cell count the L2-tier benches run at: the acceptance scale of the
/// regional tier (8+ cells under Markov-ring roaming).
const L2_CELLS: u32 = 8;

/// Bench the cluster round with the regional L2 tier off and on at
/// [`L2_CELLS`] cells (`cluster/l2/off` vs `cluster/l2/on` — the tier's
/// directory exchange, backbone transfers and publishes all land inside
/// the measured step), then measure the tier's origin-bandwidth savings
/// over the quick experiment sweep. Returns the savings fraction
/// (`1 - on/off` origin units), the `l2_origin_savings` headline.
fn bench_l2_rounds(results: &mut Vec<Measurement>) -> f64 {
    let shape = sweep(L2_CELLS);
    let mut off = build_cluster(shape, None);
    results.push(bench_n("cluster/l2/off", SAMPLES, || black_box(off.step())));

    let mut on = with_l2(build_cluster(shape, None), shape);
    results.push(bench_n("cluster/l2/on", SAMPLES, || black_box(on.step())));

    let params = ext_cluster::L2Params::quick();
    let config = L2Config {
        intercell_units_per_round: params.intercell_budget,
    };
    let (_, off_units) = ext_cluster::run_l2_point(&params, L2_CELLS, None);
    let (_, on_units) = ext_cluster::run_l2_point(&params, L2_CELLS, Some(config));
    if off_units > 0 {
        1.0 - on_units as f64 / off_units as f64
    } else {
        0.0
    }
}

/// What a [`Probe`] saw, in the order a round produces them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    /// The cluster asked its recorder whether it is live — which it does
    /// once at the head of each L2 phase (exchange, publish, attribute).
    Asked,
    /// A station's round began.
    CellBegin,
    /// A station's round ended.
    CellEnd,
    /// The cluster began recording the finished round.
    Recorded,
}

/// The marks of one cluster round, each with the time it was made.
#[derive(Debug, Default)]
struct PhaseClock(Mutex<Vec<(Mark, Instant)>>);

impl PhaseClock {
    fn stamp(&self, mark: Mark) {
        let now = Instant::now();
        self.0
            .lock()
            .expect("stamping never panics")
            .push((mark, now));
    }

    /// Split the round that began at `start` into the time before the
    /// first exchange, the exchanges and the attributions, and forget it.
    /// The cluster has no stage spans yet (ROADMAP item 2), so the split
    /// leans on the order of its recorder calls, and refuses a round that
    /// made them in any other.
    fn take_phases(&self, start: Instant, cells: usize) -> [Duration; 3] {
        use Mark::{Asked, CellBegin, CellEnd, Recorded};
        let mut marks = self.0.lock().expect("stamping never panics");
        let per_cell = [Asked, CellBegin, CellEnd, Asked, Asked];
        let expected = per_cell.iter().cycle().take(5 * cells).chain([&Recorded]);
        assert!(
            marks.len() > 5 * cells
                && marks
                    .iter()
                    .map(|(mark, _)| mark)
                    .zip(expected)
                    .all(|(a, b)| a == b),
            "an L2 round asks its recorder at the head of exchange, publish \
             and attribute, around each cell's station round"
        );
        let at = |i: usize| marks[i].1;
        let mut phases = [at(0) - start, Duration::ZERO, Duration::ZERO];
        for cell in (0..5 * cells).step_by(5) {
            phases[1] += at(cell + 1) - at(cell);
            phases[2] += at(cell + 5) - at(cell + 4);
        }
        marks.clear();
        phases
    }
}

/// A recorder that is never live and stamps a [`PhaseClock`]: installed
/// on the cluster it marks the L2 phases, on a station that cell's round.
#[derive(Debug)]
enum Probe {
    Cluster(Arc<PhaseClock>),
    Cell(Arc<PhaseClock>),
}

impl Recorder for Probe {
    fn enabled(&self) -> bool {
        if let Self::Cluster(clock) = self {
            clock.stamp(Mark::Asked);
        }
        false
    }
    fn add(&self, _: Event, _: u64) {}
    fn sample(&self, _: Sample, _: f64) {}
    fn span_ns(&self, _: Stage, _: u64) {}
    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }
    fn begin_round(&self, _tick: u64) {
        match self {
            Self::Cluster(clock) => clock.stamp(Mark::Recorded),
            Self::Cell(clock) => clock.stamp(Mark::CellBegin),
        }
    }
    fn end_round(&self, _tick: u64) {
        if let Self::Cell(clock) = self {
            clock.stamp(Mark::CellEnd);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Bench the round at the [`ROAMING`] shape with the L2 tier on and a
/// cluster-wide update wave every [`WAVE_EVERY`] rounds: whole, then —
/// on a second, probed cluster — by phase, one sample a round summed
/// over the sixteen cells. `advance` is the workload's advance (the
/// roaming moves and every client's request draw), timed on a twin of
/// the population; `declare` is everything between it and the first
/// exchange (batch aggregation, demand declaration, arbitration), the
/// advance taken out.
fn bench_roaming_round(results: &mut Vec<Measurement>) {
    const WARMUP: usize = 200;
    const ROUNDS: usize = 1_000;

    let mut cluster = with_l2(build_cluster(ROAMING, None), ROAMING);
    let mut round = 0usize;
    results.push(bench_n("cluster/roaming/16x3200/step", SAMPLES, || {
        if round.is_multiple_of(WAVE_EVERY) {
            cluster.apply_update_wave();
        }
        round += 1;
        black_box(cluster.step())
    }));

    let clock = Arc::new(PhaseClock::default());
    let mut cluster = with_l2(build_cluster(ROAMING, Some(&clock)), ROAMING)
        .with_recorder(Box::new(Probe::Cluster(Arc::clone(&clock))));
    let mut twin = cluster.workload().clone();
    let mut samples = [const { Vec::new() }; 4];
    for round in 0..WARMUP + ROUNDS {
        if round.is_multiple_of(WAVE_EVERY) {
            cluster.apply_update_wave();
        }
        let advance = Instant::now();
        twin.advance();
        let advance = advance.elapsed();
        let start = Instant::now();
        black_box(cluster.step());
        let mut phases = clock.take_phases(start, ROAMING.cells as usize);
        phases[0] = phases[0].saturating_sub(advance);
        if round >= WARMUP {
            for (samples, phase) in samples.iter_mut().zip([advance].into_iter().chain(phases)) {
                samples.push(phase.as_nanos() as f64);
            }
        }
    }
    let phases = ["advance", "declare", "exchange", "attribute"];
    for (phase, samples_ns) in phases.iter().zip(samples) {
        let m = Measurement {
            name: format!("cluster/roaming/16x3200/{phase}"),
            iters_per_sample: 1,
            samples_ns,
        };
        report(&m);
        results.push(m);
    }
}

/// Run the suite and write `BENCH_cluster.json`.
pub fn run() {
    let mut results = Vec::new();
    bench_cluster_rounds(&mut results);
    let l2_origin_savings = bench_l2_rounds(&mut results);
    println!(
        "regional L2 tier at {L2_CELLS} cells: {:.1}% origin bandwidth saved\n",
        l2_origin_savings * 100.0
    );
    bench_roaming_round(&mut results);
    write_record(
        "cluster",
        &[
            // Fraction of origin (backhaul) bandwidth the regional L2
            // tier saves at 8 cells under Markov-ring roaming (quick
            // sweep preset).
            ("l2_origin_savings", format!("{l2_origin_savings:.3}")),
        ],
        &results,
    );
}
