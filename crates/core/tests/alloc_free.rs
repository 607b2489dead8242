//! Steady-state rounds must never touch the heap.
//!
//! A counting `#[global_allocator]` wraps the system allocator; after a
//! short warm-up (buffers grown, every requested object cached once)
//! each `BaseStationSim::step` — under the on-demand policy and under
//! each of the other four policies — must
//! perform **zero** allocations, even across update waves and
//! per-object updates — and with
//! the default [`basecache_obs::NullRecorder`] wired through the whole
//! request path, the observability layer must not change that.
//!
//! This file deliberately contains a single test: the allocator is
//! process-global, and other concurrently running tests would perturb
//! the counter.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use basecache_core::planner::OnDemandPlanner;
use basecache_core::recency::ScoringFunction;
use basecache_core::{Policy, StationBuilder};
use basecache_net::{Catalog, ObjectId};
use basecache_sim::RngStreams;
use basecache_workload::GeneratedRequest;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

#[test]
fn on_demand_steady_state_steps_do_not_allocate() {
    // Table-1 scale: 500 objects, capacity 5000, 5000 clients per round.
    let num_objects = 500u32;
    let mut rng = RngStreams::new(0xA110C).stream("alloc/free");
    let sizes: Vec<u64> = (0..num_objects)
        .map(|_| rng.random_range(1u64..=10))
        .collect();
    let catalog = Catalog::from_sizes(&sizes);
    let requests: Vec<GeneratedRequest> = (0..5000)
        .map(|_| GeneratedRequest {
            object: ObjectId(rng.random_range(0..num_objects)),
            target_recency: rng.random_range(0.05f64..=1.0),
        })
        .collect();

    // The builder wires the (no-op) recorder through the whole request
    // path; the assertions below therefore also prove the observability
    // layer is free when disabled.
    let mut station = StationBuilder::new(catalog)
        .on_demand(OnDemandPlanner::new(ScoringFunction::InverseRatio), 5000)
        .build()
        .expect("valid configuration");

    // Warm up: grow every buffer to its steady-state size — the first
    // round downloads (and caches) everything requested, and the wave
    // round exercises the largest possible download list.
    for _ in 0..3 {
        station.step(&requests);
    }
    station.apply_update_wave();
    for _ in 0..3 {
        station.step(&requests);
    }

    // Steady state: every step, including the ones replanning after an
    // update wave, must be allocation-free.
    for round in 0..20 {
        station.apply_update_wave();
        let before = allocation_count();
        let outcome = station.step(&requests);
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "round {round}: step() allocated {} time(s)",
            after - before
        );
        // Sanity: the round did real work.
        assert_eq!(outcome.served, 5000);
        assert!(outcome.objects_downloaded > 0, "wave forces redownloads");
    }

    // Between waves the server and the station list what changed, so a
    // round recomputes only those recency slots: both lists are sized
    // at build, so per-object updates and the rounds after them stay
    // off the heap — and so do engine rounds on the same station, the
    // first of which reads the whole column.
    let update = |station: &mut basecache_core::BaseStationSim, round: u64| {
        for k in 0..8u64 {
            let now = basecache_sim::SimTime::from_ticks(station.tick());
            let object = ObjectId(((round * 8 + k) * 53 % num_objects as u64) as u32);
            station.server_mut().apply_update(object, now);
        }
    };
    for round in 0..10u64 {
        let before = allocation_count();
        update(&mut station, round);
        let outcome = station.step(&requests);
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "round {round}: updates and step() allocated {} time(s)",
            after - before
        );
        assert_eq!(outcome.served, 5000);
    }
    let mut engine =
        basecache_core::engine::RoundEngine::new(station.catalog(), ScoringFunction::InverseRatio);
    for r in &requests {
        engine.push_request(r.object, r.target_recency);
    }
    for round in 10..14u64 {
        let before = allocation_count();
        update(&mut station, round);
        let outcome = station.step_engine(&mut engine);
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "round {round}: updates and step_engine() allocated {} time(s)",
            after - before
        );
        assert_eq!(outcome.served, 5000);
    }

    // One-time sizing: an object first requested (hence first cached)
    // long after warm-up must find its cache slot already there. The
    // catalog is three times the id range the warm-up batch touches; the
    // late batch then moves object 0's requests onto the highest id, so
    // no buffer sees a larger round than it already has — only an id
    // far past anything a table grown on demand would have reached.
    {
        let wide = sizes.repeat(3);
        let last = ObjectId(wide.len() as u32 - 1);
        let mut late = requests.clone();
        for r in late.iter_mut().filter(|r| r.object == ObjectId(0)) {
            r.object = last;
        }
        let mut station = StationBuilder::new(Catalog::from_sizes(&wide))
            .on_demand(OnDemandPlanner::paper_default(), 5000)
            .build()
            .expect("valid configuration");
        for _ in 0..3 {
            station.step(&requests);
        }
        station.apply_update_wave();
        for _ in 0..3 {
            station.step(&requests);
        }
        assert!(station.cached_version_of(last).is_none());
        for round in 0..4 {
            station.apply_update_wave();
            let before = allocation_count();
            station.step(&late);
            let after = allocation_count();
            assert_eq!(
                after - before,
                0,
                "late-object round {round}: step() allocated {} time(s)",
                after - before
            );
        }
        assert!(station.cached_version_of(last).is_some());
    }

    // Even with a live StatsRecorder the steady state stays off the
    // heap: counters are `Cell`s and the distributions are fixed-size
    // streaming estimators — only `snapshot()` allocates.
    let mut observed = StationBuilder::new(Catalog::from_sizes(&sizes))
        .on_demand(OnDemandPlanner::new(ScoringFunction::InverseRatio), 5000)
        .recorder(Box::new(basecache_obs::StatsRecorder::new()))
        .build()
        .expect("valid configuration");
    for _ in 0..3 {
        observed.step(&requests);
    }
    observed.apply_update_wave();
    for _ in 0..3 {
        observed.step(&requests);
    }
    for round in 0..10 {
        observed.apply_update_wave();
        let before = allocation_count();
        observed.step(&requests);
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "round {round}: instrumented step() allocated {} time(s)",
            after - before
        );
    }
    let snapshot = observed.obs_snapshot();
    assert!(
        !snapshot.is_empty(),
        "the recorder saw the instrumented rounds"
    );

    // The full flight recorder — Tee(Stats, Tee(Trace, Tee(Series,
    // TopK))) — also stays off the heap once warm: the trace ring and
    // series are preallocated and overwrite/decimate in place, and the
    // top-K channels evict by replacement. Only export allocates.
    let mut flighted = StationBuilder::new(Catalog::from_sizes(&sizes))
        .on_demand(OnDemandPlanner::new(ScoringFunction::InverseRatio), 5000)
        .recorder(Box::new(basecache_obs::FlightRecorder::new(4096, 64, 8)))
        .build()
        .expect("valid configuration");
    for _ in 0..3 {
        flighted.step(&requests);
    }
    flighted.apply_update_wave();
    for _ in 0..3 {
        flighted.step(&requests);
    }
    for round in 0..10 {
        flighted.apply_update_wave();
        let before = allocation_count();
        flighted.step(&requests);
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "round {round}: flight-recorded step() allocated {} time(s)",
            after - before
        );
    }
    let fsnap = flighted.obs_snapshot();
    assert!(!fsnap.is_empty() && !fsnap.attrs.is_empty());

    // The other four policies plan on the same kernel buffers — the
    // knee off the station's own trace tables, the hybrid's background
    // pass and the two k-object rules in place in the download list —
    // so they are held to the same bar, unobserved and under the full
    // flight recorder.
    let planner = OnDemandPlanner::paper_default();
    let policies = [
        (
            "hybrid",
            Policy::Hybrid {
                planner,
                budget_units: 1500,
            },
        ),
        (
            "knee",
            Policy::OnDemandAdaptive {
                planner,
                max_budget: 5000,
                window: 25,
                threshold: 0.01,
            },
        ),
        (
            "lowest-recency",
            Policy::OnDemandLowestRecency { k_objects: 100 },
        ),
        ("round-robin", Policy::AsyncRoundRobin { k_objects: 100 }),
    ];
    for (label, policy) in policies {
        for flight_recorded in [false, true] {
            let builder = StationBuilder::new(Catalog::from_sizes(&sizes)).policy(policy);
            let builder = if flight_recorded {
                builder.recorder(Box::new(basecache_obs::FlightRecorder::new(4096, 64, 8)))
            } else {
                builder
            };
            let mut station = builder.build().expect("valid configuration");
            for _ in 0..3 {
                station.step(&requests);
            }
            station.apply_update_wave();
            for _ in 0..3 {
                station.step(&requests);
            }
            for round in 0..10 {
                station.apply_update_wave();
                let before = allocation_count();
                let outcome = station.step(&requests);
                let after = allocation_count();
                assert_eq!(
                    after - before,
                    0,
                    "{label} (flight recorder: {flight_recorded}) round {round}: \
                     step() allocated {} time(s)",
                    after - before
                );
                assert_eq!(outcome.served, 5000);
                assert!(outcome.objects_downloaded > 0, "{label} round {round}");
            }
        }
    }

    // An estimator station plans on its belief and serves the truth:
    // its batch aggregation scores every request a second time against
    // the true recency, and its serve probes each object's copy. Both
    // run on the buffers the station sized at build, so it is held to
    // the same bar.
    let mut estimated = StationBuilder::new(Catalog::from_sizes(&sizes))
        .on_demand(OnDemandPlanner::paper_default(), 1500)
        .estimator(Box::new(basecache_core::TtlEstimator::new(3)))
        .build()
        .expect("valid configuration");
    for _ in 0..3 {
        estimated.step(&requests);
    }
    for round in 0..10 {
        if round % 2 == 0 {
            estimated.apply_update_wave();
        }
        let before = allocation_count();
        let outcome = estimated.step(&requests);
        let after = allocation_count();
        assert_eq!(
            after - before,
            0,
            "estimator round {round}: step() allocated {} time(s)",
            after - before
        );
        assert_eq!(outcome.served, 5000);
    }

    // In-flight mode: multi-round transfers, the single-flight ledger
    // and the waiter pool must also be free once warm. The ledger's
    // transfer ring and free-listed waiter slots grow only while the
    // backlog and parked population climb to their (commitment-bounded)
    // steady state, so a warm-up that replays the measured wave-heavy
    // pattern covers the peak.
    // The causal composition rides the same matrix: lifecycle spans,
    // AoI tables and the invariant monitor are all preallocated and
    // update in place, so turning the full stack on must not cost a
    // single steady-state allocation either.
    // The monitor's budget is what the link moves a round: the ledger's
    // bandwidth in flight, the station's budget on an engine round.
    let causal = |budget| {
        Box::new(basecache_obs::CausalRecorder::new(
            basecache_obs::CausalConfig {
                budget_units: Some(budget),
                ..basecache_obs::CausalConfig::default()
            },
        ))
    };
    let recorders: [(&str, Option<Box<dyn basecache_obs::Recorder>>); 4] = [
        ("flight/null", None),
        (
            "flight/stats",
            Some(Box::new(basecache_obs::StatsRecorder::new())),
        ),
        (
            "flight/flight",
            Some(Box::new(basecache_obs::FlightRecorder::new(4096, 64, 8))),
        ),
        ("flight/causal", Some(causal(2500))),
    ];
    for (label, recorder) in recorders {
        let builder = StationBuilder::new(Catalog::from_sizes(&sizes))
            .on_demand(OnDemandPlanner::paper_default(), 5000)
            .in_flight(basecache_net::InFlightConfig::coalescing(2500));
        let builder = match recorder {
            Some(r) => builder.recorder(r),
            None => builder,
        };
        let mut station = builder.build().expect("valid configuration");
        for _ in 0..3 {
            station.step(&requests);
        }
        // Match the measured cadence (wave every other round, so flights
        // survive long enough to coalesce) and run it until the ring,
        // waiter pool and partition buffers reach their peak.
        for w in 0..16 {
            if w % 2 == 0 {
                station.apply_update_wave();
            }
            station.step(&requests);
        }
        let mut total_joined = 0usize;
        for round in 0..10 {
            if round % 2 == 0 {
                station.apply_update_wave();
            }
            let before = allocation_count();
            let outcome = station.step(&requests);
            let after = allocation_count();
            assert_eq!(
                after - before,
                0,
                "{label} round {round}: in-flight step() allocated {} time(s)",
                after - before
            );
            assert!(outcome.served > 0);
            total_joined += outcome.joined;
        }
        assert!(
            total_joined > 0,
            "{label}: the measured rounds exercised the join path"
        );
    }

    // The incremental round engine is held to the same bar: once the
    // SoA tables, dirty set and solver scratch are warm, a full engine
    // round — churn applied via in-place retargets, per-object server
    // updates, incremental rescore, solve, refresh, columnar serve —
    // never touches the heap, under each recorder.
    for (label, recorder_kind) in [
        ("engine/null", "null"),
        ("engine/flight", "flight"),
        ("engine/causal", "causal"),
    ] {
        let builder = StationBuilder::new(Catalog::from_sizes(&sizes))
            .on_demand(OnDemandPlanner::paper_default(), 5000);
        let builder = match recorder_kind {
            "flight" => builder.recorder(Box::new(basecache_obs::FlightRecorder::new(4096, 64, 8))),
            "causal" => builder.recorder(causal(5000)),
            _ => builder,
        };
        let mut station = builder.build().expect("valid configuration");
        let mut engine = basecache_core::engine::RoundEngine::new(
            station.catalog(),
            ScoringFunction::InverseRatio,
        );
        for r in &requests {
            engine.push_request(r.object, r.target_recency);
        }
        // Warm up: first round rescores the whole population and grows
        // every buffer; the wave round dirties everything cached.
        for _ in 0..3 {
            station.step_engine(&mut engine);
        }
        station.apply_update_wave();
        for _ in 0..3 {
            station.step_engine(&mut engine);
        }
        for round in 0..10u64 {
            let before = allocation_count();
            // Low-churn steady state: a handful of retargets and
            // per-object updates, all in place.
            for k in 0..8u64 {
                engine.retarget(
                    ObjectId(((round * 8 + k) * 37 % num_objects as u64) as u32),
                    round * 97 + k,
                    0.05 + (k as f64) * 0.1,
                );
                let now = basecache_sim::SimTime::from_ticks(station.tick());
                station.server_mut().apply_update(
                    ObjectId(((round * 8 + k) * 53 % num_objects as u64) as u32),
                    now,
                );
            }
            let outcome = station.step_engine(&mut engine);
            let after = allocation_count();
            assert_eq!(
                after - before,
                0,
                "{label} round {round}: engine step allocated {} time(s)",
                after - before
            );
            assert_eq!(outcome.served, 5000);
            assert!(
                engine.rescored_requests() < 5000,
                "{label} round {round}: steady state must rescore incrementally"
            );
        }
    }

    // Engine rounds at the benchmark's `engine-massive` shape (scaled
    // down) plan the candidates above a density cut, and some rounds'
    // certificates refuse: they re-assemble at the lowered cut or at cut
    // 0, the whole instance. Those paths run on the buffers the engine
    // and the station sized at build, so the counted window — which
    // must hold both — allocates nothing either.
    {
        use basecache_workload::{ChurnOp, Popularity, StandingWorkload, TargetRecency};

        let streams = RngStreams::new(0x0C07);
        let cut_sizes: Vec<u64> = {
            let mut rng = streams.stream("cut/sizes");
            (0..3_000).map(|_| rng.random_range(1u64..=8)).collect()
        };
        let catalog = Catalog::from_sizes(&cut_sizes);
        let workload = StandingWorkload::new(
            Popularity::ZIPF1.build(3_000),
            30_000,
            TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
        );
        let (objs, targets) = workload.generate_columns(&mut streams.stream("cut/requests"));
        let mut ops: Vec<ChurnOp> = Vec::new();
        workload.churn_into(15 * 90, &mut streams.stream("cut/churn"), &mut ops);
        let mut updates = streams.stream("cut/updates");
        let mut station = StationBuilder::new(catalog.clone())
            .on_demand(OnDemandPlanner::paper_default(), 60)
            .recorder(Box::new(common::SolveProbe::default()))
            .build()
            .expect("valid configuration");
        let mut engine =
            basecache_core::engine::RoundEngine::new(&catalog, ScoringFunction::InverseRatio);
        engine.push_columns(&objs, &targets);
        let mut reached = [0u32; 3];
        for round in 0..90usize {
            let before = allocation_count();
            for op in &ops[round * 15..(round + 1) * 15] {
                engine.retarget(op.object, op.slot_seed, op.target);
            }
            for _ in 0..180 {
                let object = ObjectId(updates.random_range(0..3_000u32));
                let now = basecache_sim::SimTime::from_ticks(station.tick());
                station.server_mut().apply_update(object, now);
            }
            station.step_engine(&mut engine);
            let after = allocation_count();
            if round >= 10 {
                assert_eq!(
                    after - before,
                    0,
                    "engine/cut round {round}: allocated {} time(s)",
                    after - before
                );
                let (_, certificate) = common::solve_probe(&station).last_cut();
                reached[certificate as usize] += 1;
            }
        }
        assert!(
            reached[1] > 0 && reached[2] > 0,
            "engine/cut: the counted window holds lowered and whole-instance rounds: {reached:?}"
        );
    }

    // The cluster round on top: sixteen cells sharing one backhaul
    // under proportional arbitration, with the regional L2 tier on —
    // demand probe, largest-remainder split, L2 exchange and sixteen
    // station rounds, all on reused memory. Roaming keeps nudging the
    // per-cell peaks (batch size, exclusion list, budget), so buffers
    // still double now and then after any fixed warm-up; what steady
    // state means here is that such growth dies out. A round that
    // allocates every time — the arbiter's per-call `Vec` did — never
    // produces the quiet window below.
    {
        use basecache_cluster::{ClusterSim, L2Config};
        use basecache_net::{ArbiterPolicy, BackhaulArbiter};
        use basecache_workload::{ClusterWorkload, MobilityModel, Popularity, TargetRecency};

        let cells = 16u32;
        let objects = 200usize;
        let cell_sizes: Vec<u64> = (0..objects as u64).map(|i| 1 + i % 5).collect();
        let stations = (0..cells)
            .map(|_| {
                StationBuilder::new(Catalog::from_sizes(&cell_sizes))
                    .on_demand(OnDemandPlanner::paper_default(), 0)
                    .build()
                    .expect("valid configuration")
            })
            .collect();
        let workload = ClusterWorkload::new(
            cells,
            40 * cells,
            Popularity::Uniform,
            Popularity::ZIPF1.build(objects),
            TargetRecency::Uniform { lo: 0.4, hi: 1.0 },
            2,
            MobilityModel::MarkovRing { move_prob: 0.2 },
            &RngStreams::new(0xC1A5),
        );
        let arbiter = BackhaulArbiter::new(ArbiterPolicy::ProportionalToDemand, 480);
        let mut cluster = ClusterSim::new(stations, workload, arbiter)
            .expect("one station per cell")
            .with_l2(L2Config {
                intercell_units_per_round: 480,
            });
        let (mut round, mut quiet, mut l2_transfers) = (0, 0, 0);
        while quiet < 40 {
            assert!(
                round < 800,
                "cluster step() was still allocating after {round} rounds"
            );
            if round % 5 == 0 {
                cluster.apply_update_wave();
            }
            let before = allocation_count();
            let outcome = cluster.step();
            let after = allocation_count();
            assert_eq!(outcome.served, 2 * 40 * cells as usize);
            if after == before {
                quiet += 1;
                l2_transfers += outcome.l2_transfers;
            } else {
                (quiet, l2_transfers) = (0, 0);
            }
            round += 1;
        }
        assert!(l2_transfers > 0, "the quiet rounds exercised the L2 tier");
    }

    // Large untied cores at the solver level: 300 weakly correlated
    // items (profit = size + fine noise, the classic hard shape) leave
    // cores of up to 295 items after bound fixing. Once the scratch has
    // seen the largest shape, re-solving (core loading and the core DP's
    // tables included) must never touch the heap.
    {
        use basecache_knapsack::{AdaptiveScratch, AdaptiveSolver, DpScratch, Item};
        let mut state = 7u64;
        let mut lcg = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        let items: Vec<Item> = (0..300)
            .map(|_| {
                let size = 1 + lcg() % 40;
                let noise = (lcg() % (1 << 20)) as f64 / (1u64 << 20) as f64;
                Item::new(size, size as f64 + noise)
            })
            .collect();
        let total: u64 = items.iter().map(Item::size).sum();
        let mut scratch = AdaptiveScratch::new();
        let mut dp = DpScratch::new();
        let caps = [total / 8, total / 5, total / 3, total / 2];
        let mut largest = 0;
        for cap in caps {
            AdaptiveSolver.solve_into(&items, cap, &mut scratch, &mut dp);
            largest = largest.max(scratch.core_size());
        }
        assert!(largest >= 64, "largest core {largest}");
        for (round, cap) in caps.iter().cycle().take(9).enumerate() {
            let before = allocation_count();
            AdaptiveSolver.solve_into(&items, *cap, &mut scratch, &mut dp);
            let after = allocation_count();
            assert_eq!(
                after - before,
                0,
                "round {round}: warm full-core solve allocated {} time(s)",
                after - before
            );
        }

        // Engine scale, first solve: `reserve(max_items)` alone must
        // cover the reduction's key buffer at 35 000 items — a buffer it
        // misses grows right here. Tied profits and their de-tied twin
        // both lay their density keys in that buffer.
        for nudge in [0.0, 1e-9] {
            let items: Vec<Item> = (0..35_000u64)
                .map(|i| {
                    Item::new(
                        1 + i * 7 % 8,
                        (1 + i * 13 % 40) as f64 * 0.5 + i as f64 * nudge,
                    )
                })
                .collect();
            let mut scratch = AdaptiveScratch::new();
            scratch.reserve(items.len());
            let mut dp = DpScratch::new();
            dp.reserve(items.len(), 1_000);
            let before = allocation_count();
            AdaptiveSolver.solve_into(&items, 1_000, &mut scratch, &mut dp);
            let after = allocation_count();
            assert_eq!(
                after - before,
                0,
                "nudge {nudge}: first engine-scale solve allocated {} time(s) after reserve",
                after - before
            );
            assert!(scratch.items_fixed() > 30_000, "nudge {nudge}");
        }
    }
}
