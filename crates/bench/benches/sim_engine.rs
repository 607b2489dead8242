//! Engine benchmarks: event-queue throughput, RNG stream derivation,
//! request generation and full station steps.

use std::hint::black_box;

use basecache_bench::harness::bench;
use basecache_core::planner::OnDemandPlanner;
use basecache_core::StationBuilder;
use basecache_net::Catalog;
use basecache_sim::{RngStreams, Scheduler, SimTime};
use basecache_workload::{Popularity, RequestGenerator, TargetRecency};

fn bench_scheduler_throughput() {
    bench("sim/scheduler_10k_events", || {
        let mut sched: Scheduler<u32> = Scheduler::new();
        for i in 0..10_000u32 {
            sched.schedule_at(SimTime::from_ticks(u64::from(i % 977)), i);
        }
        let mut acc = 0u64;
        while let Some((_, e)) = sched.pop() {
            acc += u64::from(e);
        }
        black_box(acc)
    });
}

fn bench_rng_streams() {
    let streams = RngStreams::new(4242);
    bench("sim/rng_stream_derivation", || {
        let mut acc = 0u64;
        for i in 0..100 {
            acc ^= black_box(streams.seed_for_indexed("bench", i));
        }
        acc
    });
}

fn bench_request_generation() {
    let generator = RequestGenerator::new(
        Popularity::ZIPF1.build(500),
        1000,
        TargetRecency::Uniform { lo: 0.3, hi: 1.0 },
    );
    let streams = RngStreams::new(1);
    bench("sim/generate_1k_requests", || {
        let mut rng = streams.stream("bench/gen");
        black_box(generator.batch(&mut rng))
    });
}

fn bench_station_step() {
    let generator = RequestGenerator::new(
        Popularity::ZIPF1.build(500),
        100,
        TargetRecency::AlwaysFresh,
    );
    let streams = RngStreams::new(2);
    let mut rng = streams.stream("bench/station");
    let batch = generator.batch(&mut rng);

    {
        let mut station = StationBuilder::new(Catalog::uniform_unit(500))
            .on_demand(OnDemandPlanner::paper_default(), 50)
            .build()
            .expect("bench configuration is valid");
        bench("sim/station_step/on_demand", || {
            station.apply_update_wave();
            black_box(station.step(&batch))
        });
    }
    {
        let mut station = StationBuilder::new(Catalog::uniform_unit(500))
            .on_demand_lowest_recency(50)
            .build()
            .expect("bench configuration is valid");
        bench("sim/station_step/lowest_recency", || {
            station.apply_update_wave();
            black_box(station.step(&batch))
        });
    }
    {
        let mut station = StationBuilder::new(Catalog::uniform_unit(500))
            .async_round_robin(50)
            .build()
            .expect("bench configuration is valid");
        bench("sim/station_step/async_round_robin", || {
            station.apply_update_wave();
            black_box(station.step(&batch))
        });
    }
}

fn main() {
    bench_scheduler_throughput();
    bench_rng_streams();
    bench_request_generation();
    bench_station_step();
}
