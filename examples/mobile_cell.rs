//! A full mobile cell, event-driven: the paper's Figure 1 architecture
//! running on the discrete-event engine.
//!
//! A base station serves mobile clients, downloading from a remote
//! server across a fixed network that moves 8 data units a time unit:
//! a download lands only when the link has shipped it, and requests for
//! an object already on the wire join that transfer instead of fetching
//! it again. Objects update periodically at the server; clients issue
//! requests, occasionally disconnect or hand off to a neighbouring cell.
//! The on-demand policy answers from the cache while fresh copies
//! stream in from the fixed network.
//!
//! Run with:
//! ```text
//! cargo run --release --example mobile_cell
//! ```

use basecache::core::planner::OnDemandPlanner;
use basecache::core::recency::ScoringFunction;
use basecache::core::StationBuilder;
use basecache::net::{Catalog, CellId, ClientId, InFlightConfig, ObjectId, Topology};
use basecache::sim::{RngStreams, Scheduler, SimDuration, SimTime};
use basecache::workload::{GeneratedRequest, Popularity};

/// Events in the cell.
#[derive(Debug)]
enum Event {
    /// A wave of updates lands at the remote server.
    ServerUpdate,
    /// The per-time-unit batch of client requests arrives.
    RequestBatch,
    /// A mobility event: some client disconnects, reconnects or moves.
    Mobility,
    /// End of simulation.
    Stop,
}

fn main() {
    let streams = RngStreams::new(1234);
    let catalog = Catalog::uniform_unit(200);
    let popularity = Popularity::ZIPF1.build(catalog.len());
    // The planner may commission 16 units a round; the link ships 8, so
    // transfers queue behind each other and later requests join them.
    let mut station = StationBuilder::new(catalog)
        .on_demand(OnDemandPlanner::new(ScoringFunction::InverseRatio), 16)
        .in_flight(InFlightConfig::coalescing(8))
        .build()
        .expect("valid configuration");

    // Two cells; 40 clients start in cell 0 (ours).
    let mut topology = Topology::new(2);
    for _ in 0..40 {
        topology.add_client(CellId(0)).expect("cell 0 exists");
    }

    let mut sched: Scheduler<Event> = Scheduler::new();
    sched.schedule_at(SimTime::ZERO, Event::ServerUpdate);
    sched.schedule_at(SimTime::from_ticks(1), Event::RequestBatch);
    sched.schedule_at(SimTime::from_ticks(13), Event::Mobility);
    sched.schedule_at(SimTime::from_ticks(400), Event::Stop);

    let mut req_rng = streams.stream("requests");
    let mut mob_rng = streams.stream("mobility");
    let mut batch: Vec<GeneratedRequest> = Vec::new();

    while let Some((_, event)) = sched.pop() {
        match event {
            Event::Stop => break,
            Event::ServerUpdate => {
                station.apply_update_wave();
                sched.schedule_in(SimDuration::from_ticks(5), Event::ServerUpdate);
            }
            Event::Mobility => {
                // A random client disconnects, reconnects, or hands off.
                let clients = topology.clients().len() as u32;
                let id = ClientId(mob_rng.random_range(0..clients));
                match mob_rng.random_range(0..3u8) {
                    0 => topology.disconnect(id).expect("known client"),
                    1 => topology.reconnect(id).expect("known client"),
                    _ => {
                        let to = CellId(mob_rng.random_range(0..2u32));
                        topology.hand_off(id, to).expect("cell exists");
                    }
                }
                sched.schedule_in(SimDuration::from_ticks(13), Event::Mobility);
            }
            Event::RequestBatch => {
                // Only clients connected in our cell issue requests: one
                // station round per batch.
                batch.clear();
                for _ in topology.connected_in(CellId(0)) {
                    batch.push(GeneratedRequest {
                        object: ObjectId(popularity.sample(&mut req_rng) as u32),
                        target_recency: req_rng.random_range(0.4..=1.0),
                    });
                }
                station.step(&batch);
                sched.schedule_in(SimDuration::from_ticks(1), Event::RequestBatch);
            }
        }
    }

    let stats = station.stats();
    let ledger = station.flight_ledger().expect("in-flight station");
    println!("simulated {} ({} events)", sched.now(), sched.processed());
    println!("clients served:        {}", stats.score.count);
    println!(
        "average client score:  {:.4}",
        stats.score.mean().unwrap_or(1.0)
    );
    println!("cache entries:         {}", station.cache().len());
    println!(
        "fixed net launched:    {} units in {} transfers",
        ledger.stats().units_launched,
        ledger.stats().launched
    );
    println!(
        "coalesced fetch ratio: {:.3}",
        ledger.stats().coalesced_fetch_ratio()
    );
    println!(
        "mean wait of parked:   {:.2} rounds over {} requests ({} still waiting)",
        stats.wait_ticks.mean().unwrap_or(0.0),
        stats.wait_ticks.count,
        ledger.waiting()
    );
    println!(
        "handoffs: {}  disconnects: {}",
        topology.handoffs(),
        topology.disconnects()
    );
}
