//! The reference the parity suites check a station's rounds against:
//! the paper's full-table DP ([`DpByCapacity`]) on the instance the
//! round planned, rebuilt outside the production path — from the
//! round's requests through [`build_instance`] for a batch round, from
//! the engine's [`RoundEngine::for_each_active`] for an engine round.
//!
//! Each suite uses part of this module.
#![allow(dead_code)]

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use basecache_core::engine::RoundEngine;
use basecache_core::profit::build_instance;
use basecache_core::recency::ScoringFunction;
use basecache_core::{BaseStationSim, RequestBatch};
use basecache_knapsack::{DpByCapacity, DpScratch, Item};
use basecache_net::{Catalog, ObjectId};
use basecache_obs::{Event, Recorder, Sample, Snapshot, Stage};
use basecache_workload::GeneratedRequest;

/// A knapsack instance as a station plans it: items ascending by
/// object, `objects[i]` the object of `items[i]`.
#[derive(Debug, Default)]
pub struct Instance {
    pub objects: Vec<ObjectId>,
    pub items: Vec<Item>,
}

impl Instance {
    /// The instance a batch round over `requests` plans: one item per
    /// requested object, profit summed over its requests at the
    /// recency the planner saw, minus the `excluded` objects.
    pub fn of_batch(
        requests: &[GeneratedRequest],
        catalog: &Catalog,
        recency: &[f64],
        scoring: ScoringFunction,
        excluded: &[ObjectId],
    ) -> Self {
        let batch = RequestBatch::from_generated(requests);
        let mapped = build_instance(&batch, catalog, recency, scoring);
        let pairs = mapped.objects().iter().zip(mapped.instance().items());
        let mut instance = Self::default();
        for (&object, &item) in pairs {
            if excluded.binary_search(&object).is_err() {
                instance.objects.push(object);
                instance.items.push(item);
            }
        }
        instance
    }

    /// The instance an engine round planned, read back after the step:
    /// every active object with positive profit.
    pub fn of_engine(engine: &RoundEngine) -> Self {
        let mut instance = Self::default();
        engine.for_each_active(|a| {
            if a.profit > 0.0 {
                instance.objects.push(a.object);
                instance.items.push(Item::new(a.size, a.profit));
            }
        });
        instance
    }
}

/// What the full-table DP picks for an instance.
#[derive(Debug)]
pub struct Exact {
    /// The chosen objects, ascending.
    pub downloads: Vec<ObjectId>,
    /// Their total size.
    pub size: u64,
    /// The optimum.
    pub value: f64,
    /// DP cells the solve swept.
    pub cells: u64,
}

/// Solve `instance` at `budget` with [`DpByCapacity::solve_into`].
pub fn exact_dp(instance: &Instance, budget: u64) -> Exact {
    let mut dp = DpScratch::new();
    let value = DpByCapacity.solve_into(&instance.items, budget, &mut dp);
    let chosen = dp.chosen();
    Exact {
        downloads: chosen.iter().map(|&i| instance.objects[i]).collect(),
        size: chosen.iter().map(|&i| instance.items[i].size()).sum(),
        value,
        cells: dp.cells_touched(),
    }
}

/// A recorder that keeps what a station's last solve reported — the
/// plan's value and the DP cells it swept — and nothing else. It
/// reports itself disabled, so the station runs its unobserved round.
#[derive(Debug, Default)]
pub struct SolveProbe {
    value_bits: AtomicU64,
    cells: AtomicU64,
    left_out: AtomicU64,
    certificate: AtomicU64,
}

impl SolveProbe {
    /// The value and DP cells the last solve reported.
    pub fn last(&self) -> (f64, u64) {
        (
            f64::from_bits(self.value_bits.load(Relaxed)),
            self.cells.load(Relaxed),
        )
    }

    /// What the last engine round left out of its instance, and how its
    /// certificate went (`Sample::CutCertificate`'s code).
    pub fn last_cut(&self) -> (u64, u64) {
        (self.left_out.load(Relaxed), self.certificate.load(Relaxed))
    }
}

impl Recorder for SolveProbe {
    fn enabled(&self) -> bool {
        false
    }

    fn add(&self, event: Event, n: u64) {
        if event == Event::DpCellsTouched {
            self.cells.store(n, Relaxed);
        }
    }

    fn sample(&self, sample: Sample, value: f64) {
        match sample {
            Sample::PlanProfit => self.value_bits.store(value.to_bits(), Relaxed),
            Sample::LeftOutObjects => self.left_out.store(value as u64, Relaxed),
            Sample::CutCertificate => self.certificate.store(value as u64, Relaxed),
            _ => {}
        }
    }

    fn span_ns(&self, _stage: Stage, _ns: u64) {}

    fn snapshot(&self) -> Snapshot {
        Snapshot::default()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The [`SolveProbe`] a station was built with.
pub fn solve_probe(station: &BaseStationSim) -> &SolveProbe {
    station
        .recorder()
        .as_any()
        .downcast_ref::<SolveProbe>()
        .expect("a SolveProbe was installed")
}

/// The value and DP cells of the last solve of a station built with a
/// [`SolveProbe`].
pub fn last_solve(station: &BaseStationSim) -> (f64, u64) {
    solve_probe(station).last()
}
