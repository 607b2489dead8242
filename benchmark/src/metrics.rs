//! The benchmark's metric tables. `BENCHMARK.json` lists the same names
//! and units (a unit test holds the two together); every run reports
//! every metric of the table it was asked for, 0 where a layer is not on
//! the workload's path.

/// End-to-end metrics: what a user of the system sees.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("requests_per_s", "req/s"),
    ("round_p50_us", "us"),
    ("round_p95_us", "us"),
    ("avg_score", "score"),
    ("origin_units_per_request", "units/req"),
    ("response_rounds_mean", "rounds"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, named `<crate>.<what>`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.step_us_mean", "us"),
    ("core.fetch_us_mean", "us"),
    ("core.recency_us_mean", "us"),
    ("core.assemble_us_mean", "us"),
    ("core.refresh_us_mean", "us"),
    ("core.serve_us_mean", "us"),
    ("core.unattributed_us_mean", "us"),
    ("core.span_coverage", "ratio"),
    ("core.engine.ingest_us_mean", "us"),
    ("core.engine.dirty_objects_mean", "count"),
    ("core.engine.rescored_requests_mean", "count"),
    ("core.cache_hit_ratio", "ratio"),
    ("knapsack.solve_us_mean", "us"),
    ("knapsack.solve_us_p95", "us"),
    ("knapsack.items_mean", "count"),
    ("knapsack.core_size_mean", "count"),
    ("knapsack.items_fixed_mean", "count"),
    ("knapsack.core_rounds_mean", "count"),
    ("knapsack.dp_cells_per_round", "count"),
    ("knapsack.certified_exit_ratio", "ratio"),
    ("cache.replay_insert_ns", "ns"),
    ("cache.replay_peek_ns", "ns"),
    ("cache.cached_units_end", "units"),
    ("cache.bounded.replay_insert_ns", "ns"),
    ("cache.bounded.hit_ratio", "ratio"),
    ("cache.bounded.evictions_per_insert", "ratio"),
    ("net.server_update_ns", "ns"),
    ("net.inflight.launched_per_round", "count"),
    ("net.inflight.joined_per_round", "count"),
    ("net.inflight.coalesced_fetch_ratio", "ratio"),
    ("net.inflight.active_transfers_mean", "count"),
    ("net.inflight.waiting_mean", "count"),
    ("net.inflight.waiting_end", "count"),
    ("net.inflight.replay_ns_per_op", "ns"),
    ("net.bus.publishes_per_round", "count"),
    ("net.bus.invalidations_per_round", "count"),
    ("net.intercell.transfers_per_round", "count"),
    ("net.intercell.denied_per_round", "count"),
    ("net.arbiter.replay_allocate_ns", "ns"),
    ("workload.batch_gen_us", "us"),
    ("workload.columns_gen_s", "s"),
    ("workload.churn_gen_us", "us"),
    ("workload.cluster_advance_us_mean", "us"),
    ("cluster.step_us_mean", "us"),
    ("cluster.cells_us_mean", "us"),
    ("cluster.overhead_us_mean", "us"),
    ("cluster.handoffs_per_round", "count"),
    ("cluster.l2_transfers_per_round", "count"),
    ("cluster.l2_units_per_round", "units"),
    ("cluster.demand_units_per_round", "units"),
    ("cluster.budget_units_per_round", "units"),
    ("cluster.tier_share_l1", "ratio"),
    ("cluster.tier_share_l2", "ratio"),
    ("cluster.tier_share_origin", "ratio"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.monitor_violations", "count"),
    ("alloc.count_per_round", "count"),
    ("alloc.bytes_per_round", "B"),
    ("sim.pool_fans_out", "bool"),
    ("host.pinned", "bool"),
    ("host.pass_spread", "ratio"),
    ("host.single_pass_p50_us", "us"),
];

/// One value per row of a metric table, 0 until set.
#[derive(Debug)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl Metrics {
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Self {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// # Panics
    ///
    /// Panics on a name the table does not list: a metric nobody
    /// declared would be dropped silently otherwise.
    fn row(&self, name: &str) -> usize {
        self.table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the table"))
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let row = self.row(name);
        self.values[row] = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values[self.row(name)]
    }

    /// Every metric on a line of its own: name, value, unit.
    pub fn print(&self) {
        for ((name, unit), value) in self.table.iter().zip(&self.values) {
            println!("{name:<40} {value:>18.6} {unit}");
        }
    }

    /// The `"metrics"` object of the result line. Values print with
    /// Rust's shortest round-trip formatting, so no digit is lost.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = self
            .table
            .iter()
            .zip(&self.values)
            .map(|((name, unit), value)| {
                let value = if value.is_finite() { *value } else { -1.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// `numerator / denominator`, 0 when the denominator is 0.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use basecache_obs::json::{parse, Value};

    fn declared(root: &Value, key: &str) -> Vec<(String, String)> {
        root.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} array"))
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Value::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn listed(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = parse(&text).expect("BENCHMARK.json is JSON");
        assert_eq!(declared(&root, "end_to_end"), listed(END_TO_END));
        assert_eq!(declared(&root, "per_layer"), listed(PER_LAYER));
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let ok_name = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        let ok_unit = |c: char| c.is_ascii_alphanumeric() || "_/%.-".contains(c);
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.chars().all(ok_name), "{name}");
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(unit.len() <= 16 && unit.chars().all(ok_unit), "{unit}");
            assert!(seen.insert(name), "{name} listed twice");
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn json_keeps_every_row_and_every_digit() {
        let mut m = Metrics::new(END_TO_END);
        m.set("setup_s", 0.123456789012345);
        let root = parse(&m.to_json()).unwrap();
        let setup = root.get("setup_s").unwrap();
        assert_eq!(
            setup.get("value").and_then(Value::as_f64),
            Some(0.123456789012345)
        );
        assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
        assert_eq!(root.as_object().unwrap().len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not in the table")]
    fn undeclared_metrics_are_refused() {
        Metrics::new(END_TO_END).set("made_up", 1.0);
    }
}
