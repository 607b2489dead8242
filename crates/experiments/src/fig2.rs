//! Figure 2 — amount of data downloaded to provide the most recent data
//! to all clients, for varying skew in requests.
//!
//! Setup (paper §3.1): 500 objects of uniform size, all updated
//! simultaneously every 5 time units; cache warmed for 100 time units,
//! then 500 measured time units; request rate swept from 0 to 500
//! requests per time unit. The asynchronous approach re-downloads every
//! object at every update — 500 objects × 100 waves = 50,000 units, a
//! flat ceiling independent of demand. The on-demand approach downloads
//! an object only when it is requested *and* its cached copy is stale.

use basecache_core::Policy;
use basecache_workload::Popularity;

use crate::report::{Figure, Series};
use crate::runner::{record_trace, run_policy, sweep_series, RunConfig};

/// Parameters of the Figure 2 reproduction.
#[derive(Debug, Clone)]
pub struct Params {
    /// The run at every sweep point (paper: 500 objects, waves every 5,
    /// 100 warm-up and 500 measured time units); its request rate and
    /// popularity are the two things the figure sweeps.
    pub config: RunConfig,
    /// The request rates to sweep (paper: 0..=500).
    pub request_rates: Vec<usize>,
}

impl Params {
    /// The paper's full-fidelity setup.
    pub fn paper() -> Self {
        Self {
            config: RunConfig {
                objects: 500,
                requests_per_tick: 0,
                update_period: 5,
                warmup_ticks: 100,
                measure_ticks: 500,
                popularity: Popularity::Uniform,
                seed: 2000,
            },
            request_rates: (0..=500).step_by(25).collect(),
        }
    }

    /// A CI-sized setup preserving the curve shapes.
    pub fn quick() -> Self {
        Self {
            config: RunConfig {
                objects: 100,
                warmup_ticks: 20,
                measure_ticks: 100,
                ..Self::paper().config
            },
            request_rates: (0..=100).step_by(20).collect(),
        }
    }

    /// Updates per object over the measured window.
    pub fn waves(&self) -> u64 {
        // Waves fire at multiples of the period within the measured
        // window [warmup, warmup + measure).
        let c = &self.config;
        let start = c.warmup_ticks.div_ceil(c.update_period);
        let end = (c.warmup_ticks + c.measure_ticks).div_ceil(c.update_period);
        end - start
    }

    /// The asynchronous ceiling: units downloaded to keep the whole
    /// cache up to date over the measured window (paper: 50,000).
    pub fn async_ceiling(&self) -> u64 {
        self.config.objects as u64 * self.waves()
    }
}

/// The three access patterns of Figure 2.
pub const PATTERNS: [(&str, Popularity); 3] = [
    ("on-demand uniform", Popularity::Uniform),
    ("on-demand skewed(linear)", Popularity::LinearSkew),
    ("on-demand skewed(zipf)", Popularity::ZIPF1),
];

/// Run the Figure 2 sweep.
pub fn run(params: &Params) -> Figure {
    let rates = &params.request_rates;
    let labels = PATTERNS.map(|(label, _)| label);
    let mut series = sweep_series(rates, labels, |&rate| {
        let downloaded = PATTERNS.map(|(_, popularity)| {
            let mut config = params.config;
            config.requests_per_tick = rate;
            config.popularity = popularity;
            // Unbounded on-demand: download iff requested and stale.
            let policy = Policy::OnDemandLowestRecency {
                k_objects: usize::MAX,
            };
            run_policy(&config, policy, &record_trace(&config)).units_downloaded as f64
        });
        (rate as f64, downloaded)
    });
    let ceiling = params.async_ceiling() as f64;
    let flat = rates.iter().map(|&r| (r as f64, ceiling)).collect();
    series.insert(0, Series::new("asynchronous", flat));
    Figure::new(
        "Figure 2: data downloaded to deliver the most recent data",
        "requests per time unit",
        "objects downloaded (measured window)",
        series,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn waves_and_ceiling_match_paper_arithmetic() {
        let p = Params::paper();
        assert_eq!(p.waves(), 100, "500 time units / period 5");
        assert_eq!(p.async_ceiling(), 50_000);
    }

    #[test]
    fn quick_run_reproduces_figure_shape() {
        let fig = run(&Params::quick());
        assert_eq!(fig.series.len(), 4);
        let asynch = &fig.series[0];
        let uniform = &fig.series[1];
        let linear = &fig.series[2];
        let zipf = &fig.series[3];

        // On-demand never exceeds the asynchronous ceiling.
        let ceiling = asynch.last_y().unwrap();
        for s in [uniform, linear, zipf] {
            for &(_, y) in &s.points {
                assert!(y <= ceiling + 1e-9, "{}: {y} > {ceiling}", s.label);
            }
        }

        // Zero request rate downloads nothing on demand.
        assert_eq!(uniform.y_at(0.0), Some(0.0));

        // Savings grow with skew: at the top rate, zipf ≤ linear ≤ uniform.
        let top = *Params::quick().request_rates.last().unwrap() as f64;
        let (u, l, z) = (
            uniform.y_at(top).unwrap(),
            linear.y_at(top).unwrap(),
            zipf.y_at(top).unwrap(),
        );
        assert!(z < l, "zipf ({z}) must save more than linear ({l})");
        assert!(l < u, "linear ({l}) must save more than uniform ({u})");

        // Uniform approaches the ceiling at high request rates
        // (paper: "downloads nearly as much data as the asynchronous").
        assert!(
            u > 0.8 * ceiling,
            "uniform {u} should approach ceiling {ceiling}"
        );

        // More requests → more downloads (monotone, on-demand curves).
        for s in [uniform, linear, zipf] {
            for w in s.points.windows(2) {
                assert!(w[1].1 >= w[0].1 - 1e-9, "{} not monotone", s.label);
            }
        }
    }
}
