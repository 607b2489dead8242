//! The paper's synthetic populations.
//!
//! Section 4's Table 1 population: 500 distinct objects requested by 5000
//! clients, object sizes `U[1, 20]` summing to 5000 units, per-object
//! request counts constant (uniform access) or `U[1, 20]` (skewed), and
//! per-object cache recency scores `U[0.1, 1.0]`, with controllable
//! correlations between the three attributes.

use basecache_sim::{RngStreams, StreamRng};

use crate::correlation::{align, align_counts, Correlation};
use crate::sizes::SizeDist;

/// How many clients request each object.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumRequestsMode {
    /// Every object requested by the same number of clients ("all objects
    /// were requested by the same number of clients"). With Table 1's
    /// 5000 clients over 500 objects this is 10.
    Constant(u64),
    /// Integer-uniform per object in `[lo, hi]`, then correlated with
    /// object size as configured.
    UniformInt {
        /// Fewest requesting clients, inclusive.
        lo: u64,
        /// Most requesting clients, inclusive.
        hi: u64,
    },
}

/// Specification of a Table 1 population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Spec {
    /// Number of distinct requested objects (paper: 500).
    pub objects: usize,
    /// Total number of clients (paper: 5000). Uniform request counts are
    /// nudged so they sum exactly to this.
    pub clients: u64,
    /// If set, sizes are nudged (within their range) to sum exactly to
    /// this (paper: 5000 units).
    pub total_size: Option<u64>,
    /// Per-object request-count model.
    pub num_requests: NumRequestsMode,
    /// Correlation between object size and cached recency score.
    pub size_recency: Correlation,
    /// Correlation between object size and request count (ignored for
    /// constant request counts).
    pub size_num_requests: Correlation,
    /// Range of the per-object cache recency score (paper: `[0.1, 1.0]`).
    pub recency_range: (f64, f64),
}

impl Table1Spec {
    /// The paper's baseline: 500 objects, 5000 clients, 5000 total units,
    /// uniform access (constant 10 requests/object), recency `U[0.1, 1]`,
    /// no correlations.
    pub fn paper_default() -> Self {
        Self {
            objects: 500,
            clients: 5000,
            total_size: Some(5000),
            num_requests: NumRequestsMode::Constant(10),
            size_recency: Correlation::None,
            size_num_requests: Correlation::None,
            recency_range: (0.1, 1.0),
        }
    }

    /// Materialize the population from a master seed.
    pub fn generate(&self, seed: u64) -> Table1Population {
        assert!(self.objects > 0, "population needs objects");
        let (lo_r, hi_r) = self.recency_range;
        assert!(
            0.0 < lo_r && lo_r <= hi_r && hi_r <= 1.0,
            "recency range must lie in (0, 1]"
        );
        let streams = RngStreams::new(seed);

        // Sizes.
        let mut sizes = SizeDist::TABLE1.generate(self.objects, &mut streams.stream("t1/sizes"));
        if let Some(total) = self.total_size {
            nudge_sum(
                &mut sizes,
                total,
                1,
                20,
                &mut streams.stream("t1/size-adjust"),
            );
        }
        let size_keys: Vec<f64> = sizes.iter().map(|&s| s as f64).collect();

        // Cache recency scores, correlated against size.
        let raw_recency: Vec<f64> = {
            let mut rng = streams.stream("t1/recency");
            (0..self.objects)
                .map(|_| rng.random_range(lo_r..=hi_r))
                .collect()
        };
        let recency = align(
            &size_keys,
            &raw_recency,
            self.size_recency,
            &mut streams.stream("t1/recency-align"),
        );

        // Request counts, correlated against size, summing to `clients`.
        let num_requests = match self.num_requests {
            NumRequestsMode::Constant(k) => {
                assert_eq!(
                    k * self.objects as u64,
                    self.clients,
                    "constant request count must account for every client"
                );
                vec![k; self.objects]
            }
            NumRequestsMode::UniformInt { lo, hi } => {
                assert!(0 < lo && lo <= hi, "request count range must be positive");
                let mut raw: Vec<u64> = {
                    let mut rng = streams.stream("t1/numreq");
                    (0..self.objects)
                        .map(|_| rng.random_range(lo..=hi))
                        .collect()
                };
                nudge_sum(
                    &mut raw,
                    self.clients,
                    lo,
                    hi,
                    &mut streams.stream("t1/numreq-adjust"),
                );
                align_counts(
                    &size_keys,
                    &raw,
                    self.size_num_requests,
                    &mut streams.stream("t1/numreq-align"),
                )
            }
        };

        Table1Population {
            sizes,
            num_requests,
            recency,
        }
    }
}

/// Nudge integer values (each within `[lo, hi]`) until they sum exactly
/// to `target`, changing one randomly chosen element by ±1 per step.
/// Preserves the near-uniform marginal while hitting the paper's exact
/// totals (5000 units of size, 5000 clients).
///
/// # Panics
///
/// Panics if `target` is outside `[lo*n, hi*n]` (unreachable).
fn nudge_sum(values: &mut [u64], target: u64, lo: u64, hi: u64, rng: &mut StreamRng) {
    let n = values.len() as u64;
    assert!(
        (lo * n..=hi * n).contains(&target),
        "target sum {target} unreachable with {n} values in [{lo}, {hi}]"
    );
    let mut sum: u64 = values.iter().sum();
    while sum != target {
        let i = rng.random_range(0..values.len());
        if sum < target && values[i] < hi {
            values[i] += 1;
            sum += 1;
        } else if sum > target && values[i] > lo {
            values[i] -= 1;
            sum -= 1;
        }
    }
}

/// A materialized Table 1 population: per-object size, request count and
/// cached recency score (index = object id = rank).
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Population {
    /// Per-object size in data units.
    pub sizes: Vec<u64>,
    /// Per-object number of requesting clients.
    pub num_requests: Vec<u64>,
    /// Per-object cache recency *score*, already averaged over the
    /// requesting clients (Table 1's `Cache_Recency_Score`).
    pub recency: Vec<f64>,
}

impl Table1Population {
    /// Number of objects.
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the population is empty.
    /// (The `len` companion clippy's `len_without_is_empty` asks for.)
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Total size of all objects.
    pub fn total_size(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Total number of clients (sum of per-object request counts).
    pub fn total_clients(&self) -> u64 {
        self.num_requests.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::correlation::rank_correlation;

    #[test]
    fn paper_default_matches_table1_shape() {
        let pop = Table1Spec::paper_default().generate(42);
        assert_eq!(pop.len(), 500);
        assert_eq!(pop.total_size(), 5000);
        assert_eq!(pop.total_clients(), 5000);
        assert!(pop.sizes.iter().all(|&s| (1..=20).contains(&s)));
        assert!(pop.num_requests.iter().all(|&n| n == 10));
        assert!(pop.recency.iter().all(|&r| (0.1..=1.0).contains(&r)));
    }

    #[test]
    fn skewed_spec_hits_exact_client_total() {
        let spec = Table1Spec {
            num_requests: NumRequestsMode::UniformInt { lo: 1, hi: 20 },
            size_num_requests: Correlation::Negative,
            ..Table1Spec::paper_default()
        };
        let pop = spec.generate(7);
        assert_eq!(pop.total_clients(), 5000);
        assert!(pop.num_requests.iter().all(|&n| (1..=20).contains(&n)));
        // Negative correlation: small objects hot.
        let sizes: Vec<f64> = pop.sizes.iter().map(|&s| s as f64).collect();
        let reqs: Vec<f64> = pop.num_requests.iter().map(|&n| n as f64).collect();
        assert!(rank_correlation(&sizes, &reqs) < -0.8);
    }

    #[test]
    fn recency_correlations_are_induced() {
        for (corr, check) in [
            (Correlation::Positive, 1.0f64),
            (Correlation::Negative, -1.0),
        ] {
            let spec = Table1Spec {
                size_recency: corr,
                ..Table1Spec::paper_default()
            };
            let pop = spec.generate(3);
            let sizes: Vec<f64> = pop.sizes.iter().map(|&s| s as f64).collect();
            let r = rank_correlation(&sizes, &pop.recency);
            assert!(r * check > 0.8, "{corr:?} gave rank correlation {r}");
        }
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let spec = Table1Spec {
            num_requests: NumRequestsMode::UniformInt { lo: 1, hi: 20 },
            size_num_requests: Correlation::Positive,
            size_recency: Correlation::Negative,
            ..Table1Spec::paper_default()
        };
        assert_eq!(spec.generate(99), spec.generate(99));
        assert_ne!(spec.generate(99), spec.generate(100));
    }

    #[test]
    #[should_panic(expected = "unreachable")]
    fn impossible_total_is_rejected() {
        let mut v = vec![1u64, 1];
        let mut rng = RngStreams::new(0).stream("x");
        nudge_sum(&mut v, 100, 1, 20, &mut rng);
    }

    #[test]
    #[should_panic(expected = "every client")]
    fn constant_mode_must_cover_clients() {
        let spec = Table1Spec {
            num_requests: NumRequestsMode::Constant(7),
            ..Table1Spec::paper_default()
        };
        let _ = spec.generate(0);
    }
}
