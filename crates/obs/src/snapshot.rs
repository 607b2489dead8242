//! Materialized views of a recorder's state, produced at report time.

/// A counter's exported state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Stable counter name (`snake_case`).
    pub name: &'static str,
    /// Accumulated (saturating) count.
    pub value: u64,
}

/// A sampled distribution's exported summary.
#[derive(Debug, Clone, PartialEq)]
pub struct SampleSnapshot {
    /// Stable sample name (`snake_case`).
    pub name: &'static str,
    /// Number of observations.
    pub count: u64,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (0 with fewer than two observations).
    pub std_dev: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
    /// Streaming P² estimate of the 95th percentile.
    pub p95: f64,
}

/// A span stage's exported timing summary. All figures are nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSnapshot {
    /// Stable stage name (`snake_case`).
    pub name: &'static str,
    /// Number of spans recorded.
    pub count: u64,
    /// Total nanoseconds across all spans (saturating).
    pub total_ns: u64,
    /// Mean nanoseconds per span.
    pub mean_ns: f64,
    /// Streaming P² estimate of the 95th-percentile span.
    pub p95_ns: f64,
}

/// One heavy hitter on an attribution channel, exported from a top-K
/// summary. Labels are dynamic (`obj#7`, `client#3`) — the one place a
/// snapshot carries owned strings instead of static id names.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrSnapshot {
    /// Stable channel name (`snake_case`), e.g. `downlink_units_by_object`.
    pub channel: &'static str,
    /// Entity label rendered by the channel (`obj#7`, `client#3`).
    pub label: String,
    /// Estimated total weight charged to this entity (upper bound).
    pub weight: u64,
    /// Maximum overestimate in `weight` (Space-Saving error bound; 0
    /// means the count is exact).
    pub error: u64,
}

/// Everything a recorder observed, ready for export. Only ids that were
/// actually touched appear; an untouched recorder snapshots to four
/// empty lists.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counters with a non-zero value, in id order.
    pub counters: Vec<CounterSnapshot>,
    /// Distributions with at least one observation, in id order.
    pub samples: Vec<SampleSnapshot>,
    /// Stages with at least one span, in id order.
    pub spans: Vec<SpanSnapshot>,
    /// Top-K heavy hitters per attribution channel, heaviest first
    /// within each channel.
    pub attrs: Vec<AttrSnapshot>,
}

impl Snapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.samples.is_empty()
            && self.spans.is_empty()
            && self.attrs.is_empty()
    }

    /// Look up a counter's value by name (`None` if never incremented).
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Look up a sample summary by name.
    pub fn sample(&self, name: &str) -> Option<&SampleSnapshot> {
        self.samples.iter().find(|s| s.name == name)
    }

    /// Look up a span summary by name.
    pub fn span(&self, name: &str) -> Option<&SpanSnapshot> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// Test-only lookup the exporter and top-K tests read channels through.
#[cfg(test)]
impl Snapshot {
    /// All heavy hitters on one attribution channel, heaviest first.
    pub(crate) fn attrs_on<'a>(
        &'a self,
        channel: &'a str,
    ) -> impl Iterator<Item = &'a AttrSnapshot> + 'a {
        self.attrs.iter().filter(move |a| a.channel == channel)
    }
}
