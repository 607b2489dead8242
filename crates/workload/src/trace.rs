//! Request-trace record and replay.
//!
//! The paper's Section 3.2 comparison is *paired*: "Both simulations used
//! the same set of randomly generated client requests." A
//! [`RequestTrace`] materializes the per-time-unit batches once so every
//! policy under comparison replays byte-identical demand. Traces also
//! round-trip through a plain text format for archiving and cross-run
//! replay.

use basecache_net::ObjectId;
use basecache_sim::StreamRng;

use crate::requests::{GeneratedRequest, RequestGenerator};

/// A recorded sequence of per-time-unit request batches.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RequestTrace {
    batches: Vec<Vec<GeneratedRequest>>,
}

/// Error from parsing a serialized trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceParseError {
    /// 1-based line number of the offending record.
    pub line: usize,
    /// What went wrong.
    pub detail: String,
}

impl std::fmt::Display for TraceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "trace parse error at line {}: {}",
            self.line, self.detail
        )
    }
}

impl std::error::Error for TraceParseError {}

impl RequestTrace {
    /// Record `ticks` batches from a generator.
    pub fn record(generator: &RequestGenerator, ticks: usize, rng: &mut StreamRng) -> Self {
        Self {
            batches: (0..ticks).map(|_| generator.batch(rng)).collect(),
        }
    }

    /// Build a trace directly from batches (tests, hand-crafted demand).
    pub fn from_batches(batches: Vec<Vec<GeneratedRequest>>) -> Self {
        Self { batches }
    }

    /// The batch for time unit `t`, if recorded.
    pub fn batch(&self, t: usize) -> Option<&[GeneratedRequest]> {
        self.batches.get(t).map(Vec::as_slice)
    }

    /// Number of recorded time units.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the trace is empty.
    /// (The `len` companion clippy's `len_without_is_empty` asks for.)
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Total requests across all batches.
    pub fn total_requests(&self) -> usize {
        self.batches.iter().map(Vec::len).sum()
    }

    /// Iterate over `(time_unit, batch)`.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &[GeneratedRequest])> {
        self.batches
            .iter()
            .enumerate()
            .map(|(t, b)| (t, b.as_slice()))
    }

    /// Serialize to a plain text format: one line per time unit, requests
    /// as `object:target` pairs separated by spaces. Empty batches are
    /// empty lines.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for batch in &self.batches {
            let mut first = true;
            for r in batch {
                if !first {
                    out.push(' ');
                }
                first = false;
                out.push_str(&format!("{}:{}", r.object.0, r.target_recency));
            }
            out.push('\n');
        }
        out
    }

    /// Parse the format produced by [`Self::to_text`].
    pub fn from_text(text: &str) -> Result<Self, TraceParseError> {
        let mut batches = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let mut batch = Vec::new();
            for token in line.split_whitespace() {
                let (obj, target) = token.split_once(':').ok_or_else(|| TraceParseError {
                    line: i + 1,
                    detail: format!("token `{token}` missing `:`"),
                })?;
                let object = obj.parse::<u32>().map_err(|e| TraceParseError {
                    line: i + 1,
                    detail: format!("bad object id `{obj}`: {e}"),
                })?;
                let target_recency = target.parse::<f64>().map_err(|e| TraceParseError {
                    line: i + 1,
                    detail: format!("bad target `{target}`: {e}"),
                })?;
                if !(0.0..=1.0).contains(&target_recency) {
                    return Err(TraceParseError {
                        line: i + 1,
                        detail: format!("target {target_recency} outside [0, 1]"),
                    });
                }
                batch.push(GeneratedRequest {
                    object: ObjectId(object),
                    target_recency,
                });
            }
            batches.push(batch);
        }
        Ok(Self { batches })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::popularity::Popularity;
    use crate::requests::TargetRecency;
    use basecache_sim::RngStreams;

    fn sample_trace() -> RequestTrace {
        let gen = RequestGenerator::new(
            Popularity::ZIPF1.build(20),
            5,
            TargetRecency::Uniform { lo: 0.5, hi: 1.0 },
        );
        let mut rng = RngStreams::new(8).stream("trace");
        RequestTrace::record(&gen, 10, &mut rng)
    }

    #[test]
    fn record_produces_requested_shape() {
        let t = sample_trace();
        assert_eq!(t.len(), 10);
        assert_eq!(t.total_requests(), 50);
        assert_eq!(t.batch(3).unwrap().len(), 5);
        assert!(t.batch(10).is_none());
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let t = sample_trace();
        let text = t.to_text();
        let back = RequestTrace::from_text(&text).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_batches_roundtrip() {
        let t = RequestTrace::from_batches(vec![
            vec![],
            vec![GeneratedRequest {
                object: ObjectId(3),
                target_recency: 1.0,
            }],
            vec![],
        ]);
        let back = RequestTrace::from_text(&t.to_text()).unwrap();
        assert_eq!(t, back);
        assert_eq!(back.batch(0).unwrap().len(), 0);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = RequestTrace::from_text("1:0.5\ngarbage\n").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("line 2"));

        let err = RequestTrace::from_text("1:1.5\n").unwrap_err();
        assert!(err.detail.contains("outside"));

        let err = RequestTrace::from_text("x:0.5\n").unwrap_err();
        assert!(err.detail.contains("bad object id"));
    }

    #[test]
    fn paired_replay_is_identical() {
        // Two policies replaying the same trace see identical demand;
        // this is what makes the Section 3.2 comparison paired.
        let t = sample_trace();
        let a: Vec<_> = t.iter().collect();
        let b: Vec<_> = t.iter().collect();
        assert_eq!(a, b);
    }
}
