//! The unified observability bundle: one [`MetricsRegistry`] plus one
//! [`TraceLog`], threaded through a simulation so every component records
//! into the same place, and exported as a single machine-readable run
//! summary at the end.
//!
//! ```
//! use simkit::{Observability, SimTime};
//!
//! let mut obs = Observability::new();
//! obs.metrics.incr("cluster.launched");
//! obs.trace.record(SimTime::ZERO, "launch", "vm-1");
//! let summary = obs.run_summary("example");
//! assert_eq!(
//!     summary.get("counters").and_then(|c| c.get("cluster.launched")).and_then(|v| v.as_f64()),
//!     Some(1.0)
//! );
//! ```

use std::collections::BTreeMap;

use crate::json::JsonValue;
use crate::metrics::MetricsRegistry;
use crate::time::SimTime;
use crate::trace::{Rendered, Shape, TraceLog, TraceRecord};

/// Shared observability state for one run: named metrics and a trace of
/// `R` records (eagerly [`Rendered`] ones unless a component brings its
/// own record type).
#[derive(Debug)]
pub struct Observability<R = Rendered> {
    /// Counters, gauges, and histograms by hierarchical key.
    pub metrics: MetricsRegistry,
    /// Lifecycle events and structured spans.
    pub trace: TraceLog<R>,
}

impl<R: TraceRecord> Default for Observability<R> {
    fn default() -> Self {
        Observability {
            metrics: MetricsRegistry::default(),
            trace: TraceLog::default(),
        }
    }
}

impl Observability {
    /// Creates an empty bundle with an eagerly rendered trace.
    pub fn new() -> Self {
        Observability::default()
    }
}

impl<R: TraceRecord> Observability<R> {
    /// Folds gauge history up to `now`; call once when the run ends.
    pub fn finalize(&mut self, now: SimTime) {
        self.metrics.finalize(now);
    }

    /// Builds the per-run summary: every metric plus trace record counts.
    ///
    /// The summary is intentionally aggregate, and counting renders no
    /// record. Individual events and spans are available via
    /// [`TraceLog::to_json`] when a harness wants the full firehose.
    pub fn run_summary(&mut self, run: &str) -> JsonValue {
        let mut kinds: BTreeMap<&str, usize> = BTreeMap::new();
        for r in self.trace.records() {
            if let Shape::Span(kind) = r.shape() {
                *kinds.entry(kind).or_default() += 1;
            }
        }
        let mut span_kinds = JsonValue::object();
        for (kind, n) in kinds {
            span_kinds.set(kind, n);
        }
        let trace = JsonValue::object()
            .with("records", self.trace.len())
            .with("dropped", self.trace.dropped())
            .with("spans", span_kinds);
        let metrics = self.metrics.to_json();
        let mut out = JsonValue::object().with("run", run);
        // Inline the metric sections so consumers address
        // `summary.counters.<key>` directly.
        for section in ["counters", "gauges", "histograms"] {
            if let Some(v) = metrics.get(section) {
                out.set(section, v.clone());
            }
        }
        out.with("trace", trace)
    }

    /// The run summary as pretty-printed JSON text.
    pub fn run_summary_text(&mut self, run: &str) -> String {
        self.run_summary(run).to_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Span;

    #[test]
    fn summary_aggregates_metrics_and_trace() {
        let mut obs = Observability::new();
        obs.metrics.incr("a");
        obs.metrics.gauge_set("g", SimTime::ZERO, 1.0);
        obs.metrics.observe("h", 3.0);
        obs.trace.record(SimTime::ZERO, "launch", "vm-1");
        obs.trace
            .record_span(Span::new("cascade.deflate", SimTime::ZERO));
        obs.trace
            .record_span(Span::new("cascade.deflate", SimTime::ZERO));
        obs.finalize(SimTime::from_secs(10));

        let doc = obs.run_summary("unit");
        assert_eq!(doc.get("run").and_then(JsonValue::as_str), Some("unit"));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("a"))
                .and_then(JsonValue::as_f64),
            Some(1.0)
        );
        let trace = doc.get("trace").unwrap();
        assert_eq!(trace.get("records").and_then(JsonValue::as_f64), Some(3.0));
        assert_eq!(
            trace
                .get("spans")
                .and_then(|s| s.get("cascade.deflate"))
                .and_then(JsonValue::as_f64),
            Some(2.0)
        );
        // Text form parses back.
        let text = obs.run_summary_text("unit");
        assert!(JsonValue::parse(&text).is_ok());
    }
}
