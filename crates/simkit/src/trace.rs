//! Structured trace logging for simulations.
//!
//! Cluster runs produce thousands of lifecycle events (VM placed, VM
//! deflated, VM preempted, ...). The [`TraceLog`] records them with a hard
//! capacity cap so pathological runs cannot exhaust memory, and supports
//! simple category filtering for tests and the experiment harness.
//!
//! Records are rendered on read. A log holds values of any
//! [`TraceRecord`] type, typically a compact enum of ids and numbers,
//! and turns a record into text or a span tree only when a reader asks
//! ([`TraceLog::events`], [`TraceLog::spans`], [`TraceLog::to_json`]).
//! Counting ([`TraceLog::count`], [`TraceLog::span_count`]) reads a
//! record's [`Shape`] and never renders. A record past the cap is never
//! built at all: [`TraceLog::record_with`] checks capacity first.
//!
//! Two rendered shapes coexist:
//!
//! * [`TraceEvent`] — a flat timestamped message in a category; cheap,
//!   human-oriented, long-standing.
//! * [`Span`] — a typed, structured record with key/value attributes and
//!   nested child spans, e.g. a cascade deflation with one child per
//!   layer. Spans serialize to JSON ([`Span::to_json`]) and parse back
//!   ([`Span::from_json`]), so harnesses can persist and re-analyze runs.
//!
//! The default record type, [`Rendered`], stores either shape as is, for
//! callers that build their records eagerly ([`TraceLog::record`],
//! [`TraceLog::record_span`]).

use std::fmt;

use crate::json::JsonValue;
use crate::time::{SimDuration, SimTime};

/// One trace record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When the event happened.
    pub at: SimTime,
    /// Short machine-friendly category, e.g. `"deflate"` or `"preempt"`.
    pub category: &'static str,
    /// Human-readable details.
    pub message: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.at, self.category, self.message)
    }
}

/// An attribute value attached to a [`Span`].
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A number (counts, resource amounts, fractions).
    Num(f64),
    /// A string (ids, layer names, outcomes).
    Str(String),
    /// A flag.
    Bool(bool),
}

impl AttrValue {
    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            AttrValue::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The flag, if this is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }
}

impl From<f64> for AttrValue {
    fn from(n: f64) -> Self {
        AttrValue::Num(n)
    }
}

impl From<u64> for AttrValue {
    fn from(n: u64) -> Self {
        AttrValue::Num(n as f64)
    }
}

impl From<usize> for AttrValue {
    fn from(n: usize) -> Self {
        AttrValue::Num(n as f64)
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.to_string())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Num(n) => write!(f, "{n}"),
            AttrValue::Str(s) => write!(f, "{s}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

/// A typed structured trace record: what happened, when, for how long,
/// with arbitrary key/value attributes and nested child spans.
///
/// The cascade controller, for example, emits one `cascade.deflate` span
/// per deflation with a child span per engaged layer carrying that
/// layer's requested/reclaimed/latency payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Dotted span type, e.g. `cascade.deflate` or `cluster.preempt`.
    pub kind: String,
    /// When the spanned operation started.
    pub at: SimTime,
    /// How long it took (zero for instantaneous events).
    pub duration: SimDuration,
    /// Key/value payload, insertion-ordered.
    pub attrs: Vec<(String, AttrValue)>,
    /// Nested sub-operations.
    pub children: Vec<Span>,
}

impl Span {
    /// Creates an attribute-less instantaneous span.
    pub fn new(kind: impl Into<String>, at: SimTime) -> Self {
        Span {
            kind: kind.into(),
            at,
            duration: SimDuration::ZERO,
            attrs: Vec::new(),
            children: Vec::new(),
        }
    }

    /// Builder: sets the duration.
    pub fn with_duration(mut self, duration: SimDuration) -> Self {
        self.duration = duration;
        self
    }

    /// Builder: appends an attribute.
    pub fn with_attr(mut self, key: &str, value: impl Into<AttrValue>) -> Self {
        self.attrs.push((key.to_string(), value.into()));
        self
    }

    /// Builder: appends a child span.
    pub fn with_child(mut self, child: Span) -> Self {
        self.children.push(child);
        self
    }

    /// Attribute lookup.
    pub fn attr(&self, key: &str) -> Option<&AttrValue> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// First child of the given kind.
    pub fn child(&self, kind: &str) -> Option<&Span> {
        self.children.iter().find(|c| c.kind == kind)
    }

    /// Serializes to a JSON object.
    ///
    /// Times are encoded as integer microseconds (`at_us`, `duration_us`)
    /// so [`from_json`](Self::from_json) round-trips exactly.
    pub fn to_json(&self) -> JsonValue {
        let mut attrs = JsonValue::object();
        for (k, v) in &self.attrs {
            let jv = match v {
                AttrValue::Num(n) => JsonValue::Num(*n),
                AttrValue::Str(s) => JsonValue::Str(s.clone()),
                AttrValue::Bool(b) => JsonValue::Bool(*b),
            };
            attrs.set(k, jv);
        }
        JsonValue::object()
            .with("kind", self.kind.as_str())
            .with("at_us", self.at.as_micros())
            .with("duration_us", self.duration.as_micros())
            .with("attrs", attrs)
            .with(
                "children",
                JsonValue::Arr(self.children.iter().map(Span::to_json).collect()),
            )
    }

    /// Parses a span previously produced by [`to_json`](Self::to_json).
    pub fn from_json(doc: &JsonValue) -> Result<Span, String> {
        let kind = doc
            .get("kind")
            .and_then(JsonValue::as_str)
            .ok_or("span missing 'kind'")?
            .to_string();
        let at_us = doc
            .get("at_us")
            .and_then(JsonValue::as_f64)
            .ok_or("span missing 'at_us'")?;
        let duration_us = doc
            .get("duration_us")
            .and_then(JsonValue::as_f64)
            .ok_or("span missing 'duration_us'")?;
        let mut attrs = Vec::new();
        if let Some(pairs) = doc.get("attrs").and_then(JsonValue::as_object) {
            for (k, v) in pairs {
                let av = match v {
                    JsonValue::Num(n) => AttrValue::Num(*n),
                    JsonValue::Str(s) => AttrValue::Str(s.clone()),
                    JsonValue::Bool(b) => AttrValue::Bool(*b),
                    other => return Err(format!("unsupported attr value {other}")),
                };
                attrs.push((k.clone(), av));
            }
        }
        let mut children = Vec::new();
        if let Some(items) = doc.get("children").and_then(JsonValue::as_array) {
            for item in items {
                children.push(Span::from_json(item)?);
            }
        }
        Ok(Span {
            kind,
            at: SimTime::from_micros(at_us as u64),
            duration: SimDuration::from_micros(duration_us as u64),
            attrs,
            children,
        })
    }
}

/// What a record renders to, known without rendering it: an event in a
/// category or a root span of a kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape<'a> {
    /// Renders to a [`TraceEvent`] in this category.
    Event(&'a str),
    /// Renders to a root [`Span`] of this kind.
    Span(&'a str),
}

/// A rendered record: a flat event or a span tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Rendered {
    /// A flat timestamped message.
    Event(TraceEvent),
    /// A structured span tree.
    Span(Span),
}

/// A value a [`TraceLog`] can hold and render on read.
///
/// [`render`](Self::render) must produce the shape that
/// [`shape`](Self::shape) announces, with the same category or kind.
pub trait TraceRecord {
    /// The category or span kind, read without rendering.
    fn shape(&self) -> Shape<'_>;
    /// Renders the record to its event or span.
    fn render(&self) -> Rendered;
}

impl TraceRecord for Rendered {
    fn shape(&self) -> Shape<'_> {
        match self {
            Rendered::Event(e) => Shape::Event(e.category),
            Rendered::Span(s) => Shape::Span(&s.kind),
        }
    }

    fn render(&self) -> Rendered {
        self.clone()
    }
}

/// A bounded in-memory trace of records rendered on read.
#[derive(Debug)]
pub struct TraceLog<R = Rendered> {
    records: Vec<R>,
    capacity: usize,
    dropped: u64,
}

impl<R: TraceRecord> Default for TraceLog<R> {
    fn default() -> Self {
        TraceLog::with_capacity(100_000)
    }
}

impl<R: TraceRecord> TraceLog<R> {
    /// Creates a log that keeps at most `capacity` records (events and
    /// spans combined); later records are counted but dropped.
    pub fn with_capacity(capacity: usize) -> Self {
        TraceLog {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends the record `build` returns, or counts it as dropped when
    /// the log is full. `build` runs only for a record the log keeps.
    /// A span's children ride along with their root and do not count
    /// toward the capacity individually.
    pub fn record_with(&mut self, build: impl FnOnce() -> R) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(build());
    }

    /// The retained records, unrendered, in order.
    pub fn records(&self) -> &[R] {
        &self.records
    }

    /// Retained events whose category passes `keep`, rendered in order.
    fn events_where<'a>(
        &'a self,
        keep: impl Fn(&str) -> bool + 'a,
    ) -> impl Iterator<Item = TraceEvent> + 'a {
        self.records
            .iter()
            .filter(move |r| matches!(r.shape(), Shape::Event(c) if keep(c)))
            .map(|r| match r.render() {
                Rendered::Event(e) => e,
                Rendered::Span(s) => panic!("an event-shaped record rendered as span {}", s.kind),
            })
    }

    /// Retained root spans whose kind passes `keep`, rendered in order.
    fn spans_where<'a>(
        &'a self,
        keep: impl Fn(&str) -> bool + 'a,
    ) -> impl Iterator<Item = Span> + 'a {
        self.records
            .iter()
            .filter(move |r| matches!(r.shape(), Shape::Span(k) if keep(k)))
            .map(|r| match r.render() {
                Rendered::Span(s) => s,
                Rendered::Event(e) => panic!("a span-shaped record rendered as event {e}"),
            })
    }

    /// All retained root spans, rendered in order.
    pub fn spans(&self) -> impl Iterator<Item = Span> + '_ {
        self.spans_where(|_| true)
    }

    /// Root spans of a given kind, rendered in order.
    pub fn spans_by_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = Span> + 'a {
        self.spans_where(move |k| k == kind)
    }

    /// Number of root spans of a kind (no rendering).
    pub fn span_count(&self, kind: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.shape() == Shape::Span(kind))
            .count()
    }

    /// Serializes the whole log (events, then spans) to a JSON object.
    pub fn to_json(&self) -> JsonValue {
        let events: Vec<JsonValue> = self
            .events()
            .map(|e| {
                JsonValue::object()
                    .with("at_us", e.at.as_micros())
                    .with("category", e.category)
                    .with("message", e.message)
            })
            .collect();
        JsonValue::object()
            .with("events", JsonValue::Arr(events))
            .with(
                "spans",
                JsonValue::Arr(self.spans().map(|s| s.to_json()).collect()),
            )
            .with("dropped", self.dropped)
    }

    /// All retained events, rendered in order.
    pub fn events(&self) -> impl Iterator<Item = TraceEvent> + '_ {
        self.events_where(|_| true)
    }

    /// Events in a given category, rendered in order.
    pub fn by_category<'a>(&'a self, category: &'a str) -> impl Iterator<Item = TraceEvent> + 'a {
        self.events_where(move |c| c == category)
    }

    /// Number of events in a category (no rendering).
    pub fn count(&self, category: &str) -> usize {
        self.records
            .iter()
            .filter(|r| r.shape() == Shape::Event(category))
            .count()
    }

    /// Number of records dropped due to the capacity cap.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained records (events plus root spans).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

impl TraceLog {
    /// Appends an event (or counts it as dropped when at capacity; the
    /// message is converted only when kept).
    pub fn record(&mut self, at: SimTime, category: &'static str, message: impl Into<String>) {
        self.record_with(|| {
            Rendered::Event(TraceEvent {
                at,
                category,
                message: message.into(),
            })
        });
    }

    /// Appends a structured span (or counts it as dropped when at
    /// capacity).
    pub fn record_span(&mut self, span: Span) {
        self.record_with(|| Rendered::Span(span));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::Observability;

    #[test]
    fn records_and_filters() {
        let mut log = TraceLog::default();
        log.record(SimTime::ZERO, "deflate", "vm-1 by 25%");
        log.record(SimTime::from_secs(1), "preempt", "vm-2");
        log.record(SimTime::from_secs(2), "deflate", "vm-3 by 10%");
        assert_eq!(log.len(), 3);
        assert_eq!(log.count("deflate"), 2);
        assert_eq!(log.count("preempt"), 1);
        assert_eq!(log.count("missing"), 0);
        assert!(!log.is_empty());
    }

    #[test]
    fn capacity_cap_drops() {
        let mut log = TraceLog::with_capacity(2);
        for i in 0..5 {
            log.record(SimTime::from_secs(i), "x", "e");
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 3);
    }

    /// Construction and render counts shared by [`Counted`] records.
    #[derive(Default)]
    struct Tally {
        built: std::cell::Cell<usize>,
        rendered: std::cell::Cell<usize>,
    }

    /// A typed record that counts how often it is built and rendered.
    /// Every third one is a span.
    struct Counted<'a> {
        n: u64,
        tally: &'a Tally,
    }

    impl<'a> Counted<'a> {
        fn new(n: u64, tally: &'a Tally) -> Self {
            tally.built.set(tally.built.get() + 1);
            Counted { n, tally }
        }
    }

    /// What a [`Counted`] record `n` renders to, built eagerly.
    fn eager(n: u64) -> Rendered {
        let at = SimTime::from_secs(n);
        if n % 3 == 0 {
            Rendered::Span(Span::new("tick", at).with_attr("n", n))
        } else {
            Rendered::Event(TraceEvent {
                at,
                category: if n % 3 == 1 { "odd" } else { "even" },
                message: format!("record {n}"),
            })
        }
    }

    impl TraceRecord for Counted<'_> {
        fn shape(&self) -> Shape<'_> {
            match self.n % 3 {
                0 => Shape::Span("tick"),
                1 => Shape::Event("odd"),
                _ => Shape::Event("even"),
            }
        }

        fn render(&self) -> Rendered {
            self.tally.rendered.set(self.tally.rendered.get() + 1);
            eager(self.n)
        }
    }

    #[test]
    fn records_past_the_cap_are_never_built_or_rendered() {
        const CAP: usize = 7;
        const CALLS: u64 = 20;
        let tally = Tally::default();
        let mut typed = TraceLog::with_capacity(CAP);
        let mut eager_log = TraceLog::with_capacity(CAP);
        for n in 0..CALLS {
            typed.record_with(|| Counted::new(n, &tally));
            eager_log.record_with(|| eager(n));
        }
        // Only kept records were built; counting renders nothing.
        assert_eq!(tally.built.get(), CAP);
        assert_eq!(typed.len(), CAP);
        assert_eq!(typed.dropped(), CALLS - CAP as u64);
        assert_eq!(typed.len() as u64 + typed.dropped(), CALLS);
        assert!(typed.records().iter().all(|r| r.n < CAP as u64));
        for kind in ["tick", "missing"] {
            assert_eq!(typed.span_count(kind), eager_log.span_count(kind));
        }
        for category in ["odd", "even", "missing"] {
            assert_eq!(typed.count(category), eager_log.count(category));
        }
        assert_eq!(tally.rendered.get(), 0);

        // The run summary's trace section matches the eager log's and is
        // also built without rendering.
        let mut typed_obs = Observability {
            metrics: Default::default(),
            trace: typed,
        };
        let mut eager_obs = Observability::new();
        eager_obs.trace = eager_log;
        let typed_summary = typed_obs.run_summary("cap");
        assert_eq!(
            typed_summary.get("trace"),
            eager_obs.run_summary("cap").get("trace")
        );
        assert_eq!(tally.rendered.get(), 0);

        // Export renders each kept record exactly once and matches the
        // eager log byte for byte.
        assert_eq!(
            typed_obs.trace.to_json().to_string(),
            eager_obs.trace.to_json().to_string()
        );
        assert_eq!(tally.rendered.get(), CAP);
        assert_eq!(tally.built.get(), CAP);
    }

    #[test]
    fn display_format() {
        let ev = TraceEvent {
            at: SimTime::from_secs(1),
            category: "deflate",
            message: "vm-1".into(),
        };
        assert_eq!(format!("{ev}"), "[1.000000s] deflate: vm-1");
    }

    #[test]
    fn spans_record_and_filter() {
        let mut log = TraceLog::default();
        log.record_span(
            Span::new("cascade.deflate", SimTime::from_secs(1))
                .with_attr("vm", "vm-1")
                .with_child(Span::new("cascade.layer", SimTime::from_secs(1))),
        );
        log.record_span(Span::new("cluster.preempt", SimTime::from_secs(2)));
        assert_eq!(log.span_count("cascade.deflate"), 1);
        assert_eq!(log.span_count("cluster.preempt"), 1);
        assert_eq!(log.span_count("missing"), 0);
        assert_eq!(log.len(), 2);
        let s = log.spans_by_kind("cascade.deflate").next().unwrap();
        assert_eq!(s.attr("vm").and_then(AttrValue::as_str), Some("vm-1"));
        assert!(s.child("cascade.layer").is_some());
    }

    #[test]
    fn spans_share_the_capacity_cap() {
        let mut log = TraceLog::with_capacity(2);
        log.record(SimTime::ZERO, "x", "e");
        log.record_span(Span::new("s", SimTime::ZERO));
        log.record_span(Span::new("s", SimTime::ZERO));
        log.record(SimTime::ZERO, "x", "e");
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 2);
    }

    #[test]
    fn span_json_round_trip() {
        let span = Span::new("cascade.deflate", SimTime::from_millis(1_500))
            .with_duration(SimDuration::from_millis(11_100))
            .with_attr("vm", "vm-7")
            .with_attr("met_target", true)
            .with_attr("total_cpu", 2.5)
            .with_child(
                Span::new("cascade.layer", SimTime::from_millis(1_500))
                    .with_duration(SimDuration::from_millis(100))
                    .with_attr("layer", "app")
                    .with_attr("reclaimed_cpu", 1.0),
            );
        let text = span.to_json().to_string();
        let parsed = Span::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert_eq!(parsed, span);
    }

    #[test]
    fn log_to_json_includes_both_shapes() {
        let mut log = TraceLog::default();
        log.record(SimTime::ZERO, "launch", "vm-1");
        log.record_span(Span::new("cascade.deflate", SimTime::ZERO));
        let doc = log.to_json();
        assert_eq!(
            doc.get("events")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
        assert_eq!(
            doc.get("spans")
                .and_then(JsonValue::as_array)
                .map(<[_]>::len),
            Some(1)
        );
        assert_eq!(doc.get("dropped").and_then(JsonValue::as_f64), Some(0.0));
    }
}
