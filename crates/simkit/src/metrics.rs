//! Metric recording for simulations: counters, time-weighted gauges,
//! time series, and histograms, plus CSV export for the figure harness.
//!
//! For ad-hoc instrumentation the individual types can be held directly;
//! for end-to-end observability the [`MetricsRegistry`] addresses all
//! three kinds by hierarchical dotted key (`cluster.deflations`,
//! `cascade.os.latency_s`, ...) and exports a single machine-readable
//! snapshot as JSON or CSV.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::JsonValue;
use crate::stats;
use crate::time::{SimDuration, SimTime};

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.value += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.value += n;
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A gauge whose *time-weighted* average is what matters (e.g. cluster
/// utilization over a run).
#[derive(Debug, Clone)]
pub struct TimeWeightedGauge {
    current: f64,
    last_update: SimTime,
    weighted_sum: f64,
    observed: SimDuration,
    peak: f64,
}

impl TimeWeightedGauge {
    /// Creates a gauge with an initial value at `t0`.
    pub fn new(t0: SimTime, initial: f64) -> Self {
        TimeWeightedGauge {
            current: initial,
            last_update: t0,
            weighted_sum: 0.0,
            observed: SimDuration::ZERO,
            peak: initial,
        }
    }

    /// Sets the gauge to `value` at time `now`, accumulating the previous
    /// value over the elapsed interval.
    ///
    /// Out-of-order updates (a `now` before the previous update) are safe:
    /// they contribute a zero-length interval and the gauge clock never
    /// runs backwards, so later intervals are not double-counted.
    pub fn set(&mut self, now: SimTime, value: f64) {
        let dt = now.saturating_since(self.last_update);
        self.weighted_sum += self.current * dt.as_secs_f64();
        self.observed += dt;
        if now > self.last_update {
            self.last_update = now;
        }
        self.current = value;
        if value > self.peak {
            self.peak = value;
        }
    }

    /// Adds `delta` to the gauge at time `now`.
    pub fn add(&mut self, now: SimTime, delta: f64) {
        let v = self.current + delta;
        self.set(now, v);
    }

    /// The instantaneous value.
    pub fn current(&self) -> f64 {
        self.current
    }

    /// The largest value ever set.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Time-weighted average over `[t0, now]`; call [`set`](Self::set) (or
    /// this with the final time via [`finalized_mean`](Self::finalized_mean))
    /// before reading.
    pub fn mean(&self) -> f64 {
        let secs = self.observed.as_secs_f64();
        if secs == 0.0 {
            self.current
        } else {
            self.weighted_sum / secs
        }
    }

    /// Accumulates up to `now` and returns the time-weighted average.
    pub fn finalized_mean(&mut self, now: SimTime) -> f64 {
        let v = self.current;
        self.set(now, v);
        self.mean()
    }
}

/// A recorded series of `(time, value)` samples.
#[derive(Debug, Default, Clone)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Appends a sample. Times must be non-decreasing.
    ///
    /// # Panics
    ///
    /// Panics if `t` precedes the previous sample (in debug builds).
    pub fn push(&mut self, t: SimTime, v: f64) {
        debug_assert!(
            self.points.last().map(|(pt, _)| *pt <= t).unwrap_or(true),
            "time series samples must be chronological"
        );
        self.points.push((t, v));
    }

    /// All samples.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Just the values.
    pub fn values(&self) -> Vec<f64> {
        self.points.iter().map(|(_, v)| *v).collect()
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Returns `true` when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Last value, if any.
    pub fn last(&self) -> Option<f64> {
        self.points.last().map(|(_, v)| *v)
    }

    /// Mean of the sampled values (unweighted).
    pub fn mean(&self) -> f64 {
        stats::mean(&self.values())
    }

    /// Re-buckets the series into fixed windows, averaging samples in each
    /// window. Empty windows repeat the previous value (or 0 initially).
    pub fn resample(&self, window: SimDuration) -> Vec<(SimTime, f64)> {
        assert!(!window.is_zero(), "resample window must be positive");
        let Some(&(first, _)) = self.points.first() else {
            return Vec::new();
        };
        let (last, _) = *self.points.last().expect("non-empty");
        let mut out = Vec::new();
        let mut t = first;
        let mut idx = 0;
        let mut prev = 0.0;
        while t <= last {
            let end = t + window;
            let mut sum = 0.0;
            let mut n = 0;
            while idx < self.points.len() && self.points[idx].0 < end {
                sum += self.points[idx].1;
                n += 1;
                idx += 1;
            }
            let v = if n > 0 { sum / n as f64 } else { prev };
            out.push((t, v));
            prev = v;
            t = end;
        }
        out
    }
}

/// A histogram of raw samples supporting quantiles and means.
#[derive(Debug, Default, Clone)]
pub struct Histogram {
    samples: Vec<f64>,
    sorted: bool,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records a sample.
    pub fn record(&mut self, v: f64) {
        self.samples.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Returns `true` when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean of samples (0 if empty).
    pub fn mean(&self) -> f64 {
        stats::mean(&self.samples)
    }

    /// Interpolated quantile `q` in `[0, 1]` (0 if empty).
    pub fn quantile(&mut self, q: f64) -> f64 {
        if !self.sorted {
            // total_cmp: a stray NaN observation must not panic a sweep.
            self.samples.sort_unstable_by(f64::total_cmp);
            self.sorted = true;
        }
        stats::percentile_sorted(&self.samples, q)
    }

    /// Raw samples in insertion or sorted order (unspecified).
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }
}

/// A registry of counters, time-weighted gauges, and histograms addressed
/// by hierarchical dotted key.
///
/// Keys are free-form strings by convention structured as
/// `component.sub.metric`, e.g. `cluster.preempted`,
/// `cascade.hypervisor.latency_s`, `vm.hotplug.failed`. Metrics are
/// created lazily on first touch, so instrumentation sites never need
/// registration boilerplate.
///
/// # Export
///
/// [`to_json`](Self::to_json) renders one snapshot object with a section
/// per metric kind; histogram sections include count, mean, and the
/// p50/p90/p99 quantiles. [`to_csv`](Self::to_csv) renders the same
/// snapshot as long-format `kind,key,stat,value` rows.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, TimeWeightedGauge>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds one to the named counter (created at zero on first use).
    pub fn incr(&mut self, key: &str) {
        self.add(key, 1);
    }

    /// Adds `n` to the named counter (created on first *nonzero*
    /// contribution — a zero add is a no-op, so per-event sites can call
    /// this unconditionally without registering keys for activity that
    /// never happened).
    ///
    /// Hot path: instrumentation sites call this per simulation event, so
    /// the existing-key case must not allocate — `entry` would clone the
    /// key on every call just to (usually) throw it away.
    pub fn add(&mut self, key: &str, n: u64) {
        if n == 0 {
            return;
        }
        if let Some(c) = self.counters.get_mut(key) {
            c.add(n);
        } else {
            self.counters.entry(key.to_string()).or_default().add(n);
        }
    }

    /// Current value of a counter (zero when never touched).
    pub fn count(&self, key: &str) -> u64 {
        self.counters.get(key).map(Counter::get).unwrap_or(0)
    }

    /// Sets the named gauge to `value` at `now`.
    ///
    /// The first call creates the gauge with `now` as its origin; later
    /// calls accumulate time-weighted history. Out-of-order updates are
    /// safe — an earlier `now` contributes a zero-length interval (the
    /// gauge clock never runs backwards).
    pub fn gauge_set(&mut self, key: &str, now: SimTime, value: f64) {
        // Allocation-free on the (hot) existing-key path; see `add`.
        if let Some(g) = self.gauges.get_mut(key) {
            g.set(now, value);
        } else {
            self.gauges
                .insert(key.to_string(), TimeWeightedGauge::new(now, value));
        }
    }

    /// Adds `delta` to the named gauge at `now` (created at `delta`).
    pub fn gauge_add(&mut self, key: &str, now: SimTime, delta: f64) {
        if let Some(g) = self.gauges.get_mut(key) {
            g.add(now, delta);
        } else {
            let mut g = TimeWeightedGauge::new(now, 0.0);
            g.add(now, delta);
            self.gauges.insert(key.to_string(), g);
        }
    }

    /// Looks up a gauge.
    pub fn gauge(&self, key: &str) -> Option<&TimeWeightedGauge> {
        self.gauges.get(key)
    }

    /// Records a sample into the named histogram (created on first use).
    pub fn observe(&mut self, key: &str, v: f64) {
        // Allocation-free on the (hot) existing-key path; see `add`.
        if let Some(h) = self.histograms.get_mut(key) {
            h.record(v);
        } else {
            self.histograms
                .entry(key.to_string())
                .or_default()
                .record(v);
        }
    }

    /// Looks up a histogram.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Interpolated quantile of the named histogram (zero when absent).
    pub fn quantile(&mut self, key: &str, q: f64) -> f64 {
        self.histograms
            .get_mut(key)
            .map(|h| h.quantile(q))
            .unwrap_or(0.0)
    }

    /// Accumulates every gauge up to `now` so means cover the full run.
    /// Call once at the end of a simulation before exporting.
    pub fn finalize(&mut self, now: SimTime) {
        for g in self.gauges.values_mut() {
            g.finalized_mean(now);
        }
    }

    /// All keys, each prefixed with its metric kind.
    pub fn keys(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        out.extend(self.counters.keys().map(|k| format!("counter:{k}")));
        out.extend(self.gauges.keys().map(|k| format!("gauge:{k}")));
        out.extend(self.histograms.keys().map(|k| format!("histogram:{k}")));
        out
    }

    /// Returns `true` when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Renders a snapshot of every metric as a JSON object.
    pub fn to_json(&mut self) -> JsonValue {
        let mut counters = JsonValue::object();
        for (k, c) in &self.counters {
            counters.set(k, c.get());
        }
        let mut gauges = JsonValue::object();
        for (k, g) in &self.gauges {
            gauges.set(
                k,
                JsonValue::object()
                    .with("current", g.current())
                    .with("mean", g.mean())
                    .with("peak", g.peak()),
            );
        }
        let mut histograms = JsonValue::object();
        // Quantiles need `&mut` (lazy sort), so iterate keys by value.
        let keys: Vec<String> = self.histograms.keys().cloned().collect();
        for k in keys {
            let h = self.histograms.get_mut(&k).expect("key just listed");
            let snap = JsonValue::object()
                .with("count", h.len())
                .with("mean", h.mean())
                .with("p50", h.quantile(0.50))
                .with("p90", h.quantile(0.90))
                .with("p99", h.quantile(0.99))
                .with("min", h.quantile(0.0))
                .with("max", h.quantile(1.0));
            histograms.set(&k, snap);
        }
        JsonValue::object()
            .with("counters", counters)
            .with("gauges", gauges)
            .with("histograms", histograms)
    }

    /// Renders the snapshot as long-format CSV: `kind,key,stat,value`.
    pub fn to_csv(&mut self) -> String {
        let mut out = String::from("kind,key,stat,value\n");
        for (k, c) in &self.counters {
            writeln!(out, "counter,{k},value,{}", c.get()).expect("writing to String cannot fail");
        }
        for (k, g) in &self.gauges {
            for (stat, v) in [
                ("current", g.current()),
                ("mean", g.mean()),
                ("peak", g.peak()),
            ] {
                writeln!(out, "gauge,{k},{stat},{v:.6}").expect("writing to String cannot fail");
            }
        }
        let keys: Vec<String> = self.histograms.keys().cloned().collect();
        for k in keys {
            let h = self.histograms.get_mut(&k).expect("key just listed");
            for (stat, v) in [
                ("count", h.len() as f64),
                ("mean", h.mean()),
                ("p50", h.quantile(0.50)),
                ("p90", h.quantile(0.90)),
                ("p99", h.quantile(0.99)),
            ] {
                writeln!(out, "histogram,{k},{stat},{v:.6}")
                    .expect("writing to String cannot fail");
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_time_weighted_mean() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 0.0);
        g.set(SimTime::from_secs(10), 100.0); // 0 for 10s
        g.set(SimTime::from_secs(20), 0.0); // 100 for 10s
        assert!((g.mean() - 50.0).abs() < 1e-9);
        assert_eq!(g.peak(), 100.0);
        assert_eq!(g.current(), 0.0);
    }

    #[test]
    fn gauge_finalized_mean_extends_interval() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 10.0);
        let m = g.finalized_mean(SimTime::from_secs(4));
        assert!((m - 10.0).abs() < 1e-9);
    }

    #[test]
    fn gauge_add_is_relative() {
        let mut g = TimeWeightedGauge::new(SimTime::ZERO, 1.0);
        g.add(SimTime::from_secs(1), 2.0);
        assert_eq!(g.current(), 3.0);
        g.add(SimTime::from_secs(2), -1.5);
        assert_eq!(g.current(), 1.5);
    }

    #[test]
    fn series_records_and_averages() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(1), 2.0);
        ts.push(SimTime::from_secs(2), 4.0);
        assert_eq!(ts.len(), 2);
        assert_eq!(ts.last(), Some(4.0));
        assert!((ts.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn series_resample_fills_gaps() {
        let mut ts = TimeSeries::new();
        ts.push(SimTime::from_secs(0), 1.0);
        ts.push(SimTime::from_secs(0), 3.0);
        ts.push(SimTime::from_secs(5), 10.0);
        let r = ts.resample(SimDuration::from_secs(1));
        assert_eq!(r.len(), 6);
        assert_eq!(r[0].1, 2.0); // Average of 1 and 3.
        assert_eq!(r[1].1, 2.0); // Gap repeats previous.
        assert_eq!(r[5].1, 10.0);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.record(v);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
        assert!((h.mean() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn registry_creates_lazily_and_counts() {
        let mut r = MetricsRegistry::new();
        assert!(r.is_empty());
        assert_eq!(r.count("cluster.launched"), 0);
        r.incr("cluster.launched");
        r.add("cluster.launched", 4);
        r.incr("cluster.preempted");
        assert_eq!(r.count("cluster.launched"), 5);
        assert_eq!(r.count("cluster.preempted"), 1);
        assert!(!r.is_empty());
    }

    #[test]
    fn registry_gauge_tolerates_out_of_order_updates() {
        let mut r = MetricsRegistry::new();
        r.gauge_set("util", SimTime::from_secs(10), 1.0);
        r.gauge_set("util", SimTime::from_secs(20), 3.0); // 1.0 for 10s
                                                          // Regression in time: must not panic or count negative intervals.
        r.gauge_set("util", SimTime::from_secs(5), 7.0);
        r.gauge_set("util", SimTime::from_secs(20), 7.0);
        let g = r.gauge("util").unwrap();
        assert_eq!(g.current(), 7.0);
        assert_eq!(g.peak(), 7.0);
        // Only the forward intervals accumulate: 1.0 over [10, 20].
        // The out-of-order set contributes a zero-length interval, and the
        // following set(20) finds last_update already at 20.
        assert!((g.mean() - 1.0).abs() < 1e-9, "mean {}", g.mean());
    }

    #[test]
    fn registry_histogram_percentiles() {
        let mut r = MetricsRegistry::new();
        for v in 1..=100 {
            r.observe("lat", f64::from(v));
        }
        assert!((r.quantile("lat", 0.5) - 50.5).abs() < 1.0);
        assert!((r.quantile("lat", 0.9) - 90.0).abs() < 1.5);
        assert!((r.quantile("lat", 0.99) - 99.0).abs() < 1.5);
        assert_eq!(r.quantile("missing", 0.5), 0.0);
        assert_eq!(r.histogram("lat").unwrap().len(), 100);
    }

    #[test]
    fn registry_json_snapshot() {
        let mut r = MetricsRegistry::new();
        r.add("c.events", 3);
        r.gauge_set("g.util", SimTime::ZERO, 0.5);
        r.gauge_set("g.util", SimTime::from_secs(10), 1.5);
        r.observe("h.lat", 2.0);
        r.observe("h.lat", 4.0);
        r.finalize(SimTime::from_secs(10));
        let doc = r.to_json();
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("c.events"))
                .and_then(|v| v.as_f64()),
            Some(3.0)
        );
        let util = doc.get("gauges").and_then(|g| g.get("g.util")).unwrap();
        assert_eq!(util.get("current").and_then(|v| v.as_f64()), Some(1.5));
        assert!((util.get("mean").and_then(|v| v.as_f64()).unwrap() - 0.5).abs() < 1e-9);
        let lat = doc.get("histograms").and_then(|h| h.get("h.lat")).unwrap();
        assert_eq!(lat.get("count").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(lat.get("mean").and_then(|v| v.as_f64()), Some(3.0));
        // The compact rendering parses back to the same document.
        let round = crate::json::JsonValue::parse(&doc.to_string()).unwrap();
        assert_eq!(round, doc);
    }

    #[test]
    fn registry_csv_snapshot() {
        let mut r = MetricsRegistry::new();
        r.incr("a.b");
        r.gauge_set("g", SimTime::ZERO, 2.0);
        r.observe("h", 1.0);
        let csv = r.to_csv();
        assert!(csv.starts_with("kind,key,stat,value\n"));
        assert!(csv.contains("counter,a.b,value,1"));
        assert!(csv.contains("gauge,g,current,2.000000"));
        assert!(csv.contains("histogram,h,p50,1.000000"));
    }

    #[test]
    fn registry_keys_are_kind_prefixed() {
        let mut r = MetricsRegistry::new();
        r.incr("x");
        r.gauge_set("y", SimTime::ZERO, 0.0);
        r.observe("z", 1.0);
        assert_eq!(r.keys(), vec!["counter:x", "gauge:y", "histogram:z"]);
    }
}
