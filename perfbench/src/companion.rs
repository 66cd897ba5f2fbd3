//! Companion runs: one untraced replay of a workload variant in a fresh
//! process, so its peak RSS belongs to that variant alone. They feed the
//! traced pass only, never the end-to-end numbers.

use std::process::{Command, Stdio};

use simkit::JsonValue;

use crate::e2e::replay;
use crate::outputs::Outputs;
use crate::samples::peak_rss_mb;
use crate::workload::{generate, Workload};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The shipped configuration (lifecycle trace on).
    Shipped,
    /// The lifecycle trace off.
    TraceOff,
    /// One worker thread instead of two (sharded workloads).
    OneThread,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Shipped => "shipped",
            Variant::TraceOff => "trace-off",
            Variant::OneThread => "one-thread",
        }
    }

    pub fn parse(s: &str) -> Option<Variant> {
        [Variant::Shipped, Variant::TraceOff, Variant::OneThread]
            .into_iter()
            .find(|v| v.name() == s)
    }
}

/// Runs the variant in this process and describes it as one JSON line.
pub fn run(w: Workload, seed: u64, v: Variant) -> JsonValue {
    let mut cfg = w.config(seed);
    match v {
        Variant::Shipped => {}
        Variant::TraceOff => cfg.manager.lifecycle_trace = false,
        Variant::OneThread => cfg.sharding.threads = 1,
    }
    let reqs = generate(&cfg);
    let n = reqs.len();
    let (res, run_s) = replay(&cfg, reqs);
    let mut doc = JsonValue::object()
        .with("run_s", run_s)
        .with("rss_mb", peak_rss_mb())
        .with("requests", n);
    if let Some(r) = res {
        doc.set("outputs", Outputs::of(&r).to_json());
        doc.set("summary", r.summary);
    }
    doc
}

/// Runs the variant in a child process and waits for its line.
pub fn spawn(w: Workload, seed: u64, v: Variant) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--companion", v.name(), "--workload", w.name()])
        .args(["--seed", &seed.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning companion: {e}"))?;
    if !out.status.success() {
        return Err(format!("{} companion exited with {}", v.name(), out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let line = text.lines().last().ok_or("companion printed nothing")?;
    JsonValue::parse(line)
}
