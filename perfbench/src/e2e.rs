//! The untraced pass: end-to-end host cost and model outputs of the
//! public `run_cluster_replay`, checked against the stored outputs.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use cluster::{run_cluster_replay, ClusterManager, ClusterSimConfig, VmRequest};

use crate::outputs::{ExpectedTable, Outputs};
use crate::samples::{median, peak_rss_mb, ratio};
use crate::workload::{generate, Workload};
use crate::Report;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 11;

/// Trace generation plus one `ClusterManager::new` for the whole fleet.
/// Returns the trace and the set-up's wall time.
pub fn setup(cfg: &ClusterSimConfig) -> (Vec<VmRequest>, f64) {
    let t = Instant::now();
    let reqs = generate(cfg);
    let mgr = ClusterManager::new(cfg.manager.clone());
    let dt = t.elapsed().as_secs_f64();
    black_box(&mgr);
    (reqs, dt)
}

/// Checks a replay against the stored expected outputs for its seed and
/// returns every mismatch (none when it passes). A seed with no stored
/// record is checked for the accounting identities every run must
/// satisfy.
pub fn check(
    w: Workload,
    seed: u64,
    got: &Outputs,
    n_requests: usize,
    table: &ExpectedTable,
) -> Vec<String> {
    let mut bad = Vec::new();
    match table.get(seed) {
        Some(Ok(expected)) => bad = got.diff(&expected),
        Some(Err(e)) => bad.push(format!("stored record unreadable: {e}")),
        None => {
            if got.launched_low > got.launched || got.preempted > got.launched_low {
                bad.push("low-priority counts exceed their totals".into());
            }
            // Without faults every request is either launched or
            // rejected exactly once (spills included).
            if w != Workload::Chaos200 && got.launched + got.rejected != n_requests as u64 {
                bad.push(format!(
                    "launched {} + rejected {} != {n_requests} requests",
                    got.launched, got.rejected
                ));
            }
        }
    }
    bad
}

/// Replays the workload once; `None` when the simulator panicked.
pub fn replay(
    cfg: &ClusterSimConfig,
    reqs: Vec<VmRequest>,
) -> (Option<cluster::ClusterSimResult>, f64) {
    let t = Instant::now();
    let res = catch_unwind(AssertUnwindSafe(|| run_cluster_replay(cfg, reqs)));
    let dt = t.elapsed().as_secs_f64();
    (res.ok(), dt)
}

pub fn run(w: Workload, seed: u64, seconds: f64) -> Report {
    let cfg = w.config(seed);
    let mut setups = Vec::with_capacity(SETUPS);
    let mut reqs = Vec::new();
    for _ in 0..SETUPS {
        let (r, dt) = setup(&cfg);
        setups.push(dt);
        reqs = r;
    }

    let table = ExpectedTable::builtin(w);
    let mut run_s = Vec::new();
    let mut first: Option<Outputs> = None;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut measured = 0.0;
    while attempted == 0 || measured < seconds {
        let input = reqs.clone();
        let (res, dt) = replay(&cfg, input);
        measured += dt;
        attempted += 1;
        let Some(res) = res else {
            eprintln!("{} seed {seed}: replay panicked", w.name());
            failed += 1;
            continue;
        };
        run_s.push(dt);
        eprintln!("{} seed {seed}: replay {attempted}: {dt:.4} s", w.name());
        let got = Outputs::of(&res);
        let mut bad = check(w, seed, &got, reqs.len(), &table);
        // Every replay of the run must also repeat the first exactly.
        if let (true, Some(f)) = (bad.is_empty(), &first) {
            bad = got.diff(f);
        }
        if !bad.is_empty() {
            eprintln!(
                "{} seed {seed}: outputs differ: {}",
                w.name(),
                bad.join("; ")
            );
            failed += 1;
        }
        first.get_or_insert(got);
    }

    let run_med = median(&run_s);
    let out = first.unwrap_or_default();
    let mut r = Report::new(attempted, failed);
    r.metric("run_s", run_med, "s");
    r.metric("events_per_s", ratio(out.events as f64, run_med), "1/s");
    r.metric("setup_s", median(&setups), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    r.metric("admit_ratio", out.admit_ratio(), "ratio");
    r.metric("low_pri_survival_prob", 1.0 - out.preemption_prob, "ratio");
    r.metric("mean_utilization", out.mean_utilization, "ratio");
    r.metric("highpri_alloc_mean_s", out.highpri_alloc_mean_s(), "s");
    r.metric(
        "check_pass_ratio",
        (attempted - failed) as f64 / attempted as f64,
        "ratio",
    );
    r
}
