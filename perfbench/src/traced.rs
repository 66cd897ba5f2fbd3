//! The traced pass: per-layer metrics from the benchmark-owned driver
//! plus the companion runs.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use simkit::JsonValue;

use crate::companion::{spawn, Variant};
use crate::driver::{self, DriverRun};
use crate::e2e::check;
use crate::outputs::{fnv1a, ExpectedTable, Outputs};
use crate::samples::{median, ratio};
use crate::workload::{generate, Workload};
use crate::Report;

/// Trace generations timed for `traces.gen_ns_per_request`.
const GENERATIONS: usize = 3;

fn num(doc: Option<&JsonValue>) -> f64 {
    doc.and_then(JsonValue::as_f64).unwrap_or(0.0)
}

fn counter(summary: &JsonValue, key: &str) -> f64 {
    num(summary.get("counters").and_then(|c| c.get(key)))
}

/// The per-cell summaries of a replay (the summary itself when
/// monolithic).
fn cell_summaries(summary: &JsonValue) -> Vec<&JsonValue> {
    match summary.get("per_cell").and_then(JsonValue::as_array) {
        Some(cells) => cells.iter().collect(),
        None => vec![summary],
    }
}

/// Stats fields that differ between the driver and the replay.
fn stats_diff(d: &DriverRun, replay: &Outputs) -> Vec<String> {
    let mut got = replay.clone();
    let s = &d.stats;
    got.launched = s.launched;
    got.launched_low = s.launched_low;
    got.rejected = s.rejected;
    got.preempted = s.preempted;
    got.deflations = s.deflations;
    got.reinflations = s.reinflations;
    got.highpri_alloc_latency_secs = s.highpri_alloc_latency_secs;
    got.highpri_launches = s.highpri_launches;
    got.unresponsive_vms = s.unresponsive_vms;
    got.server_crashes = s.server_crashes;
    got.oom_kills = s.oom_kills;
    got.emergency_reinflations = s.emergency_reinflations;
    got.migrations = s.migrations;
    got.manager_crashes = s.manager_crashes;
    got.diff(replay)
}

/// Checks made by the traced pass, each counted once.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("traced pass: {}", what());
        }
    }
}

pub fn run(w: Workload, seed: u64) -> Report {
    let cfg = w.config(seed);
    let mut gen_ns = Vec::new();
    let mut reqs = Vec::new();
    for _ in 0..GENERATIONS {
        let t = Instant::now();
        reqs = generate(&cfg);
        gen_ns.push(t.elapsed().as_nanos() as f64 / reqs.len().max(1) as f64);
    }

    let mut tally = Tally::default();
    let cells = cfg.sharding.cells.max(1);
    let d = catch_unwind(AssertUnwindSafe(|| driver::run(&cfg, &reqs, cells))).ok();
    tally.expect(d.is_some(), || "traced driver panicked".into());

    // Companion runs in fresh processes: shipped, trace off, and for the
    // sharded workload one worker thread.
    let mut variants = vec![Variant::Shipped, Variant::TraceOff];
    if cells > 1 {
        variants.push(Variant::OneThread);
    }
    let table = ExpectedTable::builtin(w);
    let mut comp = Vec::new();
    for v in variants {
        let doc = spawn(w, seed, v);
        let outputs = doc
            .as_ref()
            .map_err(String::clone)
            .and_then(|d| {
                d.get("outputs")
                    .ok_or(format!("{} replay panicked", v.name()))
            })
            .and_then(Outputs::from_json);
        let bad = match outputs {
            Err(e) => vec![e],
            Ok(mut got) => {
                // The trace-off summary differs by design (it counts no
                // trace records), so only its other outputs are compared.
                let blind = v == Variant::TraceOff;
                if blind {
                    got.summary_hash = 0;
                }
                match table.get(seed) {
                    Some(Ok(mut e)) => {
                        if blind {
                            e.summary_hash = 0;
                        }
                        got.diff(&e)
                    }
                    _ => check(w, seed, &got, reqs.len(), &table),
                }
            }
        };
        tally.expect(bad.is_empty(), || {
            format!("{} companion: {}", v.name(), bad.join("; "))
        });
        comp.push(doc.ok());
    }
    let shipped = comp[0].as_ref();
    let trace_off = comp[1].as_ref();
    let one_thread = comp.get(2).and_then(Option::as_ref);
    let shipped_out = shipped
        .and_then(|s| s.get("outputs"))
        .and_then(|o| Outputs::from_json(o).ok());
    let summary = shipped.and_then(|s| s.get("summary"));

    // Driver fidelity: a fault-free single cell must reproduce the
    // replay's stats and run summary, and the shadow index must agree
    // with every placement.
    let exact = cells == 1 && cfg.manager.faults.is_none() && cfg.manager.distress.is_none();
    let mut stats_match = 0.0;
    if let (Some(d), Some(o)) = (&d, &shipped_out) {
        let diff = stats_diff(d, o);
        stats_match = if diff.is_empty() { 1.0 } else { 0.0 };
        if exact {
            tally.expect(diff.is_empty(), || {
                format!("driver stats differ from replay: {}", diff.join("; "))
            });
            tally.expect(d.layers.agree == d.layers.decisions, || {
                format!(
                    "shadow index agreed on {} of {} placements",
                    d.layers.agree, d.layers.decisions
                )
            });
            tally.expect(fnv1a(&d.summaries[0].to_string()) == o.summary_hash, || {
                "driver run summary differs from replay".into()
            });
        }
    }

    let mut r = Report::new(tally.attempted, tally.failed);
    r.metric("traces.gen_ns_per_request", median(&gen_ns), "ns");
    r.metric("traces.requests", reqs.len() as f64, "count");
    let mut d = d.unwrap_or_else(DriverRun::empty);
    report_layers(&mut r, &mut d, stats_match);

    // Lifecycle trace and observability, from the companions.
    let run_on = num(shipped.and_then(|s| s.get("run_s")));
    let run_off = num(trace_off.and_then(|s| s.get("run_s")));
    let overhead = if run_off > 0.0 {
        run_on / run_off - 1.0
    } else {
        0.0
    };
    r.metric("trace.overhead_ratio", overhead, "ratio");
    r.metric(
        "trace.rss_mb",
        num(shipped.and_then(|s| s.get("rss_mb"))) - num(trace_off.and_then(|s| s.get("rss_mb"))),
        "MB",
    );
    let cells_s = summary.map(cell_summaries).unwrap_or_default();
    let trace_sum = |k: &str| -> f64 {
        cells_s
            .iter()
            .map(|c| num(c.get("trace").and_then(|t| t.get(k))))
            .sum()
    };
    r.metric("trace.records", trace_sum("records"), "count");
    r.metric("trace.dropped", trace_sum("dropped"), "count");
    r.metric("companion.shipped_run_s", run_on, "s");
    r.metric("companion.trace_off_run_s", run_off, "s");
    r.metric(
        "companion.shipped_rss_mb",
        num(shipped.and_then(|s| s.get("rss_mb"))),
        "MB",
    );

    // Sharding, from the companions and the merged summary.
    let run_t1 = num(one_thread.and_then(|s| s.get("run_s")));
    r.metric("sharding.thread_scaling", ratio(run_t1, run_on), "ratio");
    let loads: Vec<f64> = cells_s
        .iter()
        .map(|c| {
            counter(c, "cluster.launched")
                + counter(c, "cluster.exits")
                + counter(c, "cluster.rejected")
        })
        .collect();
    let mean_load = loads.iter().sum::<f64>() / loads.len().max(1) as f64;
    r.metric(
        "sharding.cell_imbalance",
        ratio(loads.iter().copied().fold(0.0, f64::max), mean_load),
        "ratio",
    );
    let spills = summary.and_then(|s| s.get("spills"));
    let spilled =
        num(spills.and_then(|s| s.get("placed"))) + num(spills.and_then(|s| s.get("rejected")));
    r.metric(
        "sharding.spill_ratio",
        ratio(spilled, reqs.len() as f64),
        "ratio",
    );

    // The replay's own counters, beside the driver's call counts.
    for key in REPLAY_COUNTERS {
        r.metric(
            &format!("replay.{key}"),
            summary.map_or(0.0, |s| counter(s, key)),
            "count",
        );
    }
    r
}

/// Counters of the shipped replay printed beside the driver's call
/// counts, so a reader can compare the call mix.
const REPLAY_COUNTERS: [&str; 18] = [
    "cluster.launched",
    "cluster.rejected",
    "cluster.exits",
    "cluster.admission_queue_parked",
    "cluster.migrations_started",
    "cluster.migrations",
    "cluster.drains",
    "cluster.defrag_rounds",
    "cluster.server_crashes",
    "cluster.server_recoveries",
    "cluster.partitions",
    "cluster.partition_heals",
    "cluster.partition_divergence",
    "fault.manager_crashes",
    "cluster.recovery_scans",
    "cluster.recovery_divergence",
    "distress.hard_samples",
    "cluster.emergency_reinflations",
];

fn report_layers(r: &mut Report, d: &mut DriverRun, stats_match: f64) {
    let l = &mut d.layers;
    let calls = |s: &crate::samples::Samples| s.calls() as f64;
    r.metric("event.push_ns_mean", l.push.mean_ns(), "ns");
    r.metric("event.pop_ns_mean", l.pop.mean_ns(), "ns");
    r.metric("event.events", d.events as f64, "count");

    r.metric("placement.choose_ns_p50", l.choose.p50(), "ns");
    r.metric("placement.choose_ns_p99", l.choose.p99(), "ns");
    r.metric("placement.choose_s_total", l.choose.total_s(), "s");
    r.metric("placement.choose_calls", calls(&l.choose), "count");
    r.metric("placement.none_ns_p50", l.choose_none.p50(), "ns");
    r.metric("placement.none_calls", calls(&l.choose_none), "count");
    let found = calls(&l.choose) - calls(&l.choose_none);
    r.metric(
        "placement.free_tier_ratio",
        ratio(l.free_tier as f64, found),
        "ratio",
    );
    r.metric(
        "placement.refresh_ns_mean",
        ratio(l.refresh_ns as f64, l.refresh_calls as f64),
        "ns",
    );
    r.metric(
        "placement.shadow_agree_ratio",
        ratio(l.agree as f64, l.decisions as f64),
        "ratio",
    );

    let reclaims = calls(&l.launch_reclaim);
    let launches = calls(&l.launch_free) + reclaims + calls(&l.launch_reject);
    r.metric("manager.launch_free_ns_p50", l.launch_free.p50(), "ns");
    r.metric("manager.launch_free_ns_p99", l.launch_free.p99(), "ns");
    r.metric("manager.launch_free_calls", calls(&l.launch_free), "count");
    r.metric(
        "manager.launch_reclaim_ns_p50",
        l.launch_reclaim.p50(),
        "ns",
    );
    r.metric(
        "manager.launch_reclaim_ns_p99",
        l.launch_reclaim.p99(),
        "ns",
    );
    r.metric("manager.launch_reclaim_calls", reclaims, "count");
    r.metric("manager.launch_reject_ns_p50", l.launch_reject.p50(), "ns");
    r.metric(
        "manager.launch_reject_calls",
        calls(&l.launch_reject),
        "count",
    );
    r.metric(
        "manager.launch_s_total",
        l.launch_free.total_s() + l.launch_reclaim.total_s() + l.launch_reject.total_s(),
        "s",
    );
    r.metric("manager.exit_ns_p50", l.exit.p50(), "ns");
    r.metric("manager.exit_ns_p99", l.exit.p99(), "ns");
    r.metric("manager.exit_s_total", l.exit.total_s(), "s");
    r.metric("manager.exit_calls", calls(&l.exit), "count");
    r.metric("manager.reclaim_ratio", ratio(reclaims, launches), "ratio");
    r.metric(
        "manager.deflations_per_reclaim",
        ratio(l.deflations as f64, reclaims),
        "ratio",
    );
    r.metric(
        "manager.preemptions_per_reclaim",
        ratio(l.preemptions as f64, reclaims),
        "ratio",
    );
    r.metric(
        "manager.reinflations_per_exit",
        ratio(l.reinflations as f64, calls(&l.exit)),
        "ratio",
    );
    let unplugs: f64 = d
        .summaries
        .iter()
        .map(|s| counter(s, "vm.hotplug.unplug_attempts"))
        .sum();
    r.metric(
        "hypervisor.unplug_attempts_per_reclaim",
        ratio(unplugs, reclaims),
        "ratio",
    );

    r.metric("distress.sample_ns_p50", l.distress.p50(), "ns");
    r.metric("distress.sample_ns_p99", l.distress.p99(), "ns");
    r.metric("distress.sample_s_total", l.distress.total_s(), "s");
    r.metric("distress.sample_calls", calls(&l.distress), "count");
    r.metric(
        "distress.events_per_sample",
        ratio(l.distress_events as f64, calls(&l.distress)),
        "ratio",
    );

    r.metric("migration.begin_ns_p50", l.mig_begin.p50(), "ns");
    r.metric("migration.begin_calls", calls(&l.mig_begin), "count");
    r.metric("migration.finish_ns_p50", l.mig_finish.p50(), "ns");
    r.metric("migration.finish_calls", calls(&l.mig_finish), "count");
    r.metric("migration.defrag_ns_p50", l.defrag.p50(), "ns");
    r.metric("migration.defrag_calls", calls(&l.defrag), "count");
    r.metric(
        "migration.commit_ratio",
        ratio(l.mig_commits as f64, calls(&l.mig_finish)),
        "ratio",
    );

    r.metric("partition.isolate_ns_p50", l.isolate.p50(), "ns");
    r.metric("partition.isolate_calls", calls(&l.isolate), "count");
    r.metric("partition.heal_ns_p50", l.heal.p50(), "ns");
    r.metric("partition.heal_ns_p99", l.heal.p99(), "ns");
    r.metric("partition.heal_calls", calls(&l.heal), "count");
    r.metric(
        "partition.divergence_per_heal",
        ratio(l.divergence as f64, calls(&l.heal)),
        "ratio",
    );
    r.metric("partition.autonomous_ns_p50", l.autonomous.p50(), "ns");
    r.metric("partition.autonomous_calls", calls(&l.autonomous), "count");
    r.metric("failover.crash_ns_p50", l.mgr_crash.p50(), "ns");
    r.metric("failover.crash_calls", calls(&l.mgr_crash), "count");
    r.metric("failover.recover_ns_p50", l.mgr_recover.p50(), "ns");
    r.metric("failover.recover_calls", calls(&l.mgr_recover), "count");
    r.metric("fault.fail_server_ns_p50", l.fail_server.p50(), "ns");
    r.metric("fault.fail_server_calls", calls(&l.fail_server), "count");
    r.metric("fault.recover_server_ns_p50", l.recover_server.p50(), "ns");
    r.metric(
        "fault.recover_server_calls",
        calls(&l.recover_server),
        "count",
    );

    r.metric("observe.summary_ns", l.summary.mean_ns(), "ns");
    r.metric("driver.wall_s", d.wall_s, "s");
    r.metric(
        "driver.coverage_ratio",
        ratio(l.timed_s(), d.wall_s),
        "ratio",
    );
    r.metric("driver.stats_match", stats_match, "bool");
    r.metric(
        "driver.dropped_arrivals",
        l.dropped_arrivals as f64,
        "count",
    );
    r.metric("check.consistency_checks", l.checks as f64, "count");
    r.metric("check.consistency_s", l.check_s, "s");
}
