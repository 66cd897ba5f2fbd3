//! fig_faults: resilience ablation (not a paper figure).
//!
//! The paper's evaluation assumes a well-behaved datacenter; this
//! experiment measures how the deflation control plane degrades when it
//! is not:
//!
//! * **(a)** a fault-rate sweep — the [`simkit::FaultPlan::chaos`] plan
//!   scaled 0–4× — tracking goodput (billed CPU-hours), high-priority
//!   allocation latency, preemption probability, and the injected fault
//!   mix. Degradation should be graceful: goodput falls and latency
//!   rises roughly monotonically with the fault rate, with no cliff.
//! * **(b)** deflation vs preemption-only under the unscaled chaos plan:
//!   deflation's advantage (more goodput, fewer preemptions) must
//!   survive agent crashes, message loss, hotplug stalls, and server
//!   crashes.

use cluster::{run_cluster_sim, ClusterManagerConfig, ClusterSimConfig, TraceConfig};
use deflate_core::{CascadeConfig, RetryPolicy};
use simkit::{FaultPlan, SimDuration};

use crate::{f1, f3, RunCounters, Table};

/// Sweep configuration (shrunk in tests).
#[derive(Debug, Clone)]
pub struct FigFaultsConfig {
    /// Servers in the simulated cluster.
    pub n_servers: usize,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Arrival rate (VMs/hour).
    pub arrivals_per_hour: f64,
    /// Multipliers applied to the chaos plan's probabilistic knobs;
    /// `0.0` is the fault-free baseline.
    pub fault_scales: Vec<f64>,
    /// Fault-plan seed.
    pub seed: u64,
}

impl Default for FigFaultsConfig {
    fn default() -> Self {
        FigFaultsConfig {
            n_servers: 50,
            horizon: SimDuration::from_hours(24),
            arrivals_per_hour: 140.0,
            fault_scales: vec![0.0, 0.5, 1.0, 2.0, 4.0],
            seed: 7,
        }
    }
}

fn sim_config(cfg: &FigFaultsConfig, fault_scale: f64, deflation: bool) -> ClusterSimConfig {
    let mut faults = FaultPlan::chaos(cfg.seed).scaled(fault_scale);
    if fault_scale > 0.0 {
        // Guarantee at least one whole-server crash per faulted run —
        // the Poisson stream alone may produce none on short horizons.
        faults
            .scheduled_server_crashes
            .push(simkit::SimTime::ZERO + cfg.horizon.mul_f64(1.0 / 3.0));
    }
    ClusterSimConfig {
        sharding: Default::default(),
        manager: ClusterManagerConfig {
            n_servers: cfg.n_servers,
            deflation_enabled: deflation,
            cascade: CascadeConfig::FULL
                .with_deadline(SimDuration::from_secs(10))
                .with_retry(RetryPolicy::attempts(2, SimDuration::from_millis(500))),
            faults,
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: cfg.arrivals_per_hour,
            ..TraceConfig::default()
        },
        horizon: cfg.horizon,
    }
}

/// Billed CPU-hours: high-priority (on-demand) plus effective
/// low-priority (RaaS billing) — what the provider actually sells.
fn goodput(r: &cluster::ClusterSimResult) -> f64 {
    r.high_pri_cpu_hours + r.low_pri_effective_cpu_hours
}

fn counter(r: &cluster::ClusterSimResult, key: &str) -> f64 {
    r.summary
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// Panel (a): goodput and latency vs fault rate.
pub fn fig_faults_a_with(cfg: &FigFaultsConfig, counters: &mut RunCounters) -> Table {
    let mut t = Table::new(
        "fig_faults_a",
        "Cluster goodput and latency vs fault rate (chaos plan, scaled)",
        vec![
            "fault scale",
            "goodput (cpu-h)",
            "highpri latency (s)",
            "P[preempt]",
            "server crashes",
            "unresponsive VMs",
            "agent faults",
            "retries",
        ],
    );
    let jobs: Vec<ClusterSimConfig> = cfg
        .fault_scales
        .iter()
        .map(|&k| sim_config(cfg, k, true))
        .collect();
    let results = crate::sweep::parallel_map(jobs, |c| run_cluster_sim(&c));
    for (&k, r) in cfg.fault_scales.iter().zip(&results) {
        counters.record(&r.summary);
        let agent_faults =
            counter(r, "fault.injected.agent_down") + counter(r, "fault.injected.msg_loss");
        t.row(vec![
            f1(k),
            f1(goodput(r)),
            f3(r.stats.mean_highpri_alloc_latency_secs()),
            f3(r.preemption_probability),
            r.stats.server_crashes.to_string(),
            r.stats.unresponsive_vms.to_string(),
            f1(agent_faults),
            f1(counter(r, "cascade.retries")),
        ]);
    }
    t.expect(
        "degradation is graceful: goodput falls and high-priority \
         allocation latency rises roughly monotonically with the fault \
         rate — no cliff, and the fault-free row matches the unfaulted \
         simulator byte-for-byte",
    );
    t
}

/// Panel (b): deflation vs preemption-only under the unscaled chaos plan.
pub fn fig_faults_b_with(cfg: &FigFaultsConfig, counters: &mut RunCounters) -> Table {
    let mut t = Table::new(
        "fig_faults_b",
        "Deflation vs preemption-only under the default chaos plan",
        vec![
            "policy",
            "goodput (cpu-h)",
            "P[preempt]",
            "highpri latency (s)",
            "rejected",
            "server crashes",
        ],
    );
    let jobs: Vec<(bool, ClusterSimConfig)> = [true, false]
        .into_iter()
        .map(|deflation| (deflation, sim_config(cfg, 1.0, deflation)))
        .collect();
    let results = crate::sweep::parallel_map(jobs, |(_, c)| run_cluster_sim(&c));
    for (deflation, r) in [true, false].into_iter().zip(&results) {
        counters.record(&r.summary);
        t.row(vec![
            if deflation {
                "deflation"
            } else {
                "preemption-only"
            }
            .to_string(),
            f1(goodput(r)),
            f3(r.preemption_probability),
            f3(r.stats.mean_highpri_alloc_latency_secs()),
            r.stats.rejected.to_string(),
            r.stats.server_crashes.to_string(),
        ]);
    }
    t.expect(
        "deflation keeps its advantage under churn: more billed \
         CPU-hours and a (much) lower preemption probability than the \
         preemption-only manager facing the same faults",
    );
    t
}

/// Both panels at default scale.
pub fn run(counters: &mut RunCounters) -> Vec<Table> {
    let cfg = FigFaultsConfig::default();
    vec![
        fig_faults_a_with(&cfg, counters),
        fig_faults_b_with(&cfg, counters),
    ]
}

/// Both panels at CI scale (finishes in seconds).
pub fn run_small(counters: &mut RunCounters) -> Vec<Table> {
    let cfg = small_config();
    vec![
        fig_faults_a_with(&cfg, counters),
        fig_faults_b_with(&cfg, counters),
    ]
}

fn small_config() -> FigFaultsConfig {
    FigFaultsConfig {
        n_servers: 15,
        horizon: SimDuration::from_hours(8),
        arrivals_per_hour: 42.0,
        fault_scales: vec![0.0, 1.0, 4.0],
        ..FigFaultsConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_runs_keep_their_own_counters() {
        // Two runs on two threads of one process: each sees exactly the
        // counters of its own simulations, which match its table.
        let run = || {
            let mut counters = RunCounters::default();
            let t = fig_faults_b_with(&small_config(), &mut counters);
            (t, counters)
        };
        let ((t1, c1), (t2, c2)) = std::thread::scope(|s| {
            let other = s.spawn(run);
            (run(), other.join().expect("second run"))
        });
        assert_eq!(c1, c2);
        assert_eq!(t1.to_tsv(), t2.to_tsv());
        let doc = crate::run_summary("fig_faults", &[], &c1, 0.0);
        let crashes = doc
            .get("faults")
            .and_then(|f| f.get("cluster.server_crashes"))
            .and_then(|v| v.as_f64());
        assert_eq!(crashes, Some(t1.column(5).iter().sum()));
    }

    #[test]
    fn degradation_is_graceful() {
        let t = fig_faults_a_with(&small_config(), &mut RunCounters::default());
        assert_eq!(t.rows.len(), 3);
        let good = t.column(1);
        let lat = t.column(2);
        // Heavier faults never *help*: the heaviest row loses goodput
        // and gains latency relative to the fault-free baseline.
        let last = good.len() - 1;
        assert!(
            good[last] < good[0],
            "goodput should fall with faults: {good:?}"
        );
        assert!(
            lat[last] > lat[0],
            "latency should rise with faults: {lat:?}"
        );
        // The fault-free row really is fault-free.
        assert_eq!(t.cell(0, 4), 0.0, "no crashes at scale 0");
        assert_eq!(t.cell(0, 6), 0.0, "no agent faults at scale 0");
        // The faulted rows really inject: crashes and agent faults fire.
        assert!(t.cell(last, 4) >= 1.0, "scale 4 should crash a server");
        assert!(t.cell(last, 6) > 0.0, "scale 4 should down agents");
    }

    #[test]
    fn deflation_survives_chaos() {
        let t = fig_faults_b_with(&small_config(), &mut RunCounters::default());
        assert_eq!(t.rows.len(), 2);
        let (defl, pre) = (0, 1);
        assert!(
            t.cell(defl, 1) > t.cell(pre, 1),
            "deflation goodput {} vs preemption-only {}",
            t.cell(defl, 1),
            t.cell(pre, 1)
        );
        assert!(
            t.cell(defl, 2) <= t.cell(pre, 2),
            "deflation P[preempt] {} vs preemption-only {}",
            t.cell(defl, 2),
            t.cell(pre, 2)
        );
        // Both runs saw the same fault plan: crashes in each.
        assert!(t.cell(defl, 5) >= 1.0);
        assert!(t.cell(pre, 5) >= 1.0);
    }
}
