//! Figure 8: cluster-wide behaviour.
//!
//! * 8a — cluster throughput while a high-priority memcached cluster
//!   displaces half the resources of a deflatable Spark (CNN) cluster.
//! * 8b — worst-case deflation latency of a giant VM (48 vCPUs, 100 GiB)
//!   per mechanism stack.
//! * 8c — preemption probability vs cluster overcommitment, deflation vs
//!   preemption-only (100-node trace-driven simulation).
//! * 8d — per-server overcommitment under the three placement policies.

use apps::{MemcachedApp, MemcachedParams};
use cluster::{
    run_cluster_sim, ClusterManagerConfig, ClusterSimConfig, PlacementPolicy, TraceConfig,
};
use deflate_core::{CascadeConfig, ResourceVector, VmId};
use hypervisor::{LocalController, PhysicalServer, Vm, VmPriority};
use simkit::{stats, SimDuration, SimTime};
use spark::{TrainingJob, TrainingParams};

use crate::{f1, f3, pct, RunCounters, Table};

/// Fig. 8a: normalized throughput of a deflatable Spark (CNN) cluster and
/// a high-priority memcached cluster sharing one server pool.
///
/// The memcached VMs arrive at minute 30 and leave at minute 90; placing
/// them deflates the Spark VMs through the real local controller, and the
/// measured deflation drives the CNN slowdown model.
pub fn fig8a() -> Table {
    let mut t = Table::new(
        "fig8a",
        "Cluster throughput under resource pressure (normalized per application)",
        vec!["minute", "Spark", "Memcached", "Total"],
    );

    // One big server hosting the 8 Spark worker VMs exactly.
    let worker_spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
    let capacity = worker_spec.scale(8.0);
    let mut server = PhysicalServer::new(deflate_core::ServerId(0), capacity);
    for i in 0..8 {
        let mut vm = Vm::new(VmId(i), worker_spec, VmPriority::Low);
        vm.set_usage(10_000.0, 3.0);
        server.add_vm(vm);
    }
    let controller = LocalController::new(CascadeConfig::VM_LEVEL);

    // Minute 30: four high-priority memcached VMs need half the server.
    let mc_demand = worker_spec.scale(4.0);
    let report = controller
        .make_room(SimTime::from_secs(30 * 60), &mut server, &mc_demand)
        .commit();
    assert!(report.satisfied, "memcached must fit after deflation");
    let spark_deflation: Vec<f64> = (0..8)
        .map(|i| server.vm(VmId(i)).expect("spark vm").max_deflation())
        .collect();
    let mean_d = stats::mean(&spark_deflation);

    let cnn = TrainingJob::new(TrainingParams::default());
    let slowdown = cnn.slowdown_running(stats::max(&spark_deflation));

    // memcached normalized throughput while running (its VMs are
    // high-priority and full-size).
    let mc = MemcachedApp::new(MemcachedParams::default());
    let mc_norm = {
        let mut vm = Vm::new(VmId(100), worker_spec, VmPriority::High);
        mc.init_usage(vm.state_mut());
        mc.normalized_perf(&vm.view())
    };

    for minute in (0..=120).step_by(5) {
        let pressured = (30..90).contains(&minute);
        let spark = if pressured { 1.0 / slowdown } else { 1.0 };
        let memcached = if pressured { mc_norm } else { 0.0 };
        t.row(vec![
            minute.to_string(),
            f3(spark),
            f3(memcached),
            f3(spark + memcached),
        ]);
    }
    t.expect(format!(
        "Spark drops ~20% (measured mean deflation {:.0}%), memcached runs \
         at full speed, total cluster throughput peaks near 1.8",
        mean_d * 100.0
    ));
    t
}

/// Fig. 8b: worst-case deflation latency of one giant VM (48 vCPUs,
/// 100 GiB) per mechanism stack.
pub fn fig8b() -> Table {
    let mut t = Table::new(
        "fig8b",
        "Deflation latency (s) of a 48-vCPU / 100 GiB VM",
        vec!["deflation", "Hypervisor", "Hypervisor+OS", "Cascade"],
    );
    let spec = ResourceVector::new(48.0, 102_400.0, 1_000.0, 2_000.0);
    // ~60 GiB of the VM's memory is application-resident: black-box
    // reclamation past the free pool must swap; the cascade evicts.
    let mc_params = MemcachedParams {
        base_cache_mb: 59_392.0,
        overhead_mb: 2_048.0,
        min_cache_mb: 4_096.0,
        n_objects: 8_000_000.0,
        ..MemcachedParams::default()
    };

    for step in 1..=5 {
        let f = 0.05 + step as f64 / 10.0; // 15–55 %
        let target = spec.scale(f);
        let mut cells = vec![pct(f)];
        for cfg in [
            CascadeConfig::HYPERVISOR_ONLY,
            CascadeConfig::VM_LEVEL,
            CascadeConfig::FULL,
        ] {
            let mut app = MemcachedApp::new(mc_params);
            let mut vm = Vm::new(VmId(1), spec, VmPriority::Low);
            app.init_usage(vm.state_mut());
            // The cascade asks the agent only when `cfg.use_app` is set.
            let out = vm.deflate(SimTime::ZERO, &target, &cfg, Some(&mut app));
            cells.push(f1(out.latency.as_secs_f64()));
        }
        t.row(cells);
    }
    t.expect(
        "latency grows with deflation and is memory-dominated; the full \
         cascade stays under ~100 s at 50% while hypervisor-level stacks \
         are 2–3× slower",
    );
    t
}

/// Fig. 8c sweep configuration (shrunk in tests).
#[derive(Debug, Clone)]
pub struct Fig8cConfig {
    /// Servers in the simulated cluster.
    pub n_servers: usize,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Arrival rates to sweep (VMs/hour).
    pub rates: Vec<f64>,
}

impl Default for Fig8cConfig {
    fn default() -> Self {
        Fig8cConfig {
            n_servers: 100,
            horizon: SimDuration::from_hours(24),
            rates: vec![180.0, 230.0, 280.0, 330.0, 380.0, 450.0, 550.0],
        }
    }
}

/// Fig. 8c: preemption probability vs measured cluster overcommitment,
/// with 50 % of VMs low-priority.
pub fn fig8c_with(cfg: &Fig8cConfig, counters: &mut RunCounters) -> Table {
    let mut t = Table::new(
        "fig8c",
        "Preemption probability vs cluster overcommitment (50% low-priority VMs)",
        vec![
            "offered load",
            "mean overcommit",
            "peak overcommit",
            "P[preempt] (deflation)",
            "P[preempt] (preempt-only)",
        ],
    );
    // Every (rate, mode) cell is an independent seeded simulation: fan
    // them all out at once and reassemble rows from the ordered results.
    let jobs: Vec<ClusterSimConfig> = cfg
        .rates
        .iter()
        .flat_map(|&rate| {
            [true, false].map(|deflation| ClusterSimConfig {
                sharding: Default::default(),
                manager: ClusterManagerConfig {
                    n_servers: cfg.n_servers,
                    deflation_enabled: deflation,
                    ..ClusterManagerConfig::default()
                },
                trace: TraceConfig {
                    arrivals_per_hour: rate,
                    ..TraceConfig::default()
                },
                horizon: cfg.horizon,
            })
        })
        .collect();
    let results = crate::sweep::parallel_map(jobs, |c| run_cluster_sim(&c));
    for r in &results {
        counters.record(&r.summary);
    }
    for pair in results.chunks_exact(2) {
        t.row(vec![
            pct(pair[0].offered_utilization),
            pct(pair[0].mean_overcommitment),
            pct(pair[0].peak_overcommitment),
            f3(pair[0].preemption_probability),
            f3(pair[1].preemption_probability),
        ]);
    }
    t.expect(
        "deflation admits ~1.2x offered load with near-zero preemptions \
         and stays 3-30x below the preemption-only manager at every load; \
         preemption risk appears only when high-priority demand alone \
         approaches cluster capacity",
    );
    t
}

/// Fig. 8d: per-server overcommitment distribution per placement policy
/// (paper scale: 100 servers, 24 h, 320 arrivals/h).
pub fn fig8d_with(
    n_servers: usize,
    horizon: SimDuration,
    rate: f64,
    counters: &mut RunCounters,
) -> Table {
    let mut t = Table::new(
        "fig8d",
        "Server overcommitment by placement policy (mean / p25 / p50 / p75)",
        vec!["policy", "mean", "p25", "p50", "p75"],
    );
    let jobs: Vec<ClusterSimConfig> = PlacementPolicy::ALL
        .into_iter()
        .map(|policy| ClusterSimConfig {
            sharding: Default::default(),
            manager: ClusterManagerConfig {
                n_servers,
                placement: policy,
                ..ClusterManagerConfig::default()
            },
            trace: TraceConfig {
                arrivals_per_hour: rate,
                ..TraceConfig::default()
            },
            horizon,
        })
        .collect();
    let results = crate::sweep::parallel_map(jobs, |c| run_cluster_sim(&c));
    for (policy, r) in PlacementPolicy::ALL.into_iter().zip(&results) {
        counters.record(&r.summary);
        let xs = &r.server_overcommitment;
        t.row(vec![
            policy.name().to_string(),
            f3(stats::mean(xs)),
            f3(stats::percentile(xs, 0.25)),
            f3(stats::percentile(xs, 0.50)),
            f3(stats::percentile(xs, 0.75)),
        ]);
    }
    t.expect(
        "all three policies sustain overcommitment with overlapping \
         distributions (within ~2x of each other) and none needs extra \
         preemptions — deflation masks suboptimal online placement",
    );
    t
}

/// All four panels at paper scale.
pub fn run(counters: &mut RunCounters) -> Vec<Table> {
    vec![
        fig8a(),
        fig8b(),
        fig8c_with(&Fig8cConfig::default(), counters),
        fig8d_with(100, SimDuration::from_hours(24), 320.0, counters),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig8a_total_peaks_when_colocated() {
        let t = fig8a();
        let totals = t.column(3);
        let peak = totals.iter().copied().fold(0.0f64, f64::max);
        assert!(peak > 1.6, "peak total {peak}");
        // Spark recovers after the pressure window.
        let last = t.rows.len() - 1;
        assert!((t.cell(last, 1) - 1.0).abs() < 1e-6);
        // During pressure Spark loses well under half its throughput.
        let spark_min = t.column(1).into_iter().fold(f64::INFINITY, f64::min);
        assert!(spark_min > 0.6, "spark min {spark_min}");
    }

    #[test]
    fn fig8b_cascade_fastest_and_monotone() {
        let t = fig8b();
        for r in 0..t.rows.len() {
            let hv = t.cell(r, 1);
            let vm_level = t.cell(r, 2);
            let cascade = t.cell(r, 3);
            assert!(
                cascade <= vm_level && vm_level <= hv,
                "row {r}: {cascade} {vm_level} {hv}"
            );
        }
        // At 55% the cascade is at least 2x faster than hypervisor-only.
        let last = t.rows.len() - 1;
        assert!(t.cell(last, 1) > 2.0 * t.cell(last, 3));
        // Latency grows with deflation.
        let col = t.column(3);
        assert!(col.last().expect("rows") > col.first().expect("rows"));
    }

    #[test]
    fn fig8c_small_scale_shapes() {
        let cfg = Fig8cConfig {
            n_servers: 15,
            horizon: SimDuration::from_hours(8),
            rates: vec![25.0, 60.0],
        };
        let t = fig8c_with(&cfg, &mut RunCounters::default());
        assert_eq!(t.rows.len(), 2);
        // Deflation preempts (much) less than preemption-only at load.
        let defl_hi = t.cell(1, 3);
        let pre_hi = t.cell(1, 4);
        assert!(defl_hi <= pre_hi, "defl {defl_hi} pre {pre_hi}");
    }

    #[test]
    fn fig8d_small_scale_policies_similar() {
        let t = fig8d_with(
            15,
            SimDuration::from_hours(8),
            50.0,
            &mut RunCounters::default(),
        );
        assert_eq!(t.rows.len(), 3);
        let means = t.column(1);
        let spread = stats::max(&means) - stats::min(&means);
        assert!(
            spread < 0.25,
            "policies should look similar: {means:?} (spread {spread})"
        );
    }
}
