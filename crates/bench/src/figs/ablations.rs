//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! * [`r_estimators`] — the three recomputation-cost estimates §4.1
//!   offers (worst-case, sync-time heuristic, DAG-exact): decision
//!   quality (regret vs the empirically best mechanism) across workloads
//!   and deflation conditions.
//! * [`deadline_sweep`] — cascade deadlines trade reclamation
//!   completeness against latency (§5's deflation-operation deadline).
//! * [`memory_mechanisms`] — hot-unplug vs ballooning for guest memory
//!   reclamation (the related-work claim that "ballooning generally
//!   yields inferior performance to hotplug").

use deflate_core::{CascadeConfig, ResourceVector, VmId};
use hypervisor::guest::{GuestConfig, MemoryMechanism};
use hypervisor::{BurstableParams, CreditModel, LatencyModel, Vm, VmPriority};
use simkit::{SimDuration, SimTime};
use spark::workloads::{all_workloads, fig6_event, standard_pool};
use spark::{BspSimulator, DeflationMode, REstimateKind};

use crate::{f1, f3, pct, RunCounters, Table};

/// Compares the three `r` estimators' decision quality: for each DAG
/// workload and deflation condition, the cascade's running time under
/// each estimator, normalized to the better of the two pure mechanisms.
pub fn r_estimators() -> Table {
    let mut t = Table::new(
        "ablation-r",
        "Spark policy regret by recomputation estimator (1.000 = picked the best mechanism)",
        vec![
            "workload",
            "deflation",
            "at progress",
            "WorstCase",
            "SyncHeuristic",
            "DagExact",
        ],
    );
    let estimators = [
        REstimateKind::WorstCase,
        REstimateKind::SyncHeuristic,
        REstimateKind::DagExact,
    ];
    for w in all_workloads() {
        // Training jobs bypass the estimator (always synchronous).
        if matches!(w, spark::SparkWorkload::Training { .. }) {
            continue;
        }
        for frac in [0.25, 0.5] {
            for at in [0.25, 0.5] {
                let mut ev = fig6_event(w.workers(), frac);
                ev.at_progress = at;
                let vm = w.run(DeflationMode::VmLevel, Some(&ev), 7).normalized;
                let selfd = w.run(DeflationMode::SelfDeflation, Some(&ev), 7).normalized;
                let best = vm.min(selfd);
                let mut cells = vec![w.name().to_string(), pct(frac), pct(at)];
                for est in estimators {
                    let r = w
                        .run_with_estimator(DeflationMode::Cascade, Some(&ev), 7, est)
                        .normalized;
                    cells.push(f3(r / best));
                }
                t.row(cells);
            }
        }
    }
    t.expect(
        "all three estimators agree on shuffle-heavy jobs; on K-means \
         the sync heuristic alone stays regret-free — the DAG-exact r is \
         'more correct' but Eqs. 1/3 omit VM-level contention, so its \
         conservatism (like the worst case's) misses self-deflation \
         opportunities. The paper's middle-ground heuristic is the best \
         end-to-end choice, which this table quantifies",
    );
    t
}

/// Sweeps the cascade deadline on a memory-heavy VM: shorter deadlines
/// bound latency but reclaim less.
pub fn deadline_sweep() -> Table {
    let mut t = Table::new(
        "ablation-deadline",
        "Cascade deadline vs reclaimed memory (16 GiB VM, 10 GiB target, busy guest)",
        vec![
            "deadline (s)",
            "reclaimed (MiB)",
            "latency (s)",
            "met target",
        ],
    );
    for deadline_s in [1u64, 2, 5, 10, 20, 60, 120] {
        let spec = ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0);
        let mut vm = Vm::new(VmId(1), spec, VmPriority::Low);
        vm.set_usage(14_000.0, 3.0);
        let cfg = CascadeConfig::VM_LEVEL.with_deadline(SimDuration::from_secs(deadline_s));
        let out = vm.deflate(SimTime::ZERO, &ResourceVector::memory(10_240.0), &cfg, None);
        t.row(vec![
            deadline_s.to_string(),
            f1(out.total_reclaimed.get(deflate_core::ResourceKind::Memory)),
            f1(out.latency.as_secs_f64()),
            out.met_target().to_string(),
        ]);
    }
    t.expect(
        "reclaimed memory grows monotonically with the deadline and \
         latency never exceeds it — partial deflation is reported \
         honestly and the cascade proceeds to the next level on timeout",
    );
    t
}

/// Hot-unplug vs ballooning for guest-level memory reclamation.
pub fn memory_mechanisms() -> Table {
    let mut t = Table::new(
        "ablation-balloon",
        "Guest memory reclamation mechanism: hot-unplug vs ballooning (10 GiB target)",
        vec![
            "mechanism",
            "reclaimed at guest (MiB)",
            "latency (s)",
            "guest sees resize",
        ],
    );
    for (name, mech) in [
        ("hot-unplug", MemoryMechanism::Hotplug),
        ("balloon", MemoryMechanism::Balloon),
    ] {
        let spec = ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0);
        let guest_cfg = GuestConfig {
            memory_mechanism: mech,
            ..GuestConfig::default()
        };
        let mut vm = Vm::with_models(
            VmId(1),
            spec,
            VmPriority::Low,
            guest_cfg,
            LatencyModel::default(),
        );
        vm.set_usage(6_144.0, 2.0);
        let out = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::memory(10_240.0),
            &CascadeConfig::VM_LEVEL,
            None,
        );
        let resized = vm.view().visible.get(deflate_core::ResourceKind::Memory) < 16_384.0;
        t.row(vec![
            name.to_string(),
            f1(out.os.reclaimed.get(deflate_core::ResourceKind::Memory)),
            f1(out.latency.as_secs_f64()),
            resized.to_string(),
        ]);
    }
    t.expect(
        "ballooning reclaims slightly more (no contiguity constraint) but \
         more slowly, and the guest's visible allocation does not shrink — \
         hot-unplug 'updates the resource allocation observed by the OS \
         and applications' (§3.2.2), which is why the cascade uses it",
    );
    t
}

/// Burstable VMs vs deflatable VMs (§8): CPU delivered to a sustained
/// 4-core workload over 4 hours, as a function of how much of the time
/// the host is actually under pressure.
pub fn burstable_comparison() -> Table {
    let mut t = Table::new(
        "ablation-burstable",
        "CPU core-hours delivered over 4 h of sustained 4-core demand",
        vec![
            "host pressure",
            "burstable (credits)",
            "deflatable (50% under pressure)",
            "advantage",
        ],
    );
    for pressure_frac in [0.0, 0.1, 0.25, 0.5] {
        let step = SimDuration::from_secs(60);
        let minutes = 240u64;
        let pressured_minutes = (minutes as f64 * pressure_frac) as u64;

        let mut burst = CreditModel::new(BurstableParams::default());
        let mut burst_core_h = 0.0;
        let mut defl_core_h = 0.0;
        for minute in 0..minutes {
            // Burstable VMs throttle on credits, pressure or not.
            burst_core_h += burst.step(step, 4.0) / 60.0;
            // Deflatable VMs run full speed except under real pressure
            // (modelled as a contiguous leading window).
            let cores = if minute < pressured_minutes { 2.0 } else { 4.0 };
            defl_core_h += cores / 60.0;
        }
        t.row(vec![
            pct(pressure_frac),
            f1(burst_core_h),
            f1(defl_core_h),
            format!("{:.1}x", defl_core_h / burst_core_h.max(1e-9)),
        ]);
    }
    t.expect(
        "burstable VMs throttle to their baseline once credits drain, regardless of host load; deflation only taxes the VM while real pressure lasts ('deflation is only performed under resource pressure, and not over the entire lifetime of the VM', §8)",
    );
    t
}

/// Speculative execution vs Eq. 1's straggler gate: uneven VM-level
/// deflation with Spark speculation on and off.
///
/// Eq. 1 assumes a stage is gated by the most-deflated VM (`max d`);
/// that holds when speculation is disabled (BigDL's default). With
/// speculation on, stragglers are re-launched on faster workers and the
/// penalty moves toward the mean deflation — narrowing the gap the
/// paper's Spark policy exploits.
pub fn speculation() -> Table {
    let mut t = Table::new(
        "ablation-speculation",
        "ALS under uneven VM-level deflation: normalized time, speculation off/on",
        vec![
            "max d (one VM)",
            "Eq.1 prediction",
            "speculation off",
            "speculation on",
        ],
    );
    for d in [0.2, 0.4, 0.6] {
        let ev = {
            let mut fr = vec![0.1; 8];
            fr[0] = d;
            spark::DeflationEvent {
                at_progress: 0.5,
                fractions: fr,
            }
        };
        let run = |speculation: bool| {
            let w = spark::als();
            let spark::SparkWorkload::Dag { dag, .. } = &w else {
                unreachable!("ALS is a DAG workload")
            };
            let mut pool = standard_pool();
            pool.speculation = speculation;
            let mut sim = BspSimulator::new(dag, pool, 5);
            sim.run(DeflationMode::VmLevel, Some(&ev)).normalized()
        };
        let eq1 = spark::policy::estimate_t_vm(0.5, d);
        t.row(vec![pct(d), f3(eq1), f3(run(false)), f3(run(true))]);
    }
    t.expect(
        "with speculation off, the measured slowdown tracks Eq. 1's          max-d gate; speculation re-runs stragglers elsewhere and pulls          the penalty toward the mean deflation",
    );
    t
}

/// Placement policies on a *heterogeneous* server pool: Fig. 8d found
/// the policies interchangeable on homogeneous servers because deflation
/// absorbs placement mistakes; this ablation checks whether that still
/// holds when server capacities differ 3:1 and cosine fitness has real
/// direction to exploit.
pub fn heterogeneous_placement(counters: &mut RunCounters) -> Table {
    heterogeneous_placement_with(30, simkit::SimDuration::from_hours(12), counters)
}

/// [`heterogeneous_placement`] with explicit scale (shrunk in tests).
pub fn heterogeneous_placement_with(
    n_servers: usize,
    horizon: simkit::SimDuration,
    counters: &mut RunCounters,
) -> Table {
    use cluster::{run_cluster_sim, ClusterManagerConfig, ClusterSimConfig, TraceConfig};

    let mut t = Table::new(
        "ablation-hetero",
        "Placement policies on homogeneous vs heterogeneous (3:1) pools",
        vec![
            "pool",
            "policy",
            "launched",
            "rejected",
            "P[preempt]",
            "mean overcommit",
        ],
    );
    // 2 pools × 3 policies = 6 independent simulations; run them all at
    // once and emit rows in grid order.
    let grid: Vec<(f64, cluster::PlacementPolicy)> = [0.0, 0.5]
        .into_iter()
        .flat_map(|skew| cluster::PlacementPolicy::ALL.map(|policy| (skew, policy)))
        .collect();
    let results = crate::sweep::parallel_map(grid.clone(), |(skew, policy)| {
        let cfg = ClusterSimConfig {
            sharding: Default::default(),
            manager: ClusterManagerConfig {
                n_servers,
                placement: policy,
                capacity_skew: skew,
                ..ClusterManagerConfig::default()
            },
            trace: TraceConfig {
                // ~2x offered load: the pools must reclaim to admit.
                arrivals_per_hour: 4.0 * n_servers as f64,
                ..TraceConfig::default()
            },
            horizon,
        };
        run_cluster_sim(&cfg)
    });
    for ((skew, policy), r) in grid.into_iter().zip(&results) {
        counters.record(&r.summary);
        t.row(vec![
            if skew == 0.0 {
                "homogeneous"
            } else {
                "3:1 mixed"
            }
            .to_string(),
            policy.name().to_string(),
            r.stats.launched.to_string(),
            r.stats.rejected.to_string(),
            f3(r.preemption_probability),
            pct(r.mean_overcommitment),
        ]);
    }
    t.expect(
        "deflation keeps the policies close even on the mixed pool —          admission and preemption probabilities stay in the same band          across best-fit/first-fit/2-choices — extending Fig. 8d's          homogeneous-pool finding",
    );
    t
}

/// All ablations.
pub fn run(counters: &mut RunCounters) -> Vec<Table> {
    vec![
        r_estimators(),
        deadline_sweep(),
        memory_mechanisms(),
        burstable_comparison(),
        speculation(),
        heterogeneous_placement(counters),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn r_estimator_regrets_bounded() {
        let t = r_estimators();
        // The sync heuristic and DAG-exact estimator stay within 12 % of
        // the best mechanism everywhere.
        for r in 0..t.rows.len() {
            assert!(t.cell(r, 4) < 1.12, "sync row {r}: {}", t.cell(r, 4));
            assert!(t.cell(r, 5) < 1.12, "exact row {r}: {}", t.cell(r, 5));
        }
        // Worst-case misses at least one self-deflation opportunity
        // (K-means) that the other two catch.
        let kmeans_rows: Vec<usize> = (0..t.rows.len())
            .filter(|r| t.rows[*r][0] == "K-means")
            .collect();
        assert!(!kmeans_rows.is_empty());
        let worst_sum: f64 = kmeans_rows.iter().map(|r| t.cell(*r, 3)).sum();
        let sync_sum: f64 = kmeans_rows.iter().map(|r| t.cell(*r, 4)).sum();
        assert!(
            worst_sum >= sync_sum,
            "worst-case should not beat the heuristic on K-means"
        );
    }

    #[test]
    fn deadline_sweep_monotone() {
        let t = deadline_sweep();
        let reclaimed = t.column(1);
        for w in reclaimed.windows(2) {
            assert!(w[1] + 1e-6 >= w[0], "reclaimed must grow: {reclaimed:?}");
        }
        for r in 0..t.rows.len() {
            assert!(
                t.cell(r, 2) <= t.cell(r, 0) + 1e-3,
                "latency within deadline"
            );
        }
        // The longest deadline meets the target.
        assert_eq!(t.rows.last().expect("rows")[3], "true");
    }

    #[test]
    fn heterogeneous_pool_keeps_policies_in_band() {
        let t = heterogeneous_placement_with(
            10,
            simkit::SimDuration::from_hours(5),
            &mut RunCounters::default(),
        );
        assert_eq!(t.rows.len(), 6);
        // Within each pool kind, admission varies by less than 20%
        // across policies.
        for pool in ["homogeneous", "3:1 mixed"] {
            let launched: Vec<f64> = (0..t.rows.len())
                .filter(|r| t.rows[*r][0] == pool)
                .map(|r| t.cell(r, 2))
                .collect();
            let lo = launched.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = launched.iter().copied().fold(0.0f64, f64::max);
            assert!(hi <= lo * 1.2, "{pool}: {launched:?}");
        }
    }

    #[test]
    fn speculation_narrows_the_straggler_penalty_at_high_skew() {
        let t = speculation();
        // At low skew the 10% duplication overhead can outweigh the
        // straggler gain — speculation is not a free lunch — but at the
        // largest skew it wins clearly.
        let last = t.rows.len() - 1;
        assert!(
            t.cell(last, 2) > t.cell(last, 3) * 1.1,
            "off {} on {}",
            t.cell(last, 2),
            t.cell(last, 3)
        );
        // And the benefit grows with skew.
        let gap_first = t.cell(0, 2) - t.cell(0, 3);
        let gap_last = t.cell(last, 2) - t.cell(last, 3);
        assert!(gap_last > gap_first);
    }

    #[test]
    fn burstable_advantage_grows_as_pressure_shrinks() {
        let t = burstable_comparison();
        let adv: Vec<f64> = (0..t.rows.len())
            .map(|r| {
                t.rows[r][3]
                    .trim_end_matches('x')
                    .parse::<f64>()
                    .expect("numeric advantage")
            })
            .collect();
        // Least pressure (row 0) = largest deflatable advantage.
        for w in adv.windows(2) {
            assert!(w[0] >= w[1] - 1e-9, "advantage should shrink: {adv:?}");
        }
        assert!(adv[0] > 2.0, "sustained work crushes credit buckets");
    }

    #[test]
    fn balloon_slower_but_greedier() {
        let t = memory_mechanisms();
        let unplug_mem = t.cell(0, 1);
        let balloon_mem = t.cell(1, 1);
        let unplug_lat = t.cell(0, 2);
        let balloon_lat = t.cell(1, 2);
        assert!(balloon_mem >= unplug_mem, "balloon reclaims ≥ unplug");
        assert!(balloon_lat > unplug_lat, "balloon is slower");
        assert_eq!(t.rows[0][3], "true");
        assert_eq!(t.rows[1][3], "false");
    }
}
