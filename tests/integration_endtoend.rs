//! Capstone integration: every layer of the system in one scenario —
//! the Fig. 8a story told through the real components.
//!
//! A server pool runs a Spark CNN training cluster on low-priority VMs.
//! High-priority memcached VMs arrive (cluster manager → placement →
//! local controller → cascade), deflating the Spark workers; the
//! *measured* per-VM deflation fractions drive the Spark policy and the
//! training model; the memcached model serves at full speed; when the
//! memcached VMs leave, reinflation restores the workers.

use apps::{MemcachedApp, MemcachedParams};
use cluster::{ClusterManager, ClusterManagerConfig, LaunchOutcome, VmRequest};
use deflate_core::{ResourceVector, VmId};
use simkit::{stats, SimDuration, SimTime};
use spark::{DeflationEvent, DeflationMode, TrainingJob, TrainingParams};

fn worker_spec() -> ResourceVector {
    ResourceVector::new(4.0, 16_384.0, 100.0, 200.0)
}

fn request(id: u64, low: bool) -> VmRequest {
    VmRequest {
        id: VmId(id),
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_hours(2),
        spec: worker_spec(),
        type_name: "worker",
        low_priority: low,
        min_size: if low {
            worker_spec().scale(0.25)
        } else {
            ResourceVector::ZERO
        },
    }
}

#[test]
fn colocation_story_end_to_end() {
    // Two servers, exactly big enough for the 8 Spark workers.
    let mut manager = ClusterManager::new(ClusterManagerConfig {
        n_servers: 2,
        server_capacity: worker_spec().scale(4.0),
        ..ClusterManagerConfig::default()
    });

    // Phase 1: the Spark cluster launches and fills the pool.
    for i in 0..8 {
        let out = manager.launch(SimTime::ZERO, &request(i, true));
        assert!(matches!(out, LaunchOutcome::Placed { .. }), "worker {i}");
    }
    assert_eq!(manager.running_vms(), 8);
    assert!((manager.utilization() - 1.0).abs() < 1e-9);

    // Undeflated workers: the training job runs at full speed.
    let fractions_before: Vec<f64> = (0..8)
        .map(|i| {
            manager
                .servers()
                .iter()
                .find_map(|s| s.vm(VmId(i)))
                .expect("worker exists")
                .max_deflation()
        })
        .collect();
    assert!(fractions_before.iter().all(|f| *f < 1e-9));

    // Phase 2: four high-priority memcached VMs arrive at minute 30.
    let t_pressure = SimTime::from_secs(30 * 60);
    for i in 100..104 {
        let out = manager.launch(t_pressure, &request(i, false));
        match out {
            LaunchOutcome::Placed { preempted, .. } => {
                assert!(preempted.is_empty(), "deflation must suffice")
            }
            LaunchOutcome::Rejected => panic!("memcached VM {i} rejected"),
        }
    }
    assert_eq!(manager.running_vms(), 12);
    assert!(manager.stats().preempted == 0);
    assert!(manager.overcommitment() > 0.4, "heavy overcommitment");

    // The measured deflation fractions drive the Spark policy.
    let fractions: Vec<f64> = (0..8)
        .map(|i| {
            manager
                .servers()
                .iter()
                .find_map(|s| s.vm(VmId(i)))
                .expect("worker exists")
                .max_deflation()
        })
        .collect();
    let mean_d = stats::mean(&fractions);
    assert!(
        (0.3..0.7).contains(&mean_d),
        "memcached displaced ~half: {fractions:?}"
    );

    let cnn = TrainingJob::new(TrainingParams::default());
    let ev = DeflationEvent {
        at_progress: 0.5,
        fractions: fractions.clone(),
    };
    let run = cnn.run(DeflationMode::Cascade, Some(&ev));
    let decision = run.decision.expect("policy decides");
    assert_eq!(
        decision.chosen,
        spark::policy::ChosenMechanism::VmLevel,
        "synchronous training must not be killed"
    );
    // Slowdown is modest: the paper's ~20 % at 50 % deflation.
    assert!(
        run.normalized() < 1.25,
        "training slowdown {}",
        run.normalized()
    );

    // The memcached VMs serve at full speed (high-priority, undeflated).
    // Their usage is set through the manager, which owns the servers.
    let mc = MemcachedApp::new(MemcachedParams::default());
    assert!(manager.set_vm_usage(VmId(100), mc.rss_mb(), mc.params().needed_vcpus));
    let mc_vm = manager
        .servers()
        .iter()
        .find_map(|s| s.vm(VmId(100)))
        .expect("memcached VM exists");
    assert!(mc_vm.effective().approx_eq(&worker_spec(), 1e-6));
    assert!(mc.normalized_perf(&mc_vm.view()) > 0.95);

    // Cluster throughput peaks: Spark at 1/slowdown + memcached at ~1.
    let spark_norm = 1.0 / cnn.slowdown_running(stats::max(&fractions));
    let total = spark_norm + mc.normalized_perf(&mc_vm.view());
    assert!(total > 1.6, "total cluster throughput {total}");

    // Phase 3: the memcached VMs exit; workers reinflate.
    let t_release = SimTime::from_secs(90 * 60);
    for i in 100..104 {
        assert!(manager.exit(t_release, VmId(i)).is_some());
    }
    let fractions_after: Vec<f64> = (0..8)
        .map(|i| {
            manager
                .servers()
                .iter()
                .find_map(|s| s.vm(VmId(i)))
                .expect("worker exists")
                .max_deflation()
        })
        .collect();
    assert!(
        stats::mean(&fractions_after) < 0.05,
        "reinflation should restore the workers: {fractions_after:?}"
    );

    // The lifecycle trace recorded the whole story.
    let log = manager.log();
    assert_eq!(log.count("launch"), 12);
    assert!(log.count("deflate") >= 8);
    assert_eq!(log.count("exit"), 4);
    assert!(log.count("reinflate") >= 8);
    assert_eq!(log.count("preempt"), 0);
}

/// The same pressure handled by a preemption-only manager kills half the
/// Spark cluster — the contrast the whole paper is about.
#[test]
fn preemption_only_kills_the_training_cluster() {
    let mut manager = ClusterManager::new(ClusterManagerConfig {
        n_servers: 2,
        server_capacity: worker_spec().scale(4.0),
        deflation_enabled: false,
        ..ClusterManagerConfig::default()
    });
    for i in 0..8 {
        manager.launch(SimTime::ZERO, &request(i, true));
    }
    for i in 100..104 {
        let out = manager.launch(SimTime::from_secs(60), &request(i, false));
        assert!(matches!(out, LaunchOutcome::Placed { .. }));
    }
    // Four workers are gone.
    assert_eq!(manager.stats().preempted, 4);
    let survivors = (0..8).filter(|i| manager.is_running(VmId(*i))).count();
    assert_eq!(survivors, 4);

    // For synchronous training, losing any worker forces a restart from
    // checkpoint — the expensive path.
    let cnn = TrainingJob::new(TrainingParams::default());
    let ev = DeflationEvent::uniform(8, 0.5, 0.5);
    let preempted_run = cnn.run(DeflationMode::Preemption, Some(&ev));
    let deflated_run = cnn.run(DeflationMode::Cascade, Some(&ev));
    assert!(
        preempted_run.normalized() > 2.0 * deflated_run.normalized() - 1.0,
        "preemption {} vs deflation {}",
        preempted_run.normalized(),
        deflated_run.normalized()
    );
}
