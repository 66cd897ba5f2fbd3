//! Byte-identity pins for the reclamation paths.
//!
//! Five small deterministic runs — plain, chaos (server crashes +
//! agent faults), guarded distress (emergency reinflation + OOM
//! kills), distress with live migration (rescue moves and their
//! reserve–copy–commit accounting), and the control plane under every
//! fault domain at once (partitions and manager crashes on top of the
//! migration run) — have their full run summaries committed under
//! `tests/golden/`. Any refactor of the reclamation machinery (the
//! `ReclaimSession` commit/rollback paths, the cascade, placement) must
//! reproduce these summaries byte for byte; a behavioural change that
//! is *supposed* to move numbers regenerates them explicitly with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -p cluster --test golden_summary
//! ```
//!
//! and the diff is reviewed like any other code change.

use cluster::distress::DistressConfig;
use cluster::manager::ClusterManagerConfig;
use cluster::simulate::{run_cluster_sim, ClusterSimConfig};
use cluster::traces::TraceConfig;
use deflate_core::ResourceVector;
use simkit::{AdmissionOverflow, FaultPlan, ManagerPlan, PartitionPlan, SimDuration};

fn base_cfg() -> ClusterSimConfig {
    ClusterSimConfig {
        sharding: Default::default(),
        manager: ClusterManagerConfig {
            n_servers: 20,
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: 150.0,
            lifetime_median_mins: 120.0,
            ..TraceConfig::default()
        },
        horizon: SimDuration::from_hours(6),
    }
}

/// Loaded enough that launches deflate, reject, and preempt.
fn plain_cfg() -> ClusterSimConfig {
    base_cfg()
}

/// Server crashes, dead agents, message loss and hotplug stalls: the
/// fault-recovery reclamation paths.
fn chaos_cfg() -> ClusterSimConfig {
    let mut cfg = base_cfg();
    cfg.manager.faults = FaultPlan::chaos(7).scaled(2.0);
    cfg
}

/// Memory-bound guarded distress: emergency donor harvesting, guest OOM
/// kills with survivor reinflation, breakers and working-set floors.
fn distress_cfg() -> ClusterSimConfig {
    let mut cfg = base_cfg();
    cfg.manager.server_capacity = ResourceVector::new(16.0, 32_768.0, 400.0, 800.0);
    cfg.manager.distress = DistressConfig::guarded();
    cfg
}

/// The distress run with live migration on top: rescue migrations,
/// drain-before-crash plumbing (armed but idle without faults), and the
/// reserve–copy–commit accounting.
fn migration_cfg() -> ClusterSimConfig {
    let mut cfg = distress_cfg();
    cfg.manager.migration = cluster::MigrationPolicy::enabled();
    cfg
}

/// The migration run with defragmentation under every fault domain at
/// once: chaos faults, manager↔server partitions and manager crashes.
/// The rates are high enough that partitioned and manager-less servers
/// run every branch of their local controller alone (emergency grants,
/// breaker trips and closes, an OOM kill, exits, crashes, reboots,
/// reboots during manager downtime), and heals and inventory scans
/// replay what it did.
fn control_plane_cfg() -> ClusterSimConfig {
    let mut cfg = migration_cfg();
    cfg.manager.migration.defrag_interval = SimDuration::from_mins(30);
    cfg.manager.faults = FaultPlan {
        server_crash_rate_per_hour: 2.0,
        server_restart: SimDuration::from_mins(30),
        crash_warning: SimDuration::from_mins(5),
        partitions: PartitionPlan {
            prob: 0.3,
            bucket: SimDuration::from_mins(30),
            duration: SimDuration::from_mins(90),
        },
        manager: ManagerPlan {
            prob: 0.3,
            downtime: SimDuration::from_mins(30),
            queue_cap: 64,
            overflow: AdmissionOverflow::Defer,
            ..ManagerPlan::none()
        },
        ..FaultPlan::chaos(7).scaled(2.0)
    };
    cfg
}

fn check(name: &str, cfg: &ClusterSimConfig, golden: &str) {
    let got = run_cluster_sim(cfg).summary.to_pretty();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(&path, &got).expect("write golden");
        return;
    }
    assert_eq!(
        got.trim(),
        golden.trim(),
        "{name}: run summary diverged from tests/golden/{name}.json — \
         if the change is intentional, regenerate with UPDATE_GOLDEN=1"
    );
}

#[test]
fn plain_summary_matches_golden() {
    check("plain", &plain_cfg(), include_str!("golden/plain.json"));
}

#[test]
fn chaos_summary_matches_golden() {
    check("chaos", &chaos_cfg(), include_str!("golden/chaos.json"));
}

#[test]
fn distress_summary_matches_golden() {
    check(
        "distress",
        &distress_cfg(),
        include_str!("golden/distress.json"),
    );
}

#[test]
fn migration_summary_matches_golden() {
    check(
        "migration",
        &migration_cfg(),
        include_str!("golden/migration.json"),
    );
}

#[test]
fn control_plane_summary_matches_golden() {
    check(
        "control_plane",
        &control_plane_cfg(),
        include_str!("golden/control_plane.json"),
    );
}
