//! Property tests for the distress loop: under random launch / exit /
//! usage-shock / distress-sample interleavings the PR-2 incremental
//! accounting stays exact at every step, the sampler's events agree with
//! the cluster stats, and a breaker-open VM's memory is never deflated
//! further — not by placement-driven reclamation and not by emergency
//! donation.
//!
//! The walk drives distress through the public API only: `set_vm_usage`
//! shocks a guest's resident set past its visible memory (hard distress)
//! or back down (recovery), and `sample_distress` runs the
//! consequence/mitigation/guardrail loop the simulator runs on a timer.

use cluster::{
    ClusterManager, ClusterManagerConfig, DistressConfig, DistressEvent, LaunchOutcome,
    MigrationPolicy, VmRequest,
};
use deflate_core::{CascadeConfig, ResourceKind::Memory, ResourceVector, VmId};
use proptest::prelude::*;
use simkit::{SimDuration, SimRng, SimTime};

/// Memory-balanced server so deflation actually contends on memory
/// (the default mix is CPU-bound and never produces memory distress).
fn capacity() -> ResourceVector {
    ResourceVector::new(16.0, 32_768.0, 400.0, 800.0)
}

fn request(id: u64, scale: f64, low: bool) -> VmRequest {
    let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0).scale(scale);
    VmRequest {
        id: VmId(id),
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_hours(2),
        spec,
        type_name: "distress",
        low_priority: low,
        min_size: if low {
            spec.scale(0.15)
        } else {
            ResourceVector::ZERO
        },
    }
}

/// Effective memory of a running VM, wherever it lives.
fn eff_mem(m: &ClusterManager, id: VmId) -> Option<f64> {
    m.servers()
        .iter()
        .find_map(|s| s.vm(id).map(|v| v.effective().get(Memory)))
}

/// One randomized walk of `steps` steps. Panics on any invariant
/// violation; returns the final run summary so determinism tests can
/// compare whole runs.
fn walk(
    seed: u64,
    steps: u64,
    emergency: bool,
    floor: bool,
    long_grace: bool,
    migrate: bool,
) -> String {
    let distress = DistressConfig {
        enabled: true,
        emergency_reinflate: emergency,
        breaker_after: 2,
        breaker_cooldown: 2,
        working_set_floor: floor,
        floor_fraction: if floor { 0.9 } else { 0.0 },
        grace_window: if long_grace {
            SimDuration::from_hours(10)
        } else {
            SimDuration::from_secs(180)
        },
        ..DistressConfig::default()
    };
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 3,
        server_capacity: capacity(),
        cascade: CascadeConfig::FULL,
        distress,
        migration: if migrate {
            MigrationPolicy::enabled()
        } else {
            MigrationPolicy::none()
        },
        ..ClusterManagerConfig::default()
    });

    let mut rng = SimRng::seed_from_u64(seed);
    // (id, spec memory, low-priority)
    let mut live: Vec<(u64, f64, bool)> = Vec::new();
    // Copy windows still running: (vm, cut-over instant).
    let mut moving: Vec<(VmId, SimTime)> = Vec::new();
    let mut next_id = 0u64;
    let mut end = SimTime::ZERO;

    for step in 0..steps {
        let now = SimTime::from_secs(step * 90);
        end = now;

        // Cut over every migration whose copy window elapsed — the VM
        // may have exited or been killed in the meantime, driving both
        // the commit and the abort path through the oracle.
        moving.retain(|(vm, done_at)| {
            if now >= *done_at {
                m.finish_migration(now, *vm);
                false
            } else {
                true
            }
        });

        // Snapshot every breaker-open VM's memory before the operation:
        // whatever happens next, a still-running open VM must not lose
        // memory.
        let shielded: Vec<(VmId, f64)> = live
            .iter()
            .filter(|(id, _, _)| m.breaker_open(VmId(*id)))
            .filter_map(|(id, _, _)| eff_mem(&m, VmId(*id)).map(|mem| (VmId(*id), mem)))
            .collect();

        match rng.index(10) {
            // Launch (the main source of deflation pressure).
            0..=4 => {
                let scale = rng.uniform_range(0.25, 1.0);
                let low = rng.chance(0.8);
                if let LaunchOutcome::Placed { .. } = m.launch(now, &request(next_id, scale, low)) {
                    let spec_mem = 16_384.0 * scale;
                    live.push((next_id, spec_mem, low));
                }
                next_id += 1;
            }
            // Exit (the main source of reinflation).
            5 | 6 if !live.is_empty() => {
                let pick = rng.index(live.len());
                let (id, _, _) = live.swap_remove(pick);
                assert!(m.exit(now, VmId(id)).is_some());
            }
            // Usage shock: move a low-priority guest's resident set
            // anywhere in [0.3, 1.3] × spec — past 1.0 the guest is OOM.
            7 => {
                let lows: Vec<(u64, f64)> = live
                    .iter()
                    .filter(|(_, _, low)| *low)
                    .map(|(id, mem, _)| (*id, *mem))
                    .collect();
                if !lows.is_empty() {
                    let (id, spec_mem) = lows[rng.index(lows.len())];
                    let frac = rng.uniform_range(0.3, 1.3);
                    assert!(m.set_vm_usage(VmId(id), spec_mem * frac, 1.0));
                }
            }
            // Distress sample: the events must agree with the stats, and
            // each event must describe a real state transition.
            _ => {
                let kills_before = m.stats().oom_kills;
                let events = m.sample_distress(now);
                let mut kills = 0u64;
                for ev in &events {
                    match *ev {
                        DistressEvent::OomKill { vm, .. } => {
                            kills += 1;
                            assert!(!m.is_running(vm), "{vm:?} still running after OOM kill");
                        }
                        DistressEvent::Slowdown { vm, perf } => {
                            assert!(m.is_running(vm), "{vm:?} slowed but not running");
                            assert!(
                                perf > 0.0 && perf < 1.0,
                                "slowdown perf {perf} out of (0, 1)"
                            );
                        }
                        DistressEvent::Migration { vm, total } => {
                            assert!(m.is_running(vm), "{vm:?} migrating but not running");
                            assert!(total > SimDuration::ZERO, "zero-length copy window");
                            moving.push((vm, now + total));
                        }
                    }
                }
                assert_eq!(
                    m.stats().oom_kills,
                    kills_before + kills,
                    "stats.oom_kills out of sync with OomKill events"
                );
            }
        }

        // Launches preempt and samples kill: drop whatever is gone.
        live.retain(|(id, _, _)| m.is_running(VmId(*id)));

        // The breaker shield: a VM whose breaker stayed open through the
        // step kept all of its memory. (A breaker can legitimately
        // *close* mid-step — a healthy sample ends the cool-down — and
        // the VM then re-enters the donor pool within the same sampling
        // round, so only still-open VMs are pinned.)
        for (id, before) in &shielded {
            if m.is_running(*id) && m.breaker_open(*id) {
                let after = eff_mem(&m, *id).expect("running VM has a server");
                assert!(
                    after >= before - 1e-6,
                    "breaker-open {id:?} lost memory: {before} -> {after}"
                );
            }
        }

        // The PR-2 oracle, at every step.
        m.assert_consistent();
    }

    m.run_summary(end, "distress_walk").to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random interleavings under every guardrail × migration
    /// combination keep the incremental totals exact, the migration
    /// ledger symmetric with the capacity holds, and the breaker shield
    /// airtight.
    #[test]
    fn invariants_survive_distress_interleavings(
        seed in any::<u64>(),
        mode in 0u8..16,
    ) {
        walk(seed, 70, mode & 1 != 0, mode & 2 != 0, mode & 4 != 0, mode & 8 != 0);
    }
}

/// The walk is a deterministic function of its seed: same seed, same
/// summary, byte for byte — with and without migration.
#[test]
fn distress_walk_is_deterministic() {
    for seed in [1u64, 7, 42] {
        for migrate in [false, true] {
            let a = walk(seed, 70, true, true, false, migrate);
            let b = walk(seed, 70, true, true, false, migrate);
            assert_eq!(
                a, b,
                "seed {seed} migrate={migrate}: walk must be reproducible"
            );
        }
    }
}

/// A walk long enough for a few hundred sampling rounds, past the
/// release audit period: the sampler's skip audit runs (every round in
/// debug builds, every 256th in release builds) and finds nothing, so
/// `cluster.audit_violations` stays unregistered.
#[test]
fn long_walk_passes_the_sampler_audit() {
    for migrate in [false, true] {
        let summary = walk(11, 2_000, true, false, false, migrate);
        assert!(
            !summary.contains("cluster.audit_violations"),
            "migrate={migrate}: the sampler skipped a distressed guest"
        );
    }
}

/// Breaker opens and closes stay symmetric: a trip counts once, a close
/// counts once, and the open-VM gauge returns to zero (checked both via
/// the counters and by `assert_consistent`'s gauge-vs-map invariant).
#[test]
fn breaker_open_and_close_stay_symmetric() {
    let distress = DistressConfig {
        enabled: true,
        breaker_after: 2,
        breaker_cooldown: 1,
        grace_window: SimDuration::from_hours(10),
        floor_fraction: 0.0,
        ..DistressConfig::default()
    };
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 1,
        server_capacity: capacity(),
        cascade: CascadeConfig::FULL,
        distress,
        ..ClusterManagerConfig::default()
    });
    let a = VmId(0);
    assert!(matches!(
        m.launch(SimTime::ZERO, &request(0, 1.0, true)),
        LaunchOutcome::Placed { .. }
    ));

    // Two hard samples open the breaker.
    assert!(m.set_vm_usage(a, 17_000.0, 1.0));
    m.sample_distress(SimTime::from_secs(60));
    m.sample_distress(SimTime::from_secs(120));
    assert!(m.breaker_open(a));
    m.assert_consistent();

    // Recovery: one healthy sample (cooldown 1, first trip) closes it.
    assert!(m.set_vm_usage(a, 2_000.0, 1.0));
    m.sample_distress(SimTime::from_secs(180));
    assert!(!m.breaker_open(a), "healthy streak must close the breaker");
    m.assert_consistent();

    let metrics = &m.observability().metrics;
    assert_eq!(metrics.count("cluster.breaker_trips"), 1);
    assert_eq!(metrics.count("distress.breaker_closed"), 1);
}

/// Deterministic regression: the breaker actually opens through the
/// public API, and once open it shields the VM from placement-driven
/// deflation — the property the random walk asserts opportunistically.
#[test]
fn breaker_shields_distressed_vm_from_placement_pressure() {
    let distress = DistressConfig {
        enabled: true,
        breaker_after: 2,
        breaker_cooldown: 2,
        grace_window: SimDuration::from_hours(10),
        floor_fraction: 0.0,
        ..DistressConfig::default()
    };
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 1,
        server_capacity: capacity(),
        cascade: CascadeConfig::FULL,
        distress,
        ..ClusterManagerConfig::default()
    });
    let (a, b) = (VmId(0), VmId(1));
    assert!(matches!(
        m.launch(SimTime::ZERO, &request(0, 1.0, true)),
        LaunchOutcome::Placed { .. }
    ));
    assert!(matches!(
        m.launch(SimTime::ZERO, &request(1, 1.0, true)),
        LaunchOutcome::Placed { .. }
    ));

    // Shock VM 0 past its visible memory: hard distress, and after two
    // consecutive samples the breaker opens.
    assert!(m.set_vm_usage(a, 17_000.0, 1.0));
    m.sample_distress(SimTime::from_secs(60));
    m.sample_distress(SimTime::from_secs(120));
    assert!(
        m.breaker_open(a),
        "two distressed samples must open the breaker"
    );
    assert!(!m.breaker_open(b));

    // A high-priority arrival now needs 8 GB carved out of a full
    // server. All of it must come from VM 1: VM 0 is shielded.
    let before_a = eff_mem(&m, a).unwrap();
    let before_b = eff_mem(&m, b).unwrap();
    let hog = VmRequest {
        id: VmId(2),
        arrival: SimTime::from_secs(150),
        lifetime: SimDuration::from_hours(1),
        spec: ResourceVector::new(2.0, 8_000.0, 0.0, 0.0),
        type_name: "hog",
        low_priority: false,
        min_size: ResourceVector::ZERO,
    };
    assert!(matches!(
        m.launch(SimTime::from_secs(150), &hog),
        LaunchOutcome::Placed { .. }
    ));
    assert!(m.is_running(a), "shielded VM must not be preempted");
    let after_a = eff_mem(&m, a).unwrap();
    let after_b = eff_mem(&m, b).unwrap();
    assert!(
        (after_a - before_a).abs() < 1e-6,
        "breaker-open VM deflated: {before_a} -> {after_a}"
    );
    assert!(
        after_b < before_b - 1.0,
        "the unshielded donor must supply the memory: {before_b} -> {after_b}"
    );
    m.assert_consistent();
}

fn slowed(events: &[DistressEvent], id: VmId) -> bool {
    events
        .iter()
        .any(|e| matches!(e, DistressEvent::Slowdown { vm, .. } if *vm == id))
}

/// Drives an emergency grant from `donor` to `victim` on one server that
/// leaves the donor thrashing: the donor's breaker shields it until it
/// closes, and the next time the victim asks, the donor gives more than
/// a third of its memory. Returns the events of the round the donor gave
/// in and of the round after. The skip audit would catch a sampler that
/// misses the donor only in debug builds (release builds audit every
/// 256th round), so callers check the events.
fn harvest(donor: VmId, victim: VmId) -> (Vec<DistressEvent>, Vec<DistressEvent>) {
    let distress = DistressConfig {
        enabled: true,
        emergency_reinflate: true,
        breaker_after: 1,
        breaker_cooldown: 2,
        grace_window: SimDuration::from_hours(10),
        floor_fraction: 0.0,
        ..DistressConfig::default()
    };
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 1,
        server_capacity: capacity(),
        cascade: CascadeConfig::HYPERVISOR_ONLY,
        distress,
        ..ClusterManagerConfig::default()
    });
    for id in [0, 1] {
        assert!(matches!(
            m.launch(SimTime::ZERO, &request(id, 1.0, true)),
            LaunchOutcome::Placed { .. }
        ));
    }
    // The donor runs out of memory for one round, which opens its
    // breaker, and then shrinks to 4,000 MiB.
    assert!(m.set_vm_usage(donor, 20_000.0, 1.0));
    m.sample_distress(SimTime::from_secs(60));
    assert!(m.breaker_open(donor));
    assert!(m.set_vm_usage(donor, 4_000.0, 1.0));
    // A high-priority arrival takes 11,000 MiB, all of it from the
    // victim while the breaker shields the donor, and the victim's
    // resident set outgrows what it has left.
    let hog = VmRequest {
        id: VmId(2),
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_hours(1),
        spec: ResourceVector::new(0.0, 11_000.0, 0.0, 0.0),
        type_name: "hog",
        low_priority: false,
        min_size: ResourceVector::ZERO,
    };
    assert!(matches!(
        m.launch(SimTime::from_secs(60), &hog),
        LaunchOutcome::Placed { .. }
    ));
    assert_eq!(
        eff_mem(&m, donor),
        Some(16_384.0),
        "the breaker shields the donor"
    );
    assert!(m.set_vm_usage(victim, 16_000.0, 1.0));
    for round in 2..=5u64 {
        let events = m.sample_distress(SimTime::from_secs(60 * round));
        if eff_mem(&m, donor) == Some(16_384.0) {
            assert!(slowed(&events, victim), "the victim thrashes: {events:?}");
            continue;
        }
        let next = m.sample_distress(SimTime::from_secs(60 * (round + 1)));
        m.assert_consistent();
        return (events, next);
    }
    panic!("the donor never gave the victim memory");
}

/// A grant to a higher-id guest harvests the donor after the donor's
/// turn. Its server changed after the round began, so the next round
/// samples the donor. A sampler that recorded server versions at the end
/// of a round would skip it until something else touched the server.
#[test]
fn a_donor_harvested_after_its_turn_is_sampled_next_round() {
    let (donor, victim) = (VmId(0), VmId(1));
    let (round, next) = harvest(donor, victim);
    assert!(
        !slowed(&round, donor),
        "the donor was healthy on its turn: {round:?}"
    );
    assert!(
        slowed(&next, donor),
        "the harvested donor thrashes the next round: {next:?}"
    );
}

/// A grant to a lower-id guest harvests the donor before the donor's
/// turn on a server that was clean when the round began: the sampler
/// re-checks the server after the grant and samples the donor in the
/// same round.
#[test]
fn a_donor_harvested_before_its_turn_is_sampled_the_same_round() {
    let (donor, victim) = (VmId(1), VmId(0));
    let (round, _) = harvest(donor, victim);
    assert!(
        slowed(&round, donor),
        "the harvested donor thrashes this round: {round:?}"
    );
}

/// A thrashing guest stays in the watch set while its distress streak
/// runs, so it is sampled, and slowed, every round even though nothing
/// touches its server between rounds.
#[test]
fn a_thrashing_guest_is_sampled_every_round_on_a_quiet_server() {
    let distress = DistressConfig {
        enabled: true,
        breaker_after: 4,
        grace_window: SimDuration::from_hours(10),
        floor_fraction: 0.0,
        ..DistressConfig::default()
    };
    let mut m = ClusterManager::new(ClusterManagerConfig {
        n_servers: 1,
        server_capacity: capacity(),
        cascade: CascadeConfig::HYPERVISOR_ONLY,
        distress,
        ..ClusterManagerConfig::default()
    });
    let guest = VmId(0);
    for id in [0, 1] {
        assert!(matches!(
            m.launch(SimTime::ZERO, &request(id, 1.0, true)),
            LaunchOutcome::Placed { .. }
        ));
    }
    let hog = VmRequest {
        id: VmId(2),
        arrival: SimTime::ZERO,
        lifetime: SimDuration::from_hours(1),
        spec: ResourceVector::new(0.0, 11_000.0, 0.0, 0.0),
        type_name: "hog",
        low_priority: false,
        min_size: ResourceVector::ZERO,
    };
    assert!(matches!(
        m.launch(SimTime::ZERO, &hog),
        LaunchOutcome::Placed { .. }
    ));
    assert!(m.set_vm_usage(guest, 16_000.0, 1.0));
    for round in 1..=3u64 {
        let version = m.servers()[0].version();
        let events = m.sample_distress(SimTime::from_secs(60 * round));
        assert!(slowed(&events, guest), "round {round}: {events:?}");
        assert!(!m.breaker_open(guest), "round {round}: the streak is short");
        assert_eq!(
            m.servers()[0].version(),
            version,
            "nothing touched the server"
        );
    }
    m.assert_consistent();
}
