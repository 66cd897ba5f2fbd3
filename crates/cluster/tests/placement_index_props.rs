//! Property tests of the placement index: for *any* interleaving of the
//! mutation choke points — launch (`add_vm`), exit (`remove_vm`),
//! `deflate_vm`, `reinflate_vm`, crash (evacuate + `set_up(false)`) and
//! recover (`set_up(true)`) — the index must stay bit-consistent with
//! live server state and answer every placement query with the *same
//! server* as the naive full-scan oracle under all three policies and
//! both availability modes, and every migration-destination query with
//! the same server as the naive destination scan. Near-tie fleets push
//! the class table into BestFit's intransitive corners, and one release
//! test runs the manager's sampled audit over a 3000-server fleet.

use cluster::placement::{best_headroom_with, choose_server_with};
use cluster::{AvailabilityMode, PlacementIndex, PlacementPolicy};
use deflate_core::{CascadeConfig, ResourceKind, ResourceVector, ServerId, VmId};
use hypervisor::{PhysicalServer, Vm, VmPriority};
use proptest::prelude::*;
use simkit::{SimRng, SimTime};

fn capacity() -> ResourceVector {
    ResourceVector::new(8.0, 32_768.0, 200.0, 400.0)
}

fn spec(scale: f64) -> ResourceVector {
    ResourceVector::new(4.0, 16_384.0, 100.0, 200.0).scale(scale)
}

/// A server capacity for near-tie fleets: one of a few shared shapes,
/// sometimes nudged along CPU by a few ulps or by steps of 2e-5. Memory
/// dominates these norms (about 3e4), so one step moves a cosine by a
/// fraction of BestFit's 1e-9 fuzz and a norm by a few times it: fleets
/// share classes, cosines chain through the fuzz, and the fuzzy
/// comparison turns intransitive.
fn near_tie_capacity(rng: &mut SimRng) -> ResourceVector {
    let base = [
        capacity(),
        capacity().scale(0.5),
        ResourceVector::new(4.0, 16_384.0, 200.0, 100.0),
    ][rng.index(3)];
    let cpu = base.get(ResourceKind::Cpu);
    let nudged = match rng.index(4) {
        0 => cpu,
        1 => f64::from_bits(cpu.to_bits() + 1 + rng.index(4) as u64),
        _ => cpu + rng.index(5) as f64 * 2e-5,
    };
    base.with(ResourceKind::Cpu, nudged)
}

/// Every policy × availability-mode query must agree with the oracle.
/// Twin RNGs seeded identically keep the random policies on the same
/// stream for both paths.
fn assert_queries_agree(
    index: &PlacementIndex,
    servers: &[PhysicalServer],
    demand: &ResourceVector,
    seed: u64,
) {
    for policy in PlacementPolicy::ALL {
        for mode in [
            AvailabilityMode::Deflation,
            AvailabilityMode::PreemptionOnly,
        ] {
            let mut naive_rng = SimRng::seed_from_u64(seed);
            let mut index_rng = SimRng::seed_from_u64(seed);
            let naive = choose_server_with(policy, servers, demand, mode, &mut naive_rng);
            let indexed = index.choose(policy, servers, demand, mode, &mut index_rng);
            prop_assert_eq!(
                indexed,
                naive,
                "policy {} diverged (indexed vs naive) for demand {:?}",
                policy.name(),
                demand
            );
        }
    }
}

/// The migration-destination query must agree with its oracle, both
/// over the whole fleet and with one server excluded.
fn assert_destinations_agree(
    index: &PlacementIndex,
    servers: &[PhysicalServer],
    demand: &ResourceVector,
    exclude: usize,
) {
    for exclude in [None, Some(exclude)] {
        prop_assert_eq!(
            index.best_headroom(servers, demand, exclude),
            best_headroom_with(servers, demand, exclude),
            "best_headroom diverged for demand {:?} excluding {:?}",
            demand,
            exclude
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random mutation interleavings keep the index consistent and its
    /// answers identical to the naive scan's.
    #[test]
    fn index_matches_naive_scan_under_any_interleaving(
        seed in any::<u64>(),
        n_servers in 1usize..7,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut servers: Vec<PhysicalServer> = (0..n_servers)
            .map(|i| PhysicalServer::new(ServerId(i as u64), capacity()))
            .collect();
        let mut index = PlacementIndex::new(&servers);
        index.assert_consistent(&servers);
        let cascade = CascadeConfig::VM_LEVEL;
        // Live VMs as (server index, vm id).
        let mut hosted: Vec<(usize, u64)> = Vec::new();
        let mut next_id = 0u64;
        for step in 0..80u64 {
            let now = SimTime::from_secs(step);
            let si = rng.index(n_servers);
            match rng.index(6) {
                // Launch: place a VM directly (placement-independent so
                // down servers and overcommit states get exercised too).
                0 | 1 => {
                    let scale = rng.uniform_range(0.2, 1.2);
                    let low = rng.chance(0.6);
                    let pri = if low { VmPriority::Low } else { VmPriority::High };
                    let s = spec(scale);
                    let min = if low { s.scale(0.3) } else { ResourceVector::ZERO };
                    servers[si].add_vm(Vm::new(VmId(next_id), s, pri).with_min(min));
                    hosted.push((si, next_id));
                    next_id += 1;
                }
                // Exit: remove a random live VM.
                2 => {
                    if !hosted.is_empty() {
                        let k = rng.index(hosted.len());
                        let (owner, id) = hosted.swap_remove(k);
                        prop_assert!(servers[owner].remove_vm(VmId(id)).is_some());
                        index.refresh(owner, &servers[owner]);
                    }
                }
                // Deflate a random live VM toward a smaller target.
                3 => {
                    if !hosted.is_empty() {
                        let k = rng.index(hosted.len());
                        let (owner, id) = hosted[k];
                        let target = spec(rng.uniform_range(0.05, 0.8));
                        servers[owner].deflate_vm(now, VmId(id), &target, &cascade);
                        index.refresh(owner, &servers[owner]);
                    }
                }
                // Reinflate a random live VM.
                4 => {
                    if !hosted.is_empty() {
                        let k = rng.index(hosted.len());
                        let (owner, id) = hosted[k];
                        let amount = spec(rng.uniform_range(0.05, 0.5));
                        servers[owner].reinflate_vm(now, VmId(id), &amount);
                        index.refresh(owner, &servers[owner]);
                    }
                }
                // Crash (evacuate then down) or recover.
                _ => {
                    if servers[si].is_up() {
                        let ids: Vec<VmId> =
                            servers[si].vms().map(|vm| vm.id()).collect();
                        for id in ids {
                            servers[si].remove_vm(id);
                        }
                        hosted.retain(|(owner, _)| *owner != si);
                        servers[si].set_up(false);
                    } else {
                        servers[si].set_up(true);
                    }
                }
            }
            index.refresh(si, &servers[si]);
            index.assert_consistent(&servers);
            // Queries agree for a spread of demand shapes: tiny,
            // typical, near-capacity, unsatisfiable, and skewed.
            let skew = ResourceVector::new(
                rng.uniform_range(0.1, 8.0),
                rng.uniform_range(64.0, 32_768.0),
                rng.uniform_range(1.0, 200.0),
                rng.uniform_range(1.0, 400.0),
            );
            // Derived rather than drawn, so the mutation stream above
            // stays the same for a given seed.
            let exclude = ((seed ^ step) % n_servers as u64) as usize;
            for demand in [spec(0.1), spec(rng.uniform_range(0.2, 1.0)), spec(1.9), spec(10.0), skew] {
                assert_queries_agree(&index, &servers, &demand, seed ^ step);
                assert_destinations_agree(&index, &servers, &demand, exclude);
            }
        }
    }

    /// Fleets of a few shared, nudged shapes with VMs, crashes and
    /// partitions on top: the class table must match both oracles where
    /// many servers share a class and BestFit's fuzzy comparison is
    /// intransitive.
    #[test]
    fn near_tie_fleets_match_the_oracles(
        seed in any::<u64>(),
        n_servers in 1usize..40,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut servers: Vec<PhysicalServer> = (0..n_servers)
            .map(|i| PhysicalServer::new(ServerId(i as u64), near_tie_capacity(&mut rng)))
            .collect();
        let mut index = PlacementIndex::new(&servers);
        for step in 0..40u64 {
            let si = rng.index(n_servers);
            match rng.index(4) {
                // One VM size, so loaded servers share classes too.
                0 | 1 => {
                    let pri = if rng.chance(0.5) { VmPriority::Low } else { VmPriority::High };
                    servers[si].add_vm(Vm::new(VmId(step), spec(0.25), pri));
                }
                // Crash (evacuate then down) or recover.
                2 => {
                    if servers[si].is_up() {
                        let ids: Vec<VmId> = servers[si].vms().map(|vm| vm.id()).collect();
                        for id in ids {
                            servers[si].remove_vm(id);
                        }
                        servers[si].set_up(false);
                    } else {
                        servers[si].set_up(true);
                    }
                }
                // Partition or heal: the server keeps its VMs.
                _ => {
                    let connected = servers[si].is_connected();
                    servers[si].set_connected(!connected);
                }
            }
            index.refresh(si, &servers[si]);
            index.assert_consistent(&servers);
            let exclude = ((seed ^ step) % n_servers as u64) as usize;
            for demand in [
                ResourceVector::cpu(0.1),
                capacity().scale(0.1),
                ResourceVector::new(4.0, 16_384.0, 200.0, 100.0).scale(0.2),
                spec(0.3),
                spec(0.6),
            ] {
                assert_queries_agree(&index, &servers, &demand, seed ^ step);
                assert_destinations_agree(&index, &servers, &demand, exclude);
            }
        }
    }
}

/// Twelve demands, more than the eight a class table keeps fit lists
/// for: scaled copies of the spec shape and four skewed shapes.
fn many_demands() -> Vec<ResourceVector> {
    let mut demands: Vec<ResourceVector> = (0..8).map(|k| spec(0.1 + 0.2 * k as f64)).collect();
    demands.extend([
        ResourceVector::new(0.5, 30_000.0, 10.0, 10.0),
        ResourceVector::new(7.0, 1_024.0, 10.0, 10.0),
        ResourceVector::new(1.0, 2_048.0, 190.0, 20.0),
        ResourceVector::new(1.0, 2_048.0, 20.0, 390.0),
    ]);
    demands
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Queries for more distinct demands than a class table keeps fit
    /// lists for, in random order, while servers move between classes:
    /// lists are evicted and rebuilt, founded classes join live lists,
    /// dissolved ones leave them, rows move under them and dissolved
    /// slots are reused, and every answer still matches the oracles.
    #[test]
    fn fit_lists_under_eviction_match_the_oracles(
        seed in any::<u64>(),
        n_servers in 1usize..24,
    ) {
        let mut rng = SimRng::seed_from_u64(seed);
        let demands = many_demands();
        let mut servers: Vec<PhysicalServer> = (0..n_servers)
            .map(|i| PhysicalServer::new(ServerId(i as u64), capacity()))
            .collect();
        let mut index = PlacementIndex::new(&servers);
        let cascade = CascadeConfig::VM_LEVEL;
        let mut hosted: Vec<(usize, u64)> = Vec::new();
        for step in 0..60u64 {
            let si = rng.index(n_servers);
            match rng.index(5) {
                // Two VM sizes, so servers share classes and leave them.
                0 | 1 => {
                    let low = rng.chance(0.6);
                    let pri = if low { VmPriority::Low } else { VmPriority::High };
                    let s = spec([0.25, 0.5][rng.index(2)]);
                    let min = if low { s.scale(0.3) } else { ResourceVector::ZERO };
                    servers[si].add_vm(Vm::new(VmId(step), s, pri).with_min(min));
                    hosted.push((si, step));
                }
                2 if !hosted.is_empty() => {
                    let (owner, id) = hosted.swap_remove(rng.index(hosted.len()));
                    prop_assert!(servers[owner].remove_vm(VmId(id)).is_some());
                    index.refresh(owner, &servers[owner]);
                }
                3 if !hosted.is_empty() => {
                    let (owner, id) = hosted[rng.index(hosted.len())];
                    let target = spec(rng.uniform_range(0.05, 0.3));
                    servers[owner].deflate_vm(SimTime::from_secs(step), VmId(id), &target, &cascade);
                    index.refresh(owner, &servers[owner]);
                }
                _ => {
                    let connected = servers[si].is_connected();
                    servers[si].set_connected(!connected);
                }
            }
            index.refresh(si, &servers[si]);
            index.assert_consistent(&servers);
            for _ in 0..3 {
                let demand = demands[rng.index(demands.len())];
                let exclude = rng.index(n_servers);
                assert_queries_agree(&index, &servers, &demand, seed ^ step);
                assert_destinations_agree(&index, &servers, &demand, exclude);
            }
        }
        index.assert_consistent(&servers);
        prop_assert!(index.fit_list_counters().evictions > 0, "no list was evicted");
    }
}

/// A catalog-driven fleet asks for four demand sizes, so after four
/// builds per class table every query reads a fit list: at least 99% of
/// queries hit, and no list is evicted. The fleet is 3000 servers under
/// BestFit at the Fig. 8c density, filling for eight hours and saturated
/// for two, placed straight through the index and the local controller.
#[test]
fn a_catalog_driven_fleet_reads_its_fit_lists() {
    use cluster::{TraceConfig, TraceGenerator};
    use hypervisor::LocalController;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    let n = 3_000;
    let capacity = cluster::ClusterManagerConfig::default().server_capacity;
    let mut servers: Vec<PhysicalServer> = (0..n)
        .map(|i| PhysicalServer::new(ServerId(i as u64), capacity))
        .collect();
    let mut index = PlacementIndex::new(&servers);
    let requests = TraceGenerator::new(TraceConfig {
        arrivals_per_hour: 2.8 * n as f64,
        seed: 1,
        ..TraceConfig::default()
    })
    .generate_until(SimTime::from_secs(10 * 3600));
    let controller = LocalController::default();
    let mut rng = SimRng::seed_from_u64(1);
    let mut departures: BinaryHeap<Reverse<(SimTime, usize, u64)>> = BinaryHeap::new();
    let (mut placed, mut deflating) = (0u64, 0u64);
    for req in &requests {
        while let Some(&Reverse((at, si, id))) = departures.peek() {
            if at > req.arrival {
                break;
            }
            departures.pop();
            servers[si].remove_vm(VmId(id));
            index.refresh(si, &servers[si]);
        }
        let Some(si) = index.choose(
            PlacementPolicy::BestFit,
            &servers,
            &req.spec,
            AvailabilityMode::Deflation,
            &mut rng,
        ) else {
            continue;
        };
        if !servers[si].free().dominates(&req.spec) {
            deflating += 1;
            let session = controller.make_room(req.arrival, &mut servers[si], &req.spec);
            if !session.satisfied() {
                session.rollback();
                continue;
            }
            session.commit();
        }
        let (pri, min) = if req.low_priority {
            (VmPriority::Low, req.min_size)
        } else {
            (VmPriority::High, ResourceVector::ZERO)
        };
        servers[si].add_vm(Vm::new(req.id, req.spec, pri).with_min(min));
        index.refresh(si, &servers[si]);
        departures.push(Reverse((req.arrival + req.lifetime, si, req.id.0)));
        placed += 1;
    }
    index.assert_consistent(&servers);
    assert!(
        placed > 50_000 && deflating > 1_000,
        "{placed} placed, {deflating} by deflation"
    );
    let c = index.fit_list_counters();
    let queries = c.hits + c.builds;
    assert_eq!(c.evictions, 0, "{c:?}");
    assert!(c.hits * 100 >= queries * 99, "{c:?}");
}

/// The manager's sampled release audit re-runs every 256th placement and
/// destination query against its scan oracle and counts divergences in
/// `cluster.audit_violations`. Over ten hours of a 3000-server BestFit
/// fleet at the Fig. 8c density (the ramp plus two saturated hours) it
/// must find none. Debug builds audit every query instead, which makes a
/// fleet this size too slow for them.
#[cfg(not(debug_assertions))]
#[test]
fn release_audit_finds_no_divergence_on_a_3000_server_fleet() {
    use cluster::{ClusterManagerConfig, ClusterSimConfig, ShardingConfig, TraceConfig};
    use simkit::SimDuration;

    let n = 3_000;
    let cfg = ClusterSimConfig {
        manager: ClusterManagerConfig {
            n_servers: n,
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: 2.8 * n as f64,
            seed: 1,
            ..TraceConfig::default()
        },
        horizon: SimDuration::from_hours(10),
        sharding: ShardingConfig::default(),
    };
    assert_eq!(cfg.manager.placement, PlacementPolicy::BestFit);
    let r = cluster::run_cluster_sim(&cfg);
    assert!(
        r.stats.launched > 100 * 256,
        "too few queries to audit: {} launches",
        r.stats.launched
    );
    let counters = r.summary.get("counters").expect("summary has counters");
    assert_eq!(
        counters.get("cluster.audit_violations"),
        None,
        "the class table diverged from its oracles"
    );
}
