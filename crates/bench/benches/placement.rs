//! Micro-benchmarks of deflation-aware placement: the naive full scan
//! vs the class-table [`PlacementIndex`], over lightly-loaded (200
//! servers) and heavily-loaded (1000 servers, ~90 % committed) pools.
//! Servers here load in a six-step cycle, so the pools hold only a few
//! classes of identical servers: the index scores one row per class
//! where the scan scores every server.

use cluster::placement::{choose_server_with, PlacementPolicy};
use cluster::{AvailabilityMode, PlacementIndex};
use criterion::{criterion_group, criterion_main, Criterion};
use deflate_core::{ResourceVector, ServerId, VmId};
use hypervisor::{PhysicalServer, Vm, VmPriority};
use simkit::SimRng;
use std::hint::black_box;

fn build_pool(n: u64) -> Vec<PhysicalServer> {
    let capacity = ResourceVector::new(16.0, 65_536.0, 400.0, 800.0);
    let spec = ResourceVector::new(2.0, 4_096.0, 50.0, 100.0);
    (0..n)
        .map(|i| {
            let mut s = PhysicalServer::new(ServerId(i), capacity);
            // Partially loaded with a mix of priorities.
            for j in 0..(i % 6) {
                let pri = if j % 2 == 0 {
                    VmPriority::Low
                } else {
                    VmPriority::High
                };
                s.add_vm(Vm::new(VmId(i * 10 + j), spec, pri));
            }
            s
        })
        .collect()
}

/// A pool in the steady-state shape the cluster simulation reaches under
/// paper-scale load: ~90 % committed, a sprinkling of deflated
/// low-priority VMs, only a few servers with real headroom.
fn build_loaded_pool(n: u64) -> Vec<PhysicalServer> {
    let capacity = ResourceVector::new(16.0, 65_536.0, 400.0, 800.0);
    let spec = ResourceVector::new(2.0, 4_096.0, 50.0, 100.0);
    let mut rng = SimRng::seed_from_u64(13);
    (0..n)
        .map(|i| {
            let mut s = PhysicalServer::new(ServerId(i), capacity);
            // 5–7 VMs commit 10–14 CPUs of 16; every ~20th server stays
            // half-empty (the placement targets).
            let vms = if i % 20 == 0 { 3 } else { 5 + (i % 3) };
            for j in 0..vms {
                let pri = if j % 2 == 0 {
                    VmPriority::Low
                } else {
                    VmPriority::High
                };
                let vm = Vm::new(VmId(i * 10 + j), spec, pri).with_min(spec.scale(0.25));
                s.add_vm(vm);
            }
            // Deflate one low-priority VM part-way on most servers so the
            // deflation availability differs from free.
            if rng.chance(0.5) {
                s.deflate_vm(
                    simkit::SimTime::ZERO,
                    VmId(i * 10),
                    &spec.scale(0.5),
                    &deflate_core::CascadeConfig::VM_LEVEL,
                );
            }
            s
        })
        .collect()
}

fn bench_placement(c: &mut Criterion) {
    let servers = build_pool(200);
    let demand = ResourceVector::new(4.0, 8_192.0, 100.0, 200.0);
    for policy in PlacementPolicy::ALL {
        c.bench_function(format!("placement/{}_200_servers", policy.name()), |b| {
            let mut rng = SimRng::seed_from_u64(7);
            b.iter(|| {
                black_box(choose_server_with(
                    policy,
                    black_box(&servers),
                    black_box(&demand),
                    AvailabilityMode::Deflation,
                    &mut rng,
                ))
            })
        });
    }
}

fn bench_placement_indexed(c: &mut Criterion) {
    let servers = build_loaded_pool(1000);
    let index = PlacementIndex::new(&servers);
    let demand = ResourceVector::new(4.0, 8_192.0, 100.0, 200.0);
    for policy in PlacementPolicy::ALL {
        c.bench_function(
            format!("placement/naive/{}_1000_loaded", policy.name()),
            |b| {
                let mut rng = SimRng::seed_from_u64(7);
                b.iter(|| {
                    black_box(choose_server_with(
                        policy,
                        black_box(&servers),
                        black_box(&demand),
                        AvailabilityMode::Deflation,
                        &mut rng,
                    ))
                })
            },
        );
        c.bench_function(
            format!("placement/indexed/{}_1000_loaded", policy.name()),
            |b| {
                let mut rng = SimRng::seed_from_u64(7);
                b.iter(|| {
                    black_box(index.choose(
                        policy,
                        black_box(&servers),
                        black_box(&demand),
                        AvailabilityMode::Deflation,
                        &mut rng,
                    ))
                })
            },
        );
    }
}

criterion_group!(benches, bench_placement, bench_placement_indexed);
criterion_main!(benches);
