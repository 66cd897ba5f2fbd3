//! Micro-benchmarks of the cascade deflation controller: per-VM cascade
//! cost, proportional-target computation, and reinflation.

use apps::{MemcachedApp, MemcachedParams};
use criterion::{criterion_group, criterion_main, Criterion};
use deflate_core::{proportional_targets, CascadeConfig, ResourceVector, VmDeflationState, VmId};
use hypervisor::{Vm, VmPriority};
use simkit::SimTime;
use std::hint::black_box;

fn vm_spec() -> ResourceVector {
    ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
}

fn bench_cascade(c: &mut Criterion) {
    c.bench_function("cascade/full_with_agent", |b| {
        b.iter(|| {
            let mut app = MemcachedApp::new(MemcachedParams::default());
            let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
            app.init_usage(vm.state_mut());
            let out = vm.deflate(
                SimTime::ZERO,
                &vm_spec().scale(0.5),
                &CascadeConfig::FULL,
                Some(&mut app),
            );
            black_box(out.total_reclaimed)
        })
    });

    c.bench_function("cascade/vm_level_no_agent", |b| {
        b.iter(|| {
            let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
            vm.set_usage(8_192.0, 2.0);
            let out = vm.deflate(
                SimTime::ZERO,
                &vm_spec().scale(0.5),
                &CascadeConfig::VM_LEVEL,
                None,
            );
            black_box(out.total_reclaimed)
        })
    });

    c.bench_function("cascade/deflate_reinflate_roundtrip", |b| {
        b.iter(|| {
            let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
            vm.set_usage(4_096.0, 1.0);
            let target = vm_spec().scale(0.4);
            let _ = vm.deflate(SimTime::ZERO, &target, &CascadeConfig::VM_LEVEL, None);
            black_box(vm.reinflate(SimTime::from_secs(1), &target, None))
        })
    });
}

fn bench_proportional(c: &mut Criterion) {
    let vms: Vec<VmDeflationState> = (0..64)
        .map(|i| VmDeflationState::with_min(VmId(i), vm_spec(), vm_spec().scale(0.3)))
        .collect();
    let demand = vm_spec().scale(10.0);
    c.bench_function("policy/proportional_targets_64vms", |b| {
        b.iter(|| black_box(proportional_targets(black_box(&demand), black_box(&vms))))
    });
}

criterion_group!(benches, bench_cascade, bench_proportional);
criterion_main!(benches);
