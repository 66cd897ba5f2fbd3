//! End-to-end cascade deflation across the full stack: application agent
//! (apps) → guest OS + hypervisor (hypervisor) → controller
//! (deflate-core), with resource-conservation invariants.

use apps::{JvmApp, JvmParams, MemcachedApp, MemcachedParams};
use deflate_core::{CascadeConfig, ResourceKind, ResourceVector, VmId};
use hypervisor::{Vm, VmPriority};
use simkit::{SimDuration, SimTime};

fn spec() -> ResourceVector {
    ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
}

/// Effective + unplugged + overcommitted must always equal the spec.
fn assert_conservation(vm: &Vm) {
    let st = vm.state();
    let sum = st.effective() + st.unplugged + st.overcommitted;
    assert!(
        sum.approx_eq(&st.spec, 1e-6),
        "conservation violated: effective {} + unplugged {} + overcommitted {} != spec {}",
        st.effective(),
        st.unplugged,
        st.overcommitted,
        st.spec
    );
}

#[test]
fn full_cascade_conserves_resources_through_cycles() {
    let mut app = MemcachedApp::new(MemcachedParams::default());
    let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
    app.init_usage(vm.state_mut());

    // Three deflate/reinflate cycles of varying sizes.
    for (i, frac) in [0.25, 0.5, 0.4].iter().enumerate() {
        let t = SimTime::from_secs(i as u64 * 100);
        let target = spec().scale(*frac);
        let out = vm.deflate(t, &target, &CascadeConfig::FULL, Some(&mut app));
        assert!(out.met_target(), "cycle {i}: shortfall {}", out.shortfall);
        assert_conservation(&vm);

        let got = vm.reinflate(t + SimDuration::from_secs(50), &target, Some(&mut app));
        assert!(got.approx_eq(&target, 1e-6), "cycle {i}: got {got}");
        assert_conservation(&vm);
    }

    // After all cycles the VM is back to full size and full speed.
    assert!(vm.effective().approx_eq(&spec(), 1e-6));
    assert!(app.normalized_perf(&vm.view()) > 0.99);
    assert_eq!(app.cache_mb(), MemcachedParams::default().base_cache_mb);
}

#[test]
fn layer_contributions_sum_to_total() {
    let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
    vm.set_usage(8_192.0, 2.0);
    let out = vm.deflate(
        SimTime::ZERO,
        &spec().scale(0.5),
        &CascadeConfig::VM_LEVEL,
        None,
    );
    let sum = out.os.reclaimed + out.hypervisor.reclaimed;
    assert!(sum.approx_eq(&out.total_reclaimed, 1e-9));
    assert_conservation(&vm);
}

#[test]
fn app_layer_reduces_hypervisor_involvement() {
    // With an agent, most memory is relinquished and unplugged; without,
    // the hypervisor must swap.
    let target = ResourceVector::memory(8_192.0);

    let mut app = MemcachedApp::new(MemcachedParams::default());
    let mut vm_aware = Vm::new(VmId(1), spec(), VmPriority::Low);
    app.init_usage(vm_aware.state_mut());
    let out_aware = vm_aware.deflate(SimTime::ZERO, &target, &CascadeConfig::FULL, Some(&mut app));

    let plain = MemcachedApp::new(MemcachedParams::default());
    let mut vm_plain = Vm::new(VmId(2), spec(), VmPriority::Low);
    plain.init_usage(vm_plain.state_mut());
    let out_plain = vm_plain.deflate(SimTime::ZERO, &target, &CascadeConfig::VM_LEVEL, None);

    let hv_aware = out_aware.hypervisor.reclaimed.get(ResourceKind::Memory);
    let hv_plain = out_plain.hypervisor.reclaimed.get(ResourceKind::Memory);
    assert!(
        hv_aware < hv_plain * 0.5,
        "agent should shrink hypervisor share: {hv_aware} vs {hv_plain}"
    );
    // And deflation completes faster (no swap of used pages).
    assert!(out_aware.latency < out_plain.latency);
}

#[test]
fn deadline_bounds_latency() {
    let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
    vm.set_usage(14_000.0, 3.0);
    let deadline = SimDuration::from_secs(5);
    let cfg = CascadeConfig::VM_LEVEL.with_deadline(deadline);
    let out = vm.deflate(SimTime::ZERO, &ResourceVector::memory(10_000.0), &cfg, None);
    assert!(
        out.latency <= deadline + SimDuration::from_millis(1),
        "latency {} exceeds deadline",
        out.latency
    );
    // Partial reclamation is reported honestly.
    assert!(!out.met_target());
    assert!(!out.total_reclaimed.is_zero());
}

#[test]
fn jvm_agent_end_to_end_prefers_gc_over_swap() {
    let mut app = JvmApp::new(JvmParams::default());
    let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
    app.init_usage(vm.state_mut());

    let _ = vm.deflate(
        SimTime::ZERO,
        &ResourceVector::memory(6_144.0),
        &CascadeConfig::FULL,
        Some(&mut app),
    );
    // Heap shrank; nothing but a sliver of blind host reclaim swapped.
    assert!(app.heap_mb() < JvmParams::default().max_heap_mb);
    assert!(vm.view().swapped_mb < 100.0);
    assert!(app.gc_triggers() >= 1);
    assert_conservation(&vm);
}

#[test]
fn repeated_partial_deflations_accumulate() {
    let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
    vm.set_usage(2_048.0, 1.0);
    for _ in 0..4 {
        let _ = vm.deflate(
            SimTime::ZERO,
            &spec().scale(0.125),
            &CascadeConfig::VM_LEVEL,
            None,
        );
    }
    let total_deflation = vm.view().deflation;
    for k in ResourceKind::ALL {
        assert!(
            (total_deflation.get(k) - 0.5).abs() < 0.01,
            "{k}: {}",
            total_deflation.get(k)
        );
    }
    assert_conservation(&vm);
}
