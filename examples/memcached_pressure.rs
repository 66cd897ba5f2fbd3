//! memcached through a pressure cycle: deflate in steps, watch the cache
//! shrink and the hit rate adapt, then reinflate.
//!
//! Contrasts the deflation-aware server (LRU eviction keeps everything
//! RAM-speed) against an unmodified server (the host swaps the cache's
//! cold tail and throughput collapses).
//!
//! ```text
//! cargo run -p bench --example memcached_pressure
//! ```

use apps::{MemcachedApp, MemcachedParams};
use deflate_core::{CascadeConfig, ResourceVector, VmId};
use hypervisor::{Vm, VmPriority};
use simkit::SimTime;

fn vm_running(app: &MemcachedApp, id: u64, spec: ResourceVector) -> Vm {
    let mut vm = Vm::new(VmId(id), spec, VmPriority::Low);
    app.init_usage(vm.state_mut());
    vm
}

fn main() {
    let spec = ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0);
    let mut aware = MemcachedApp::new(MemcachedParams::default());
    let plain = MemcachedApp::new(MemcachedParams::default());
    let mut vm_aware = vm_running(&aware, 1, spec);
    let mut vm_plain = vm_running(&plain, 2, spec);

    println!(
        "{:>6} {:>12} {:>10} {:>14} {:>12} {:>12}",
        "step", "deflated", "cache MiB", "aware kGETS/s", "swapped MiB", "plain kGETS/s"
    );

    // Four rounds of increasing memory pressure (2 GiB each).
    let step_amount = ResourceVector::memory(2_048.0);
    for step in 1..=4 {
        let t = SimTime::from_secs(step * 60);
        let _ = vm_aware.deflate(t, &step_amount, &CascadeConfig::FULL, Some(&mut aware));
        let _ = vm_plain.deflate(t, &step_amount, &CascadeConfig::VM_LEVEL, None);
        println!(
            "{:>6} {:>11.0}% {:>10.0} {:>14.1} {:>12.0} {:>12.1}",
            step,
            step as f64 * 12.5,
            aware.cache_mb(),
            aware.throughput_kgets(&vm_aware.view()),
            vm_plain.view().swapped_mb,
            plain.throughput_kgets(&vm_plain.view()),
        );
    }

    // Pressure subsides: give everything back.
    let back = ResourceVector::memory(8_192.0);
    vm_aware.reinflate(SimTime::from_secs(600), &back, Some(&mut aware));
    vm_plain.reinflate(SimTime::from_secs(600), &back, None);
    println!(
        "{:>6} {:>11}% {:>10.0} {:>14.1} {:>12.0} {:>12.1}",
        "reinfl",
        0,
        aware.cache_mb(),
        aware.throughput_kgets(&vm_aware.view()),
        vm_plain.view().swapped_mb,
        plain.throughput_kgets(&vm_plain.view()),
    );
    println!(
        "\nTotal LRU evictions by the aware agent: {}",
        aware.evictions()
    );
}
