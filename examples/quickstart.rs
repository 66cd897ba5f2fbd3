//! Quickstart: deflate one VM through the full cascade and inspect where
//! each layer reclaimed resources.
//!
//! ```text
//! cargo run -p bench --example quickstart
//! ```

use apps::{MemcachedApp, MemcachedParams};
use deflate_core::{CascadeConfig, ResourceVector, VmId};
use hypervisor::{Vm, VmPriority};
use simkit::SimTime;

fn main() {
    // A 4-vCPU / 16 GiB transient (low-priority, deflatable) VM running a
    // deflation-aware memcached.
    let spec = ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0);
    let mut app = MemcachedApp::new(MemcachedParams::default());
    let mut vm = Vm::new(VmId(1), spec, VmPriority::Low);
    app.init_usage(vm.state_mut());

    println!("spec:          {spec}");
    println!(
        "baseline GETs: {:.1} kGETS/s\n",
        app.throughput_kgets(&vm.view())
    );

    // The cluster manager asks for half of everything back; the app acts
    // as its own deflation agent, the first layer of the cascade.
    let target = spec.scale(0.5);
    println!("deflation target: {target}\n");
    let out = vm.deflate(SimTime::ZERO, &target, &CascadeConfig::FULL, Some(&mut app));

    println!("application relinquished: {}", out.app.reclaimed);
    println!("guest OS hot-unplugged:   {}", out.os.reclaimed);
    println!("hypervisor overcommitted: {}", out.hypervisor.reclaimed);
    println!("total reclaimed:          {}", out.total_reclaimed);
    println!("latency:                  {}", out.latency);
    println!("met target:               {}\n", out.met_target());

    let view = vm.view();
    println!("effective allocation now: {}", view.effective);
    println!("cache resized to:         {:.0} MiB", app.cache_mb());
    println!(
        "deflated GETs:            {:.1} kGETS/s",
        app.throughput_kgets(&view)
    );

    // Pressure passes: reinflate.
    let back = vm.reinflate(SimTime::from_secs(60), &target, Some(&mut app));
    println!("\nreinflated:               {back}");
    println!(
        "recovered GETs:           {:.1} kGETS/s",
        app.throughput_kgets(&vm.view())
    );
}
