//! Figure 5: single-VM deflation mechanisms.
//!
//! * 5a — memcached under memory deflation: hypervisor-only vs OS-only
//!   (terminates past ~40 %) vs hypervisor+OS.
//! * 5b — kernel compile under CPU deflation: hypervisor-only pays the
//!   lock-holder-preemption tax; hypervisor+OS reaches 75 % deflation at
//!   ~30 % performance loss.
//! * 5c — memcached kGETS/s: the cache-resizing agent vs the unmodified
//!   server (~6× at 50 %).
//! * 5d — SpecJBB response time: the heap-resizing agent vs the
//!   unmodified JVM (~20 % better at high deflation).

use apps::{JvmApp, JvmParams, KcompileApp, KcompileParams, MemcachedApp, MemcachedParams};
use deflate_core::{CascadeConfig, ResourceVector, VmId};
use hypervisor::guest::GuestConfig;
use hypervisor::{LatencyModel, Vm, VmPriority};
use simkit::SimTime;

use crate::{f1, f3, pct, Table};

fn vm_spec() -> ResourceVector {
    ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
}

/// The Fig. 5a memcached: lightly loaded (the load generator offers ~25 %
/// of peak), 8 GiB of cached data in a 16 GiB VM.
fn fig5a_params() -> MemcachedParams {
    MemcachedParams {
        base_cache_mb: 8_192.0,
        overhead_mb: 1_024.0,
        n_objects: 1_000_000.0,
        offered_kgets: Some(60.0),
        ..MemcachedParams::default()
    }
}

fn fresh_vm(force_unplug: bool) -> Vm {
    let guest_cfg = GuestConfig {
        force_unplug,
        ..GuestConfig::default()
    };
    Vm::with_models(
        VmId(1),
        vm_spec(),
        VmPriority::Low,
        guest_cfg,
        LatencyModel::default(),
    )
}

/// Fig. 5a: memcached throughput under memory-only deflation, no
/// application agent, per mechanism.
pub fn fig5a() -> Table {
    let mut t = Table::new(
        "fig5a",
        "Memcached memory deflation (no app agent): normalized throughput",
        vec![
            "memory deflation",
            "Hypervisor only",
            "OS only",
            "Hypervisor+OS",
        ],
    );
    let configs: [(&CascadeConfig, bool); 3] = [
        (&CascadeConfig::HYPERVISOR_ONLY, false),
        (&CascadeConfig::OS_ONLY, true),
        (&CascadeConfig::VM_LEVEL, false),
    ];
    for step in 0..=5 {
        let f = step as f64 / 10.0;
        let mut cells = vec![pct(f)];
        for (cfg, force) in configs {
            let app = MemcachedApp::new(fig5a_params());
            let mut vm = fresh_vm(force);
            app.init_usage(vm.state_mut());
            let base = app.throughput_kgets(&vm.view());
            let _ = vm.deflate(
                SimTime::ZERO,
                &ResourceVector::memory(16_384.0 * f),
                cfg,
                None,
            );
            let now = app.throughput_kgets(&vm.view());
            cells.push(f3(now / base));
        }
        t.row(cells);
    }
    t.expect(
        "hypervisor-only loses ~20% at 50%; OS-only is best until it \
         OOM-kills the server past ~40%; hypervisor+OS switches over and \
         stays best",
    );
    t
}

/// Fig. 5b: kernel-compile throughput under CPU-only deflation.
pub fn fig5b() -> Table {
    let mut t = Table::new(
        "fig5b",
        "Kernel compile CPU deflation: normalized throughput",
        vec![
            "CPU deflation",
            "Hypervisor only",
            "OS only",
            "Hypervisor+OS",
        ],
    );
    let configs: [&CascadeConfig; 3] = [
        &CascadeConfig::HYPERVISOR_ONLY,
        &CascadeConfig::OS_ONLY,
        &CascadeConfig::VM_LEVEL,
    ];
    for step in 0..=8 {
        let f = step as f64 / 10.0;
        let mut cells = vec![pct(f)];
        for cfg in configs {
            let app = KcompileApp::new(KcompileParams::default());
            let mut vm = fresh_vm(false);
            app.init_usage(vm.state_mut());
            let _ = vm.deflate(SimTime::ZERO, &ResourceVector::cpu(4.0 * f), cfg, None);
            cells.push(f3(app.normalized_perf(&vm.view())));
        }
        t.row(cells);
    }
    t.expect(
        "hypervisor-only up to ~22% below OS unplug (lock-holder \
         preemption); hypervisor+OS reaches 75% deflation at ~30% loss",
    );
    t
}

/// Fig. 5c: memcached successful GETs with and without the deflation
/// agent (saturated load).
pub fn fig5c() -> Table {
    let mut t = Table::new(
        "fig5c",
        "Memcached kGETS/s: unmodified vs app deflation",
        vec!["memory deflation", "Unmodified", "App Deflation"],
    );
    for step in 0..=6 {
        let f = step as f64 / 10.0;
        let target = ResourceVector::memory(16_384.0 * f);

        let unmod = MemcachedApp::new(MemcachedParams::default());
        let mut vm_u = fresh_vm(false);
        unmod.init_usage(vm_u.state_mut());
        let _ = vm_u.deflate(SimTime::ZERO, &target, &CascadeConfig::VM_LEVEL, None);
        let t_u = unmod.throughput_kgets(&vm_u.view());

        let mut aware = MemcachedApp::new(MemcachedParams::default());
        let mut vm_a = fresh_vm(false);
        aware.init_usage(vm_a.state_mut());
        let _ = vm_a.deflate(
            SimTime::ZERO,
            &target,
            &CascadeConfig::FULL,
            Some(&mut aware),
        );
        let t_a = aware.throughput_kgets(&vm_a.view());

        t.row(vec![pct(f), f1(t_u), f1(t_a)]);
    }
    t.expect("app deflation (LRU eviction) ≈6× the unmodified throughput at 50%");
    t
}

/// Fig. 5d: SpecJBB response time with and without the JVM agent
/// (CPU and memory deflated together).
pub fn fig5d() -> Table {
    let mut t = Table::new(
        "fig5d",
        "SpecJBB response time (µs): unmodified vs app deflation",
        vec!["CPU+mem deflation", "Unmodified", "App Deflation"],
    );
    for step in 0..=6 {
        let f = step as f64 / 10.0;
        let target = ResourceVector::new(4.0 * f, 16_384.0 * f, 0.0, 0.0);

        let unmod = JvmApp::new(JvmParams::default());
        let mut vm_u = fresh_vm(false);
        unmod.init_usage(vm_u.state_mut());
        let _ = vm_u.deflate(SimTime::ZERO, &target, &CascadeConfig::VM_LEVEL, None);
        let rt_u = unmod.response_time_us(&vm_u.view());

        let mut aware = JvmApp::new(JvmParams::default());
        let mut vm_a = fresh_vm(false);
        aware.init_usage(vm_a.state_mut());
        let _ = vm_a.deflate(
            SimTime::ZERO,
            &target,
            &CascadeConfig::FULL,
            Some(&mut aware),
        );
        let rt_a = aware.response_time_us(&vm_a.view());

        t.row(vec![pct(f), f1(rt_u), f1(rt_a)]);
    }
    t.expect("the heap-resizing agent responds ~20% faster at high deflation");
    t
}

/// All four Fig. 5 panels.
pub fn run() -> Vec<Table> {
    vec![fig5a(), fig5b(), fig5c(), fig5d()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_shapes() {
        let t = fig5a();
        // OS-only dies at 50% (col 2), hypervisor-only survives (col 1).
        let last = t.rows.len() - 1;
        assert_eq!(t.cell(last, 2), 0.0, "OS-only should OOM at 50%");
        assert!(t.cell(last, 1) > 0.5, "hypervisor-only survives");
        // Hypervisor+OS is ≥ hypervisor-only everywhere.
        for r in 0..t.rows.len() {
            assert!(t.cell(r, 3) + 1e-9 >= t.cell(r, 1), "row {r}");
        }
        // OS-only is best while alive.
        assert!(t.cell(3, 2) >= t.cell(3, 1));
    }

    #[test]
    fn fig5b_shapes() {
        let t = fig5b();
        // At 75%-ish deflation combined keeps ~0.7 perf.
        let row70 = 7; // 70%
        assert!(t.cell(row70, 3) > 0.6);
        // OS unplug beats hypervisor-only at high deflation.
        assert!(t.cell(row70, 2) > t.cell(row70, 1));
        let gap = (t.cell(row70, 2) - t.cell(row70, 1)) / t.cell(row70, 2);
        assert!(gap > 0.08 && gap < 0.35, "gap {gap}");
    }

    #[test]
    fn fig5c_shapes() {
        let t = fig5c();
        let row50 = 5;
        let unmod = t.cell(row50, 1);
        let aware = t.cell(row50, 2);
        assert!(aware > 4.0 * unmod, "aware {aware} unmod {unmod}");
    }

    #[test]
    fn fig5d_shapes() {
        let t = fig5d();
        // The agent never responds slower, and is meaningfully faster at
        // high deflation.
        for r in 1..t.rows.len() {
            assert!(t.cell(r, 2) <= t.cell(r, 1) * 1.001, "row {r}");
        }
        let last = t.rows.len() - 1;
        assert!(t.cell(last, 2) < 0.9 * t.cell(last, 1));
    }
}
