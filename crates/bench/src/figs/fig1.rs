//! Figure 1: normalized performance of four applications under uniform
//! deflation of all resources (CPU, memory, I/O).
//!
//! The paper's headline observation: "even when 50% of all resources …
//! are reclaimed, the decrease in performance is less than 30%". Each
//! application runs through the full stack — a VM deflated with the real
//! cascade, measured with its performance model.

use apps::utility::UtilityCurve;
use apps::{JvmApp, JvmParams, KcompileApp, KcompileParams, MemcachedApp, MemcachedParams};
use deflate_core::{ApplicationAgent, CascadeConfig, ResourceVector, VmId};
use hypervisor::guest::VmState;
use hypervisor::{Vm, VmPriority};
use simkit::SimTime;

use crate::{f3, pct, Table};

fn vm_spec() -> ResourceVector {
    ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
}

fn fresh_vm() -> Vm {
    Vm::new(VmId(1), vm_spec(), VmPriority::Low)
}

/// Deflates `vm` by fraction `f` of every resource through `cfg`, with
/// `app` (when given) as its deflation agent.
fn deflate_by(
    vm: &mut Vm,
    f: f64,
    cfg: &CascadeConfig,
    app: Option<&mut dyn ApplicationAgent<VmState>>,
) {
    let _ = vm.deflate(SimTime::ZERO, &vm_spec().scale(f.min(0.99)), cfg, app);
}

/// Builds the Fig. 1 table.
pub fn run() -> Table {
    let mut t = Table::new(
        "fig1",
        "Normalized performance vs. deflation % (all resources)",
        vec![
            "deflation",
            "SpecJBB",
            "Kcompile",
            "Memcached",
            "Spark-Kmeans",
        ],
    );

    for step in 0..=10 {
        let f: f64 = step as f64 / 10.0;

        // SpecJBB: deflation-aware JVM.
        let mut jvm = JvmApp::new(JvmParams::default());
        let mut vm = fresh_vm();
        jvm.init_usage(vm.state_mut());
        deflate_by(&mut vm, f, &CascadeConfig::FULL, Some(&mut jvm));
        let specjbb = jvm.normalized_perf(&vm.view());

        // Kernel compile (no agent).
        let kc = KcompileApp::new(KcompileParams::default());
        let mut vm = fresh_vm();
        kc.init_usage(vm.state_mut());
        deflate_by(&mut vm, f, &CascadeConfig::VM_LEVEL, None);
        let kcompile = kc.normalized_perf(&vm.view());

        // memcached: deflation-aware cache.
        let mut mc = MemcachedApp::new(MemcachedParams::default());
        let mut vm = fresh_vm();
        mc.init_usage(vm.state_mut());
        deflate_by(&mut vm, f, &CascadeConfig::FULL, Some(&mut mc));
        let memcached = mc.normalized_perf(&vm.view());

        // Spark K-means: the calibrated Fig. 1 utility curve (K-means
        // does not keep the whole cluster busy, so its degradation is
        // sub-linear in a way the capacity-linear BSP simulator — used
        // for Fig. 6 — deliberately does not model).
        let spark = UtilityCurve::spark_kmeans().eval(f);

        t.row(vec![
            pct(f),
            f3(specjbb),
            f3(kcompile),
            f3(memcached),
            f3(spark),
        ]);
    }
    t.expect(
        "at 50% deflation every application keeps ≥70% of its performance \
         (paper: \"decrease in performance is less than 30%\")",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_shapes() {
        let t = run();
        assert_eq!(t.rows.len(), 11);
        // Row 5 is 50% deflation; every app keeps most performance.
        for col in 1..=4 {
            let perf50 = t.cell(5, col);
            assert!(perf50 >= 0.60, "col {col} at 50%: {perf50}");
            // Undeflated row is ~1.0 and performance decreases overall.
            assert!(t.cell(0, col) > 0.95, "col {col} baseline");
            assert!(t.cell(10, col) < 0.35, "col {col} at 100%");
        }
    }
}
