//! Linux kernel compilation: a CPU-bound parallel build model
//! (paper Fig. 1, Fig. 5b).
//!
//! Kernel compile is the paper's CPU-deflation probe. It is *unmodified*
//! (no deflation agent — `make` has no reclamation mechanism), so the
//! interesting comparison is between the OS and hypervisor mechanisms:
//!
//! * **vCPU hot-unplug** shrinks the parallelism cleanly — the build
//!   scheduler sees fewer CPUs and performance follows the (sub-linear)
//!   utility curve.
//! * **CPU-share throttling** keeps all vCPUs online but multiplexes them
//!   onto fewer effective cores, triggering lock-holder preemption: up to
//!   ~22 % worse than unplug at high deflation (§6.1).

use deflate_core::ResourceKind;
use hypervisor::guest::VmState;
use hypervisor::VmResourceView;
use simkit::SimDuration;

use crate::utility::{lhp_penalty, UtilityCurve};

/// Configuration of the kernel-compile workload.
#[derive(Debug, Clone)]
pub struct KcompileParams {
    /// Wall-clock build time with full resources.
    pub base_build: SimDuration,
    /// Build working set (MiB) — modest; kcompile is CPU-bound.
    pub memory_mb: f64,
    /// Performance vs. CPU-deflation curve (defaults to the Fig. 1
    /// calibration).
    pub curve: UtilityCurve,
}

impl Default for KcompileParams {
    fn default() -> Self {
        KcompileParams {
            base_build: SimDuration::from_mins(30),
            memory_mb: 4_096.0,
            curve: UtilityCurve::kcompile(),
        }
    }
}

/// The kernel-compile application model (no deflation agent).
pub struct KcompileApp {
    params: KcompileParams,
}

impl KcompileApp {
    /// Creates the workload.
    pub fn new(params: KcompileParams) -> Self {
        KcompileApp { params }
    }

    /// The configuration.
    pub fn params(&self) -> &KcompileParams {
        &self.params
    }

    /// Sets the VM's application usage.
    pub fn init_usage(&self, st: &mut VmState) {
        st.usage.memory_mb = self.params.memory_mb;
        st.usage.busy_vcpus = st.spec.get(ResourceKind::Cpu);
        st.recompute_swap();
    }

    /// Normalized build throughput (1.0 = undeflated) under the view.
    pub fn normalized_perf(&self, view: &VmResourceView) -> f64 {
        if view.oom {
            return 0.0;
        }
        let cpu_deflation = view.deflation.get(ResourceKind::Cpu);
        let base = self.params.curve.eval(cpu_deflation);
        let lhp = lhp_penalty(view.cpu_overcommit_ratio);
        // Memory pressure stalls the compiler on swapped pages. A zero
        // working set would make the ratio NaN; treat any swap against it
        // as fully stalled.
        let swapped_frac = if self.params.memory_mb > 0.0 {
            (view.swapped_mb / self.params.memory_mb).clamp(0.0, 1.0)
        } else if view.swapped_mb > 0.0 {
            1.0
        } else {
            0.0
        };
        let swap_penalty = 1.0 + 4.0 * swapped_frac;
        base / (lhp * swap_penalty)
    }

    /// Working-set floor hint for distress-aware deflation: the build's
    /// resident working set (MiB).
    pub fn distress_floor_mb(&self) -> f64 {
        self.params.memory_mb
    }

    /// Wall-clock build time under the view.
    pub fn build_time(&self, view: &VmResourceView) -> SimDuration {
        let perf = self.normalized_perf(view);
        if perf <= 0.0 {
            SimDuration::from_hours(24 * 365) // Effectively never.
        } else {
            self.params.base_build.mul_f64(1.0 / perf)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::{CascadeConfig, ResourceVector, VmId};
    use hypervisor::{Vm, VmPriority};
    use simkit::SimTime;

    fn vm_spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
    }

    fn setup() -> (KcompileApp, Vm) {
        let app = KcompileApp::new(KcompileParams::default());
        let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
        app.init_usage(vm.state_mut());
        (app, vm)
    }

    #[test]
    fn baseline_perf_is_one() {
        let (app, vm) = setup();
        assert!((app.normalized_perf(&vm.view()) - 1.0).abs() < 1e-9);
        assert_eq!(app.build_time(&vm.view()), SimDuration::from_mins(30));
    }

    #[test]
    fn unplug_beats_shares_at_high_deflation() {
        // OS-level unplug of 3 of 4 vCPUs (75 % CPU deflation).
        let (app, mut vm_os) = setup();
        let _ = vm_os.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(3.0),
            &CascadeConfig::OS_ONLY,
            None,
        );
        let perf_os = app.normalized_perf(&vm_os.view());

        // Hypervisor-only throttling to the same effective CPU.
        let (app2, mut vm_hv) = setup();
        let _ = vm_hv.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(3.0),
            &CascadeConfig::HYPERVISOR_ONLY,
            None,
        );
        let perf_hv = app2.normalized_perf(&vm_hv.view());

        assert!(perf_os > perf_hv, "os {perf_os} hv {perf_hv}");
        // The gap is in the right ballpark (paper: up to ~22 %).
        let gap = (perf_os - perf_hv) / perf_os;
        assert!(gap > 0.1 && gap < 0.3, "gap {gap}");
        // And unplugged perf matches the Fig. 1 claim: 75 % deflation,
        // ~30 % performance loss.
        assert!((perf_os - 0.70).abs() < 0.05, "perf_os {perf_os}");
    }

    #[test]
    fn combined_vm_level_tracks_unplug_until_fractional() {
        // 50 % deflation = 2 whole CPUs: VM-level should unplug both and
        // pay no LHP penalty.
        let (app, mut vm) = setup();
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::VM_LEVEL,
            None,
        );
        let view = vm.view();
        assert_eq!(view.online_vcpus, 2);
        assert!((view.cpu_overcommit_ratio - 1.0).abs() < 1e-9);
        assert!((app.normalized_perf(&view) - 0.86).abs() < 0.02);
    }

    #[test]
    fn build_time_inverts_perf() {
        let (app, mut vm) = setup();
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::OS_ONLY,
            None,
        );
        let t = app.build_time(&vm.view());
        assert!(t > SimDuration::from_mins(30));
        assert!(t < SimDuration::from_mins(60));
    }

    #[test]
    fn zero_working_set_is_never_nan() {
        let app = KcompileApp::new(KcompileParams {
            memory_mb: 0.0,
            ..KcompileParams::default()
        });
        let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
        let st = vm.state_mut();
        st.overcommitted = ResourceVector::memory(14_000.0);
        st.usage.memory_mb = 2_000.0;
        st.recompute_swap();
        let perf = app.normalized_perf(&vm.view());
        assert!(!perf.is_nan());
        assert!(perf >= 0.0);
    }

    #[test]
    fn swap_pressure_stalls_build() {
        let (app, mut vm) = setup();
        let st = vm.state_mut();
        st.overcommitted = ResourceVector::memory(14_000.0);
        st.recompute_swap();
        let perf = app.normalized_perf(&vm.view());
        assert!(perf < 0.5, "perf {perf}");
    }
}
