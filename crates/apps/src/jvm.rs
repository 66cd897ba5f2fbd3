//! JVM / SpecJBB: a managed-runtime model with a heap-resizing deflation
//! agent (paper §4, Fig. 5d).
//!
//! The model captures the trade-off the paper's JVM policy exploits
//! (implemented there in ~30 lines against IBM J9's JMX API): shrinking
//! the heap raises garbage-collection overhead — GC cost grows as
//! `live / (heap − live)` — but avoids fetching pages from the swap
//! device, which is far worse. The deflation-aware JVM therefore sets its
//! maximum heap to the actual physical memory availability; the
//! unmodified JVM keeps its configured heap and swaps.

use deflate_core::{ApplicationAgent, ReclaimResult, ResourceKind, ResourceVector};
use hypervisor::guest::VmState;
use hypervisor::VmResourceView;
use simkit::{SimDuration, SimTime};

use crate::utility::lhp_penalty;

/// Configuration of the JVM application (SpecJBB-like, fixed injection
/// rate, response time as the metric).
#[derive(Debug, Clone, Copy)]
pub struct JvmParams {
    /// Live object set (MiB): the heap can never shrink below this.
    pub live_set_mb: f64,
    /// Configured maximum heap (MiB).
    pub max_heap_mb: f64,
    /// Non-heap process + guest overhead (MiB).
    pub overhead_mb: f64,
    /// Response time at full resources (µs).
    pub base_response_us: f64,
    /// GC overhead coefficient: overhead = coef · live/(heap − live).
    pub gc_coef: f64,
    /// Penalty per swapped fraction of the heap (dominates GC cost).
    pub swap_coef: f64,
    /// vCPUs needed for the fixed injection rate.
    pub needed_vcpus: f64,
    /// Headroom factor: the agent keeps heap ≥ live · headroom.
    pub min_heap_headroom: f64,
}

impl Default for JvmParams {
    fn default() -> Self {
        JvmParams {
            live_set_mb: 3_072.0,
            max_heap_mb: 12_288.0,
            overhead_mb: 1_024.0,
            base_response_us: 500.0,
            gc_coef: 0.08,
            swap_coef: 12.0,
            needed_vcpus: 2.5,
            min_heap_headroom: 1.15,
        }
    }
}

/// The JVM application model, and its own deflation agent (Table 1:
/// trigger GC and lower the max heap so the resident set fits in the
/// deflated memory; other resources are left to VM-level deflation, per
/// the paper's policy).
#[derive(Debug)]
pub struct JvmApp {
    params: JvmParams,
    heap_mb: f64,
    gc_triggers: u64,
}

impl JvmApp {
    /// Creates a JVM with the heap at its configured maximum.
    pub fn new(params: JvmParams) -> Self {
        JvmApp {
            params,
            heap_mb: params.max_heap_mb,
            gc_triggers: 0,
        }
    }

    /// The configuration.
    pub fn params(&self) -> &JvmParams {
        &self.params
    }

    /// Current maximum heap size (MiB).
    pub fn heap_mb(&self) -> f64 {
        self.heap_mb
    }

    /// Number of GC passes the agent has triggered.
    pub fn gc_triggers(&self) -> u64 {
        self.gc_triggers
    }

    /// Smallest heap the agent will shrink to.
    pub fn min_heap_mb(&self) -> f64 {
        self.params.live_set_mb * self.params.min_heap_headroom
    }

    /// Sets the VM's application usage to this JVM's RSS.
    pub fn init_usage(&self, st: &mut VmState) {
        st.usage.memory_mb = self.heap_mb + self.params.overhead_mb;
        st.usage.busy_vcpus = self.params.needed_vcpus;
        st.recompute_swap();
    }

    /// Keeps the VM's memory usage equal to the JVM's RSS.
    fn sync_usage(&self, st: &mut VmState) {
        st.usage.memory_mb = self.heap_mb + self.params.overhead_mb;
        st.recompute_swap();
    }

    /// GC pass duration for shrinking by `freed` MiB: a full collection
    /// plus copying costs proportional to the live set.
    fn gc_latency(&self, freed: f64) -> SimDuration {
        let base = SimDuration::from_millis(500);
        base + SimDuration::from_secs_f64(freed / 8_000.0)
    }

    /// GC overhead factor (≥ 0) for a given heap size.
    pub fn gc_overhead(&self, heap_mb: f64) -> f64 {
        let p = &self.params;
        let slack = (heap_mb - p.live_set_mb).max(p.live_set_mb * 0.02);
        p.gc_coef * p.live_set_mb / slack
    }

    /// Mean transaction response time (µs) under the given view.
    pub fn response_time_us(&self, view: &VmResourceView) -> f64 {
        let p = &self.params;
        if view.oom {
            return f64::INFINITY;
        }
        let heap = self.heap_mb;
        let gc = self.gc_overhead(heap);

        // Swap penalty: fraction of the heap that is host-swapped.
        let swapped_frac = (view.swapped_mb / heap).clamp(0.0, 1.0);
        let swap = p.swap_coef * swapped_frac;

        let eff_cpu = view.effective.get(ResourceKind::Cpu);
        let cpu_factor = (eff_cpu / p.needed_vcpus).clamp(1e-3, 1.0);
        let lhp = lhp_penalty(view.cpu_overcommit_ratio);

        p.base_response_us * (1.0 + gc) * (1.0 + swap) * lhp / cpu_factor
    }

    /// Normalized performance (base response time over current). A
    /// degenerate configuration (zero base response time) yields 0.0
    /// rather than NaN.
    pub fn normalized_perf(&self, view: &VmResourceView) -> f64 {
        let base = self.params.base_response_us * (1.0 + self.gc_overhead(self.params.max_heap_mb));
        let rt = self.response_time_us(view);
        if base <= 0.0 || !rt.is_finite() || rt <= 0.0 {
            0.0
        } else {
            (base / rt).min(1.0)
        }
    }

    /// Working-set floor hint for distress-aware deflation: the smallest
    /// memory footprint (MiB) at which the JVM still runs without
    /// swapping — minimum heap plus non-heap overhead.
    pub fn distress_floor_mb(&self) -> f64 {
        self.min_heap_mb() + self.params.overhead_mb
    }
}

impl ApplicationAgent<VmState> for JvmApp {
    fn self_deflate(
        &mut self,
        st: &mut VmState,
        _now: SimTime,
        target: &ResourceVector,
    ) -> ReclaimResult {
        let want = target.get(ResourceKind::Memory);
        if want <= 0.0 {
            return ReclaimResult::NOTHING;
        }
        // The paper's policy: "set the max heap size to the actual
        // physical memory availability to avoid swapping". The agent only
        // shrinks when the post-deflation availability demands it.
        let effective_mem = st.effective_memory_mb();
        let p = self.params;
        let min_heap = p.live_set_mb * p.min_heap_headroom;
        let future_available = (effective_mem - want).max(0.0);
        let desired = (future_available - p.overhead_mb).clamp(min_heap, p.max_heap_mb);
        let new_heap = desired.min(self.heap_mb);
        let freed = self.heap_mb - new_heap;
        if freed > 0.0 {
            self.heap_mb = new_heap;
            self.gc_triggers += 1;
        }
        self.sync_usage(st);
        if freed <= 0.0 {
            return ReclaimResult::NOTHING;
        }
        ReclaimResult::new(ResourceVector::memory(freed), self.gc_latency(freed))
    }

    fn reinflate(&mut self, st: &mut VmState, _now: SimTime, available: &ResourceVector) {
        let extra = available.get(ResourceKind::Memory);
        if extra <= 0.0 {
            return;
        }
        self.heap_mb = (self.heap_mb + extra).min(self.params.max_heap_mb);
        self.sync_usage(st);
    }

    fn name(&self) -> &str {
        "jvm"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::{CascadeConfig, VmId};
    use hypervisor::{Vm, VmPriority};

    fn vm_spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
    }

    fn plain_vm(app: &JvmApp) -> Vm {
        let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
        app.init_usage(vm.state_mut());
        vm
    }

    #[test]
    fn baseline_response_time() {
        let app = JvmApp::new(JvmParams::default());
        let vm = plain_vm(&app);
        let rt = app.response_time_us(&vm.view());
        // Base 500 µs plus a small GC overhead at full heap.
        assert!(rt > 500.0 && rt < 600.0, "rt {rt}");
        assert!(app.normalized_perf(&vm.view()) > 0.99);
    }

    #[test]
    fn gc_overhead_explodes_near_live_set() {
        let app = JvmApp::new(JvmParams::default());
        let roomy = app.gc_overhead(12_288.0);
        let tight = app.gc_overhead(4_300.0);
        assert!(tight > 5.0 * roomy, "tight {tight} roomy {roomy}");
    }

    #[test]
    fn unmodified_swaps_and_degrades() {
        let app = JvmApp::new(JvmParams::default());
        let mut vm = plain_vm(&app);
        let base = app.response_time_us(&vm.view());
        // Deflate memory by 50 %: heap stays, pages swap.
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            &CascadeConfig::VM_LEVEL,
            None,
        );
        let rt = app.response_time_us(&vm.view());
        assert!(vm.view().swapped_mb > 4_000.0);
        assert!(rt > 4.0 * base, "rt {rt} base {base}");
    }

    #[test]
    fn aware_jvm_beats_unmodified_at_high_deflation() {
        let deflation = ResourceVector::memory(8_192.0);

        let unmod = JvmApp::new(JvmParams::default());
        let mut vm_u = plain_vm(&unmod);
        let _ = vm_u.deflate(SimTime::ZERO, &deflation, &CascadeConfig::VM_LEVEL, None);
        let rt_u = unmod.response_time_us(&vm_u.view());

        let mut aware = JvmApp::new(JvmParams::default());
        let mut vm_a = plain_vm(&aware);
        let _ = vm_a.deflate(
            SimTime::ZERO,
            &deflation,
            &CascadeConfig::FULL,
            Some(&mut aware),
        );
        let rt_a = aware.response_time_us(&vm_a.view());

        assert!(
            rt_a < rt_u,
            "aware JVM should respond faster: {rt_a} vs {rt_u}"
        );
        assert!(vm_a.view().swapped_mb < 100.0, "aware JVM should not swap");
        assert!(aware.gc_triggers() >= 1);
        // Heap was shrunk toward the available memory.
        assert!(aware.heap_mb() < 12_288.0);
    }

    #[test]
    fn agent_never_shrinks_below_live_headroom() {
        let mut app = JvmApp::new(JvmParams::default());
        let mut vm = plain_vm(&app);
        app.self_deflate(vm.state_mut(), SimTime::ZERO, &ResourceVector::memory(1e9));
        assert!((app.heap_mb() - app.min_heap_mb()).abs() < 1e-6);
        // A second request relinquishes nothing.
        let r = app.self_deflate(
            vm.state_mut(),
            SimTime::ZERO,
            &ResourceVector::memory(1_000.0),
        );
        assert!(r.reclaimed.is_zero());
    }

    #[test]
    fn agent_reinflates_heap() {
        let mut app = JvmApp::new(JvmParams::default());
        let mut vm = plain_vm(&app);
        // 16384 effective − 8192 − 1024 overhead = 7168 target heap.
        app.self_deflate(
            vm.state_mut(),
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
        );
        let shrunk = app.heap_mb();
        assert!((shrunk - 7_168.0).abs() < 1e-6);
        app.reinflate(
            vm.state_mut(),
            SimTime::ZERO,
            &ResourceVector::memory(3_000.0),
        );
        assert!((app.heap_mb() - (shrunk + 3_000.0)).abs() < 1e-6);
        app.reinflate(vm.state_mut(), SimTime::ZERO, &ResourceVector::memory(1e9));
        assert_eq!(app.heap_mb(), 12_288.0);
    }

    #[test]
    fn agent_ignores_requests_it_can_absorb() {
        // Mild deflation leaves plenty of availability: the agent keeps
        // its heap and lets the lower layers reclaim free memory.
        let mut app = JvmApp::new(JvmParams::default());
        let mut vm = plain_vm(&app);
        let r = app.self_deflate(
            vm.state_mut(),
            SimTime::ZERO,
            &ResourceVector::memory(1_638.0),
        );
        assert!(r.reclaimed.is_zero());
        assert_eq!(app.heap_mb(), 12_288.0);
    }

    #[test]
    fn zero_base_response_is_zero_perf_not_nan() {
        let app = JvmApp::new(JvmParams {
            base_response_us: 0.0,
            ..JvmParams::default()
        });
        let vm = plain_vm(&app);
        let perf = app.normalized_perf(&vm.view());
        assert!(!perf.is_nan());
        assert_eq!(perf, 0.0);
    }

    #[test]
    fn distress_floor_covers_min_heap_and_overhead() {
        let app = JvmApp::new(JvmParams::default());
        assert!((app.distress_floor_mb() - (app.min_heap_mb() + 1_024.0)).abs() < 1e-9);
    }

    #[test]
    fn oom_is_infinite_response() {
        let app = JvmApp::new(JvmParams::default());
        let mut vm = plain_vm(&app);
        vm.state_mut().unplugged = ResourceVector::memory(14_000.0);
        assert!(app.response_time_us(&vm.view()).is_infinite());
        assert_eq!(app.normalized_perf(&vm.view()), 0.0);
    }
}
