//! Web server cluster member: a thread-pool model with a pool-shrinking
//! deflation agent (paper Table 1: "Web servers — CPU — reduce size of
//! thread pool").
//!
//! A deflated web server shrinks its worker pool to match the reclaimed
//! CPU and relies on the cluster's load balancer to send it less traffic
//! ("serve less traffic from deflated servers", §3.2.1). The model is a
//! simple M/M/c-flavoured capacity model: throughput is linear in worker
//! threads until the effective CPUs saturate.

use deflate_core::{ApplicationAgent, ReclaimResult, ResourceKind, ResourceVector};
use hypervisor::guest::VmState;
use hypervisor::VmResourceView;
use simkit::{SimDuration, SimTime};

use crate::utility::lhp_penalty;

/// Configuration of the web server.
#[derive(Debug, Clone, Copy)]
pub struct WebServerParams {
    /// Configured worker threads at full size.
    pub max_threads: u32,
    /// Threads the agent will never go below (health checks, etc.).
    pub min_threads: u32,
    /// Requests/s one thread sustains when CPU is plentiful (thousands).
    pub kreq_per_thread: f64,
    /// Threads one vCPU can keep busy.
    pub threads_per_vcpu: f64,
    /// Memory per thread (MiB) plus a fixed overhead below.
    pub thread_memory_mb: f64,
    /// Fixed process overhead (MiB).
    pub overhead_mb: f64,
}

impl Default for WebServerParams {
    fn default() -> Self {
        WebServerParams {
            max_threads: 64,
            min_threads: 4,
            kreq_per_thread: 1.5,
            threads_per_vcpu: 16.0,
            thread_memory_mb: 24.0,
            overhead_mb: 512.0,
        }
    }
}

/// The web server application model, and its own deflation agent
/// (Table 1: shrink the worker pool to match the CPU reclamation target
/// and relinquish the CPU it no longer needs).
#[derive(Debug)]
pub struct WebServerApp {
    params: WebServerParams,
    threads: u32,
}

impl WebServerApp {
    /// Creates a server with a full thread pool.
    pub fn new(params: WebServerParams) -> Self {
        WebServerApp {
            params,
            threads: params.max_threads,
        }
    }

    /// The configuration.
    pub fn params(&self) -> &WebServerParams {
        &self.params
    }

    /// Current worker-pool size.
    pub fn threads(&self) -> u32 {
        self.threads
    }

    /// Sets the VM's application usage to the pool's footprint; the
    /// agent keeps it in sync as the pool resizes.
    pub fn init_usage(&self, st: &mut VmState) {
        let p = self.params;
        let threads = f64::from(self.threads);
        st.usage.memory_mb = p.overhead_mb + threads * p.thread_memory_mb;
        st.usage.busy_vcpus = threads / p.threads_per_vcpu;
        st.recompute_swap();
    }

    /// Request throughput in thousands of requests/s under the view.
    pub fn throughput_kreq(&self, view: &VmResourceView) -> f64 {
        if view.oom {
            return 0.0;
        }
        let p = &self.params;
        let threads = f64::from(self.threads);
        let eff_cpu = view.effective.get(ResourceKind::Cpu);
        // Capacity is the lesser of pool size and what the CPUs sustain.
        let effective_threads = threads.min(eff_cpu * p.threads_per_vcpu);
        effective_threads * p.kreq_per_thread / lhp_penalty(view.cpu_overcommit_ratio)
    }

    /// Normalized performance (1.0 = undeflated). A zero-capacity
    /// configuration (no threads, or zero per-thread rate) yields 0.0
    /// rather than NaN.
    pub fn normalized_perf(&self, view: &VmResourceView) -> f64 {
        let p = &self.params;
        let base = f64::from(p.max_threads) * p.kreq_per_thread;
        if base <= 0.0 {
            0.0
        } else {
            (self.throughput_kreq(view) / base).min(1.0)
        }
    }

    /// Working-set floor hint for distress-aware deflation: the minimum
    /// pool plus process overhead (MiB).
    pub fn distress_floor_mb(&self) -> f64 {
        self.params.overhead_mb + f64::from(self.params.min_threads) * self.params.thread_memory_mb
    }
}

impl ApplicationAgent<VmState> for WebServerApp {
    fn self_deflate(
        &mut self,
        st: &mut VmState,
        _now: SimTime,
        target: &ResourceVector,
    ) -> ReclaimResult {
        let want_cpu = target.get(ResourceKind::Cpu);
        if want_cpu <= 0.0 {
            return ReclaimResult::NOTHING;
        }
        let p = self.params;
        let shrink_threads = (want_cpu * p.threads_per_vcpu).floor() as u32;
        let new_threads = self
            .threads
            .saturating_sub(shrink_threads)
            .max(p.min_threads);
        let dropped = self.threads - new_threads;
        self.threads = new_threads;
        let freed_cpu = f64::from(dropped) / p.threads_per_vcpu;
        let freed_mem = f64::from(dropped) * p.thread_memory_mb;
        self.init_usage(st);
        if freed_cpu <= 0.0 {
            return ReclaimResult::NOTHING;
        }
        // Draining in-flight requests takes a moment.
        let freed = ResourceVector::new(freed_cpu, freed_mem, 0.0, 0.0);
        ReclaimResult::new(freed, SimDuration::from_millis(200))
    }

    fn reinflate(&mut self, st: &mut VmState, _now: SimTime, available: &ResourceVector) {
        let extra_cpu = available.get(ResourceKind::Cpu);
        if extra_cpu <= 0.0 {
            return;
        }
        let p = self.params;
        let add = (extra_cpu * p.threads_per_vcpu).floor() as u32;
        self.threads = (self.threads + add).min(p.max_threads);
        self.init_usage(st);
    }

    fn name(&self) -> &str {
        "webserver"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::{CascadeConfig, VmId};
    use hypervisor::{Vm, VmPriority};

    fn vm_spec() -> ResourceVector {
        ResourceVector::new(4.0, 8_192.0, 200.0, 1_000.0)
    }

    fn setup_aware() -> (WebServerApp, Vm) {
        let app = WebServerApp::new(WebServerParams::default());
        let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
        app.init_usage(vm.state_mut());
        (app, vm)
    }

    #[test]
    fn baseline_throughput() {
        let (app, vm) = setup_aware();
        let t = app.throughput_kreq(&vm.view());
        assert!((t - 64.0 * 1.5).abs() < 1e-6, "t {t}");
    }

    #[test]
    fn agent_shrinks_pool_and_relinquishes_cpu() {
        let (mut app, mut vm) = setup_aware();
        let out = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::FULL,
            Some(&mut app),
        );
        assert!(out.met_target());
        // Pool shrank by 2 vCPUs worth of threads.
        assert_eq!(app.threads(), 32);
        assert!((out.app.reclaimed.get(ResourceKind::Cpu) - 2.0).abs() < 1e-9);
        // Throughput halves but there is no LHP penalty (CPU was truly
        // relinquished, not multiplexed).
        let view = vm.view();
        let t = app.throughput_kreq(&view);
        assert!((t - 32.0 * 1.5).abs() < 1.0, "t {t}");
    }

    #[test]
    fn pool_never_below_min() {
        let (mut app, mut vm) = setup_aware();
        app.self_deflate(vm.state_mut(), SimTime::ZERO, &ResourceVector::cpu(100.0));
        assert_eq!(app.threads(), WebServerParams::default().min_threads);
    }

    #[test]
    fn reinflate_regrows_pool() {
        let (mut app, mut vm) = setup_aware();
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::FULL,
            Some(&mut app),
        );
        assert_eq!(app.threads(), 32);
        vm.reinflate(
            SimTime::from_secs(10),
            &ResourceVector::cpu(2.0),
            Some(&mut app),
        );
        assert_eq!(app.threads(), 64);
    }

    #[test]
    fn zero_capacity_is_zero_perf_not_nan() {
        let app = WebServerApp::new(WebServerParams {
            kreq_per_thread: 0.0,
            ..WebServerParams::default()
        });
        let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
        app.init_usage(vm.state_mut());
        let perf = app.normalized_perf(&vm.view());
        assert!(!perf.is_nan());
        assert_eq!(perf, 0.0);
    }

    #[test]
    fn hypervisor_deflation_pays_lhp() {
        // Without the agent, throttling multiplexes the pool's vCPUs.
        let app = WebServerApp::new(WebServerParams::default());
        let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
        app.init_usage(vm.state_mut());
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::HYPERVISOR_ONLY,
            None,
        );
        let t_hv = app.throughput_kreq(&vm.view());

        let (mut app2, mut vm2) = setup_aware();
        let _ = vm2.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::FULL,
            Some(&mut app2),
        );
        let t_app = app2.throughput_kreq(&vm2.view());
        assert!(t_app > t_hv, "app {t_app} hv {t_hv}");
    }
}
