//! memcached: an in-memory LRU key-value cache model with a
//! cache-resizing deflation agent (paper §4, Fig. 5a/5c).
//!
//! The model captures the effect deflation hinges on: under memory
//! pressure, an *unmodified* memcached keeps its configured cache size and
//! the host swaps the cold tail of the cache — GETs that touch swapped
//! pages become disk-bound and throughput collapses. The *deflation-aware*
//! memcached (the paper's ~500-line modification) instead shrinks its
//! cache with LRU eviction: hit rate drops a little, but every request
//! stays RAM-speed, which is worth up to 6× in successful GET/s at 50 %
//! deflation.
//!
//! Object popularity is Zipf-distributed (YCSB's default, θ ≈ 0.99); the
//! expected hit rate of an LRU cache holding the `k` hottest of `n`
//! objects is the head mass of the Zipf distribution, computed here with
//! the generalized-harmonic approximation so cluster-scale simulations
//! need no per-app CDF tables.

use deflate_core::{ApplicationAgent, ReclaimResult, ResourceKind, ResourceVector};
use hypervisor::guest::VmState;
use hypervisor::VmResourceView;
use simkit::{SimDuration, SimTime};

/// Approximate generalized harmonic number `H_{θ}(k) = Σ_{i=1..k} i^{-θ}`
/// via the integral approximation (exact enough for hit-rate ratios).
fn harmonic(k: f64, theta: f64) -> f64 {
    if k < 1.0 {
        return 0.0;
    }
    if (theta - 1.0).abs() < 1e-9 {
        k.ln() + 0.5772156649
    } else {
        (k.powf(1.0 - theta) - 1.0) / (1.0 - theta) + 1.0
    }
}

/// Expected hit rate of an LRU cache holding the `k` hottest of `n`
/// Zipf(θ)-popular objects.
pub fn zipf_head_mass(k: f64, n: f64, theta: f64) -> f64 {
    if n < 1.0 || k <= 0.0 {
        return 0.0;
    }
    (harmonic(k.min(n), theta) / harmonic(n, theta)).clamp(0.0, 1.0)
}

/// Configuration of the memcached workload and server.
#[derive(Debug, Clone, Copy)]
pub struct MemcachedParams {
    /// Total distinct objects the clients request.
    pub n_objects: f64,
    /// Mean object size (KiB).
    pub object_size_kb: f64,
    /// Zipf popularity skew.
    pub zipf_theta: f64,
    /// Configured maximum cache size (MiB) — what an unmodified server
    /// always keeps resident.
    pub base_cache_mb: f64,
    /// Non-cache process + guest overhead (MiB).
    pub overhead_mb: f64,
    /// Smallest cache the deflation agent will shrink to (MiB).
    pub min_cache_mb: f64,
    /// Peak successful GET throughput with the full cache in RAM
    /// (thousands of GETs per second).
    pub base_kgets: f64,
    /// RAM-resident GET service time (µs).
    pub ram_service_us: f64,
    /// Service time of a GET that faults a swapped page (µs).
    pub swap_service_us: f64,
    /// vCPUs the server needs to sustain `base_kgets`.
    pub needed_vcpus: f64,
    /// Offered load in thousands of GETs/s; `None` means the load
    /// generator saturates the server (the Fig. 5c setup). A finite
    /// offered load (Fig. 5a) makes mild capacity loss invisible until
    /// capacity drops below it.
    pub offered_kgets: Option<f64>,
}

impl Default for MemcachedParams {
    fn default() -> Self {
        MemcachedParams {
            n_objects: 2_000_000.0,
            object_size_kb: 12.0,
            zipf_theta: 0.99,
            base_cache_mb: 12_288.0,
            overhead_mb: 1_024.0,
            min_cache_mb: 512.0,
            base_kgets: 140.0,
            ram_service_us: 20.0,
            swap_service_us: 4_000.0,
            needed_vcpus: 2.0,
            offered_kgets: None,
        }
    }
}

/// The memcached application model, and its own deflation agent
/// (Table 1: LRU object eviction shrinks the cache for memory; other
/// resources are left to VM-level deflation, paper §4).
#[derive(Debug)]
pub struct MemcachedApp {
    params: MemcachedParams,
    cache_mb: f64,
    evictions: u64,
}

impl MemcachedApp {
    /// Creates a server with the given parameters; the cache starts at
    /// its configured maximum.
    pub fn new(params: MemcachedParams) -> Self {
        MemcachedApp {
            params,
            cache_mb: params.base_cache_mb,
            evictions: 0,
        }
    }

    /// The workload/server parameters.
    pub fn params(&self) -> &MemcachedParams {
        &self.params
    }

    /// Current cache size (MiB); shrinks when the agent deflates.
    pub fn cache_mb(&self) -> f64 {
        self.cache_mb
    }

    /// Cumulative LRU evictions performed by the deflation agent.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Sets the VM's application usage to this server's RSS. Call once
    /// after creating the VM (and the model keeps it in sync on agent
    /// actions).
    pub fn init_usage(&self, st: &mut VmState) {
        st.usage.memory_mb = self.rss_mb();
        st.usage.busy_vcpus = self.params.needed_vcpus;
        st.recompute_swap();
    }

    /// The server's resident set (MiB): the cache plus process overhead.
    pub fn rss_mb(&self) -> f64 {
        self.cache_mb + self.params.overhead_mb
    }

    /// Keeps the VM's memory usage equal to the server's RSS.
    fn sync_usage(&self, st: &mut VmState) {
        st.usage.memory_mb = self.rss_mb();
        st.recompute_swap();
    }

    /// Objects resident in a cache of `mb` MiB.
    fn objects_in(&self, mb: f64) -> f64 {
        (mb * 1_024.0 / self.params.object_size_kb).max(0.0)
    }

    /// Expected hit rate for a cache of `mb` MiB, all in RAM.
    pub fn hit_rate(&self, mb: f64) -> f64 {
        zipf_head_mass(
            self.objects_in(mb),
            self.params.n_objects,
            self.params.zipf_theta,
        )
    }

    /// Successful GETs (cache hits) per second, in thousands, under the
    /// given VM resource view.
    ///
    /// The swapped portion of the cache (reported by the hypervisor
    /// model) holds the coldest objects; GETs touching them pay the swap
    /// service time, which also drags total throughput down.
    pub fn throughput_kgets(&self, view: &VmResourceView) -> f64 {
        if view.oom {
            // The guest OOM killer terminated the server (paper Fig. 5a,
            // OS-only deflation past the free-memory headroom).
            return 0.0;
        }
        let p = &self.params;
        let cache = self.cache_mb;

        // How much of the cache is swap-resident.
        let swapped_cache = view.swapped_mb.min(cache);
        let ram_cache = cache - swapped_cache;

        let hit_total = self.hit_rate(cache);
        let hit_ram = self.hit_rate(ram_cache);
        let hit_swap = (hit_total - hit_ram).max(0.0);
        let miss = 1.0 - hit_total;

        // Closed-loop throughput scales inversely with mean service time.
        let mean_service =
            hit_ram * p.ram_service_us + hit_swap * p.swap_service_us + miss * p.ram_service_us;
        let service_factor = p.ram_service_us / mean_service;

        // CPU: throttled cores slow request processing; lock-holder
        // preemption adds overhead when vCPUs are multiplexed.
        let eff_cpu = view.effective.get(ResourceKind::Cpu);
        let cpu_factor = (eff_cpu / p.needed_vcpus).min(1.0)
            / crate::utility::lhp_penalty(view.cpu_overcommit_ratio);

        // Successful GETs only (hits); a finite offered load caps the
        // request rate before the hit-rate multiplier.
        let mut rate = p.base_kgets * service_factor * cpu_factor;
        if let Some(offered) = p.offered_kgets {
            rate = rate.min(offered);
        }
        rate * hit_total
    }

    /// Normalized performance (1.0 = undeflated).
    pub fn normalized_perf(&self, view: &VmResourceView) -> f64 {
        let peak = self
            .params
            .offered_kgets
            .map_or(self.params.base_kgets, |o| o.min(self.params.base_kgets));
        let base = peak * self.hit_rate(self.params.base_cache_mb);
        if base <= 0.0 {
            0.0
        } else {
            self.throughput_kgets(view) / base
        }
    }

    /// Working-set floor hint for distress-aware deflation: the smallest
    /// memory footprint (MiB) the server can be squeezed to — minimum
    /// cache plus process overhead.
    pub fn distress_floor_mb(&self) -> f64 {
        self.params.min_cache_mb + self.params.overhead_mb
    }
}

impl ApplicationAgent<VmState> for MemcachedApp {
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
        // The paper's policy: "dynamically adjusts the maximum cache size
        // based on the memory availability inside the VM" — the cache only
        // shrinks when the post-deflation availability demands it; free
        // guest memory is left for the OS layer to unplug.
        let effective_mem = st.effective_memory_mb();
        let p = self.params;
        let future_available = (effective_mem - want).max(0.0);
        let desired = (future_available - p.overhead_mb).clamp(p.min_cache_mb, p.base_cache_mb);
        let new_cache = desired.min(self.cache_mb);
        let freed = self.cache_mb - new_cache;
        if freed > 0.0 {
            self.evictions += (freed * 1_024.0 / p.object_size_kb) as u64;
            self.cache_mb = new_cache;
        }
        self.sync_usage(st);
        // LRU eviction walks the hash chains and frees slabs: fast, but
        // not free at tens of GB.
        let latency = SimDuration::from_secs_f64(freed / 5_000.0);
        ReclaimResult::new(ResourceVector::memory(freed), latency)
    }

    fn reinflate(&mut self, st: &mut VmState, _now: SimTime, available: &ResourceVector) {
        let extra = available.get(ResourceKind::Memory);
        if extra <= 0.0 {
            return;
        }
        self.cache_mb = (self.cache_mb + extra).min(self.params.base_cache_mb);
        self.sync_usage(st);
    }

    fn name(&self) -> &str {
        "memcached"
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

    fn setup(app: &MemcachedApp) -> Vm {
        let mut vm = Vm::new(VmId(1), vm_spec(), VmPriority::Low);
        app.init_usage(vm.state_mut());
        vm
    }

    #[test]
    fn zipf_head_mass_sane() {
        assert_eq!(zipf_head_mass(0.0, 100.0, 0.99), 0.0);
        assert!((zipf_head_mass(100.0, 100.0, 0.99) - 1.0).abs() < 1e-9);
        let m10 = zipf_head_mass(10.0, 100.0, 0.99);
        let m50 = zipf_head_mass(50.0, 100.0, 0.99);
        assert!(m10 > 0.3, "Zipf head should be heavy: {m10}");
        assert!(m50 > m10);
    }

    #[test]
    fn baseline_throughput_at_full_resources() {
        let app = MemcachedApp::new(MemcachedParams::default());
        let vm = setup(&app);
        let t = app.throughput_kgets(&vm.view());
        let hit = app.hit_rate(app.params().base_cache_mb);
        assert!((t - 140.0 * hit).abs() < 10.0);
        assert!(app.normalized_perf(&vm.view()) > 0.99);
    }

    #[test]
    fn zero_baseline_is_zero_perf_not_nan() {
        // A zero peak throughput (or an all-miss cache) makes the
        // normalization baseline zero; the guard must return 0.0, not NaN.
        let app = MemcachedApp::new(MemcachedParams {
            base_kgets: 0.0,
            ..MemcachedParams::default()
        });
        let vm = setup(&app);
        let perf = app.normalized_perf(&vm.view());
        assert!(!perf.is_nan());
        assert_eq!(perf, 0.0);

        let app = MemcachedApp::new(MemcachedParams {
            offered_kgets: Some(0.0),
            ..MemcachedParams::default()
        });
        let vm = setup(&app);
        let perf = app.normalized_perf(&vm.view());
        assert!(!perf.is_nan());
        assert_eq!(perf, 0.0);
    }

    #[test]
    fn distress_floor_covers_min_cache_and_overhead() {
        let app = MemcachedApp::new(MemcachedParams::default());
        assert!((app.distress_floor_mb() - (512.0 + 1_024.0)).abs() < 1e-9);
    }

    #[test]
    fn unmodified_collapses_under_memory_deflation() {
        let app = MemcachedApp::new(MemcachedParams::default());
        let mut vm = setup(&app);
        let base = app.throughput_kgets(&vm.view());
        // Hypervisor-only 50 % memory deflation: cache partly swaps.
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            &CascadeConfig::HYPERVISOR_ONLY,
            None,
        );
        let view = vm.view();
        assert!(view.swapped_mb > 3_000.0, "swapped {}", view.swapped_mb);
        let t = app.throughput_kgets(&view);
        assert!(t < base / 3.0, "expected collapse: {t} vs {base}");
    }

    #[test]
    fn app_deflation_beats_unmodified_by_large_factor() {
        let deflation = ResourceVector::memory(8_192.0); // 50 % of 16 GiB.

        let unmodified = MemcachedApp::new(MemcachedParams::default());
        let mut vm_u = setup(&unmodified);
        let _ = vm_u.deflate(SimTime::ZERO, &deflation, &CascadeConfig::VM_LEVEL, None);
        let t_u = unmodified.throughput_kgets(&vm_u.view());

        let mut aware = MemcachedApp::new(MemcachedParams::default());
        let mut vm_a = setup(&aware);
        let _ = vm_a.deflate(
            SimTime::ZERO,
            &deflation,
            &CascadeConfig::FULL,
            Some(&mut aware),
        );
        let t_a = aware.throughput_kgets(&vm_a.view());

        assert!(
            t_a > 4.0 * t_u,
            "app deflation should win big: aware {t_a} vs unmodified {t_u}"
        );
        // And the aware server keeps most of its baseline throughput.
        assert!(aware.normalized_perf(&vm_a.view()) > 0.5);
        assert!(aware.evictions() > 0);
        // A sliver of blind host swap can remain (the hypervisor layer
        // reclaims the last fragmentation-blocked remainder), but the
        // cache itself stays RAM-resident.
        assert!(vm_a.view().swapped_mb < 100.0);
    }

    #[test]
    fn agent_respects_min_cache() {
        let mut app = MemcachedApp::new(MemcachedParams::default());
        let mut vm = setup(&app);
        let r = app.self_deflate(vm.state_mut(), SimTime::ZERO, &ResourceVector::memory(1e9));
        let freed = r.reclaimed.get(ResourceKind::Memory);
        assert!((freed - (12_288.0 - 512.0)).abs() < 1e-6);
        assert_eq!(app.cache_mb(), 512.0);
    }

    #[test]
    fn agent_reinflates_up_to_base() {
        let mut app = MemcachedApp::new(MemcachedParams::default());
        let mut vm = setup(&app);
        // Availability after losing 6 GiB: 16384 − 6000 − 1024 = 9360.
        app.self_deflate(
            vm.state_mut(),
            SimTime::ZERO,
            &ResourceVector::memory(6_000.0),
        );
        assert!((app.cache_mb() - 9_360.0).abs() < 1e-6);
        app.reinflate(
            vm.state_mut(),
            SimTime::ZERO,
            &ResourceVector::memory(20_000.0),
        );
        assert_eq!(app.cache_mb(), 12_288.0);
    }

    #[test]
    fn agent_ignores_requests_it_can_absorb() {
        // With free headroom in the VM, a small deflation needs no
        // eviction at all: the OS unplugs free memory instead.
        let params = MemcachedParams {
            base_cache_mb: 6_144.0,
            ..MemcachedParams::default()
        };
        let mut app = MemcachedApp::new(params);
        let mut vm = setup(&app);
        let r = app.self_deflate(
            vm.state_mut(),
            SimTime::ZERO,
            &ResourceVector::memory(2_048.0),
        );
        assert!(r.reclaimed.is_zero());
        assert_eq!(app.cache_mb(), 6_144.0);
    }

    #[test]
    fn oom_means_zero_throughput() {
        let app = MemcachedApp::new(MemcachedParams::default());
        let mut vm = setup(&app);
        // Force the guest into OOM by unplugging far past free memory.
        vm.state_mut().unplugged = ResourceVector::memory(14_000.0);
        let view = vm.view();
        assert!(view.oom);
        assert_eq!(app.throughput_kgets(&view), 0.0);
    }

    #[test]
    fn cpu_deflation_also_hurts() {
        let app = MemcachedApp::new(MemcachedParams::default());
        let mut vm = setup(&app);
        let base = app.throughput_kgets(&vm.view());
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(3.0),
            &CascadeConfig::HYPERVISOR_ONLY,
            None,
        );
        let t = app.throughput_kgets(&vm.view());
        assert!(t < base * 0.5, "CPU-starved memcached: {t} vs {base}");
    }
}
