//! The guest-OS model: visible resources, memory accounting, and
//! best-effort hot-plug/unplug (paper §3.2.2).
//!
//! The paper's prototype uses QEMU's agent-based hotplug, which lets the
//! guest kernel execute unplug *best-effort*: operations may partially
//! fail when resources are busy. This model reproduces those failure
//! modes:
//!
//! * vCPUs unplug only in whole units (`⌊unplug_target⌋`), at least one
//!   vCPU always stays online, and pinned vCPUs refuse to unplug;
//! * memory unplug requires assembling contiguous free blocks, so only a
//!   fragmentation-limited fraction of free memory is unpluggable;
//! * a bounded fraction of the page cache can be dropped to free memory;
//! * disks and NICs never unplug ("generally unsafe").

use deflate_core::{GuestOs, ReclaimResult, ResourceKind, ResourceVector};
use simkit::{SimDuration, SimTime};

use crate::latency::LatencyModel;

/// The application's current resource usage inside the guest.
///
/// Application models (the `apps`/`spark` crates) update this as they run
/// and as their deflation agents relinquish resources; the guest and
/// hypervisor layers read it to decide what is free, what must be swapped,
/// and what is safely unpluggable.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AppUsage {
    /// Resident memory demand (MiB).
    pub memory_mb: f64,
    /// Average number of busy vCPUs.
    pub busy_vcpus: f64,
    /// Disk bandwidth in use (MB/s).
    pub disk_mbps: f64,
    /// Network bandwidth in use (MB/s).
    pub net_mbps: f64,
}

/// Counters for guest hot-plug/unplug activity, kept on [`VmState`] so
/// the cluster manager can fold them into its metrics registry when a VM
/// leaves (`vm.hotplug.*` keys).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct HotplugStats {
    /// Unplug operations attempted (one per [`GuestOs::try_unplug`]).
    pub unplug_attempts: u64,
    /// Attempts that reclaimed less than asked (busy or fragmented).
    pub unplug_shortfalls: u64,
    /// Hot-plug (re-add) operations.
    pub plug_ops: u64,
    /// Total vCPUs removed across all unplugs.
    pub cpus_unplugged: f64,
    /// Total memory removed across all unplugs (MiB; includes ballooned).
    pub memory_unplugged_mb: f64,
}

/// The full mutable state of one VM.
///
/// A [`Vm`](crate::Vm) owns its state as a plain field and lends it, as
/// one `&mut VmState`, to each cascade layer in turn: the application
/// agent, the guest model and the hypervisor backend keep no handle to
/// it. A hosted VM's state can therefore change only through
/// [`PhysicalServer::vm_mut`](crate::PhysicalServer::vm_mut) or the
/// server's own deflate and reinflate calls, all of which bump the
/// server's version.
#[derive(Debug)]
pub struct VmState {
    /// Nominal (maximum) resource allocation.
    pub spec: ResourceVector,
    /// Resources removed from the guest via hot-unplug.
    pub unplugged: ResourceVector,
    /// Resources reclaimed via hypervisor overcommitment.
    pub overcommitted: ResourceVector,
    /// Application usage inside the guest.
    pub usage: AppUsage,
    /// Guest page cache (MiB); grows with I/O, shrinks under pressure.
    pub page_cache_mb: f64,
    /// Memory swapped out by the host under direct pressure (the
    /// application's RSS overflowing its effective memory, MiB).
    pub swapped_mb: f64,
    /// Application pages the host swapped *blindly*: black-box memory
    /// reclamation cannot tell free guest pages from used ones and "swaps
    /// application pages to disk, instead of free pages" (§3.1, MiB).
    pub blind_swapped_mb: f64,
    /// Guest memory held by an inflated balloon (MiB); reclaimed like
    /// unplugged memory but still *visible* to the guest.
    pub ballooned_mb: f64,
    /// vCPUs with pinned tasks (refuse to unplug).
    pub pinned_vcpus: u32,
    /// Hot-plug/unplug activity counters.
    pub hotplug: HotplugStats,
}

impl VmState {
    /// Creates state for a freshly-booted VM with the given spec.
    pub fn new(spec: ResourceVector) -> Self {
        VmState {
            spec,
            unplugged: ResourceVector::ZERO,
            overcommitted: ResourceVector::ZERO,
            usage: AppUsage::default(),
            page_cache_mb: 0.0,
            swapped_mb: 0.0,
            blind_swapped_mb: 0.0,
            ballooned_mb: 0.0,
            pinned_vcpus: 0,
            hotplug: HotplugStats::default(),
        }
    }

    /// What the guest OS sees (spec minus unplugged).
    pub fn visible(&self) -> ResourceVector {
        self.spec.saturating_sub(&self.unplugged)
    }

    /// What the application can actually use (visible minus
    /// hypervisor-overcommitted, minus balloon-held memory).
    pub fn effective(&self) -> ResourceVector {
        let e = self.visible().saturating_sub(&self.overcommitted);
        let mem = (e.get(ResourceKind::Memory) - self.ballooned_mb).max(0.0);
        e.with(ResourceKind::Memory, mem)
    }

    /// Online vCPU count (integral).
    pub fn online_vcpus(&self) -> u32 {
        self.visible().get(ResourceKind::Cpu).round() as u32
    }

    /// Memory visible to the guest (MiB).
    pub fn visible_memory_mb(&self) -> f64 {
        self.visible().get(ResourceKind::Memory)
    }

    /// Effective memory after hypervisor limits (MiB).
    pub fn effective_memory_mb(&self) -> f64 {
        self.effective().get(ResourceKind::Memory)
    }

    /// Free guest memory: visible minus application RSS, page cache, and
    /// balloon-held pages.
    pub fn free_memory_mb(&self) -> f64 {
        (self.visible_memory_mb() - self.usage.memory_mb - self.page_cache_mb - self.ballooned_mb)
            .max(0.0)
    }

    /// Whether the guest is out of memory: the application's RSS exceeds
    /// the memory the OS still has (after forced unplug). The guest OOM
    /// killer would terminate the application.
    pub fn is_oom(&self) -> bool {
        self.usage.memory_mb > self.visible_memory_mb() + 1e-9
    }

    /// Recomputes host swap given current limits: the amount of
    /// application RSS that no longer fits in effective memory. The guest
    /// is assumed to drop page cache before anything swaps. Blindly
    /// swapped pages are capped so pressure + blind never exceeds the
    /// application's RSS.
    pub fn recompute_swap(&mut self) {
        let effective = self.effective_memory_mb();
        // Page cache shrinks under pressure before the app swaps.
        let cache_room = (effective - self.usage.memory_mb).max(0.0);
        self.page_cache_mb = self.page_cache_mb.min(cache_room);
        self.swapped_mb = (self.usage.memory_mb - effective).max(0.0);
        self.blind_swapped_mb = self
            .blind_swapped_mb
            .min((self.usage.memory_mb - self.swapped_mb).max(0.0));
    }

    /// All application pages currently on the host swap device (pressure
    /// plus blind reclamation).
    pub fn total_swapped_mb(&self) -> f64 {
        self.swapped_mb + self.blind_swapped_mb
    }

    /// The deflation fraction per dimension: `1 − effective/spec`.
    pub fn deflation_fraction(&self) -> ResourceVector {
        let eff = self.effective().fraction_of(&self.spec);
        eff.map(|_, v| 1.0 - v)
    }

    /// CPU overcommit ratio: online vCPUs per effective physical core
    /// (≥ 1). Drives the lock-holder-preemption penalty in application
    /// models.
    pub fn cpu_overcommit_ratio(&self) -> f64 {
        let online = f64::from(self.online_vcpus());
        let effective = self.effective().get(ResourceKind::Cpu);
        if effective <= 0.0 {
            if online > 0.0 {
                f64::INFINITY
            } else {
                1.0
            }
        } else {
            (online / effective).max(1.0)
        }
    }
}

/// How guest memory is reclaimed at the OS layer.
///
/// The paper uses hot-unplug because it "updates the resource allocation
/// observed by the OS and applications" and avoids the fragmentation
/// issues of ballooning; the balloon driver is provided for the
/// mechanism-comparison ablation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryMechanism {
    /// Offline whole memory blocks: fast, visible to the guest, but
    /// limited by contiguous-block assembly (the fragmentation factor).
    #[default]
    Hotplug,
    /// Inflate a balloon of pinned guest pages: reaches *all* free pages
    /// (no contiguity constraint) but is slower and invisible — the
    /// guest still believes it owns its full allocation.
    Balloon,
}

/// Tunables for the guest-OS hot-unplug model.
#[derive(Debug, Clone, Copy)]
pub struct GuestConfig {
    /// Fraction of free memory that can be assembled into unpluggable
    /// contiguous blocks (fragmentation limit).
    pub frag_factor: f64,
    /// Fraction of the page cache the OS will drop to satisfy an unplug.
    pub droppable_cache: f64,
    /// Unsafe mode: unplug memory even when it is not free, as a forced
    /// OS-only reclamation would. Pushing visible memory below the
    /// application's RSS triggers the guest OOM killer
    /// ([`VmState::is_oom`]) — this reproduces the paper's Fig. 5a
    /// finding that OS-level deflation alone terminates memcached past
    /// ~40 % deflation.
    pub force_unplug: bool,
    /// Guest memory reclamation mechanism.
    pub memory_mechanism: MemoryMechanism,
}

impl Default for GuestConfig {
    fn default() -> Self {
        GuestConfig {
            frag_factor: 0.95,
            droppable_cache: 0.8,
            force_unplug: false,
            memory_mechanism: MemoryMechanism::Hotplug,
        }
    }
}

/// The guest-OS layer of one VM: its configuration and latency model.
/// Implements [`GuestOs`] over the [`VmState`] the caller lends it.
#[derive(Debug)]
pub struct GuestModel {
    cfg: GuestConfig,
    latency: LatencyModel,
}

impl GuestModel {
    /// Creates a guest model.
    pub fn new(cfg: GuestConfig, latency: LatencyModel) -> Self {
        GuestModel { cfg, latency }
    }
}

impl GuestOs<VmState> for GuestModel {
    fn unpluggable(&self, st: &VmState) -> ResourceVector {
        let online = st.online_vcpus();
        let keep = 1u32.max(st.pinned_vcpus);
        let cpus = f64::from(online.saturating_sub(keep));
        let mem = if self.cfg.force_unplug {
            // Unsafe mode: everything but a sliver is "unpluggable", even
            // application-resident memory. This is how a forced OS-only
            // reclamation behaves — and why it can OOM the guest.
            self.cfg.frag_factor * (st.visible_memory_mb() - 256.0).max(0.0)
        } else if self.cfg.memory_mechanism == MemoryMechanism::Balloon {
            // The balloon has no contiguity constraint: every free page
            // plus the droppable cache is reachable.
            st.free_memory_mb() + self.cfg.droppable_cache * st.page_cache_mb
        } else {
            self.cfg.frag_factor * st.free_memory_mb() + self.cfg.droppable_cache * st.page_cache_mb
        };
        // Disk and NIC hot-unplug is unsafe and never offered.
        ResourceVector::new(cpus, mem, 0.0, 0.0)
    }

    fn try_unplug(
        &mut self,
        st: &mut VmState,
        _now: SimTime,
        target: &ResourceVector,
        budget: Option<SimDuration>,
    ) -> ReclaimResult {
        let cap = self.unpluggable(st);
        let mut latency = SimDuration::ZERO;
        let mut got = ResourceVector::ZERO;

        // vCPUs: whole units only, fast.
        let want_cpus = target.get(ResourceKind::Cpu).floor();
        let cpus = want_cpus.min(cap.get(ResourceKind::Cpu)).max(0.0);
        if cpus >= 1.0 {
            let cpu_latency = self.latency.vcpu_unplug(cpus as u32);
            if budget.map(|b| cpu_latency <= b).unwrap_or(true) {
                got.set(ResourceKind::Cpu, cpus);
                latency += cpu_latency;
            }
        }

        // Memory: rate-limited by page migration (hot-unplug) or balloon
        // inflation, capped by the budget.
        let balloon = self.cfg.memory_mechanism == MemoryMechanism::Balloon;
        let want_mem = target
            .get(ResourceKind::Memory)
            .min(cap.get(ResourceKind::Memory));
        if want_mem > 0.0 {
            let mem_budget = budget.map(|b| {
                if b > latency {
                    b - latency
                } else {
                    SimDuration::ZERO
                }
            });
            let mem_possible = mem_budget
                .map(|b| {
                    if balloon {
                        self.latency.balloonable_within(b)
                    } else {
                        self.latency.unpluggable_within(b)
                    }
                })
                .unwrap_or(f64::INFINITY);
            let mem = want_mem.min(mem_possible);
            if mem > 0.0 {
                got.set(ResourceKind::Memory, mem);
                latency += if balloon {
                    self.latency.balloon_inflate(mem)
                } else {
                    self.latency.memory_unplug(mem)
                };

                // Account where the memory came from: free pages first,
                // then dropped page cache.
                let free_reach = if balloon {
                    st.free_memory_mb()
                } else {
                    self.cfg.frag_factor * st.free_memory_mb()
                };
                let from_free = mem.min(free_reach);
                let from_cache = (mem - from_free).max(0.0);
                st.page_cache_mb = (st.page_cache_mb - from_cache).max(0.0);
            }
        }

        if balloon {
            // The balloon holds the memory inside the guest; only CPUs
            // are actually unplugged.
            st.ballooned_mb += got.get(ResourceKind::Memory);
            st.unplugged += got.with(ResourceKind::Memory, 0.0);
        } else {
            st.unplugged += got;
        }
        st.hotplug.unplug_attempts += 1;
        if !got.scale(1.0 + 1e-9).dominates(target) {
            st.hotplug.unplug_shortfalls += 1;
        }
        st.hotplug.cpus_unplugged += got.get(ResourceKind::Cpu);
        st.hotplug.memory_unplugged_mb += got.get(ResourceKind::Memory);
        st.recompute_swap();
        ReclaimResult::new(got, latency)
    }

    fn hot_plug(
        &mut self,
        st: &mut VmState,
        _now: SimTime,
        amount: &ResourceVector,
    ) -> ResourceVector {
        // CPUs plug back in whole units; memory in any amount. A balloon
        // deflates before unplugged memory is re-plugged.
        let cpus = amount
            .get(ResourceKind::Cpu)
            .min(st.unplugged.get(ResourceKind::Cpu))
            .floor();
        let want_mem = amount.get(ResourceKind::Memory);
        let from_balloon = want_mem.min(st.ballooned_mb);
        st.ballooned_mb -= from_balloon;
        let from_unplug = (want_mem - from_balloon).min(st.unplugged.get(ResourceKind::Memory));
        let give = ResourceVector::new(cpus, from_balloon + from_unplug, 0.0, 0.0);
        st.unplugged =
            st.unplugged
                .saturating_sub(&ResourceVector::new(cpus, from_unplug, 0.0, 0.0));
        st.hotplug.plug_ops += 1;
        st.recompute_swap();
        give
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
    }

    fn guest_with_usage(mem_used: f64, cache: f64) -> (GuestModel, VmState) {
        let mut st = VmState::new(spec());
        st.usage.memory_mb = mem_used;
        st.page_cache_mb = cache;
        (
            GuestModel::new(GuestConfig::default(), LatencyModel::default()),
            st,
        )
    }

    #[test]
    fn visible_and_effective_accounting() {
        let mut st = VmState::new(spec());
        st.unplugged = ResourceVector::new(1.0, 2_048.0, 0.0, 0.0);
        st.overcommitted = ResourceVector::new(0.5, 1_024.0, 50.0, 0.0);
        assert_eq!(
            st.visible(),
            ResourceVector::new(3.0, 14_336.0, 200.0, 1_000.0)
        );
        assert_eq!(
            st.effective(),
            ResourceVector::new(2.5, 13_312.0, 150.0, 1_000.0)
        );
        assert_eq!(st.online_vcpus(), 3);
        assert!((st.cpu_overcommit_ratio() - 1.2).abs() < 1e-9);
    }

    #[test]
    fn unpluggable_excludes_last_cpu_and_io() {
        let (g, st) = guest_with_usage(4_096.0, 1_000.0);
        let cap = g.unpluggable(&st);
        assert_eq!(cap.get(ResourceKind::Cpu), 3.0);
        assert_eq!(cap.get(ResourceKind::DiskBw), 0.0);
        assert_eq!(cap.get(ResourceKind::NetBw), 0.0);
        // free = 16384 - 4096 - 1000 = 11288; 0.95*11288 + 0.8*1000.
        let expected = 0.95 * 11_288.0 + 0.8 * 1_000.0;
        assert!((cap.get(ResourceKind::Memory) - expected).abs() < 1e-6);
    }

    #[test]
    fn pinned_vcpus_refuse_unplug() {
        let (g, mut st) = guest_with_usage(0.0, 0.0);
        st.pinned_vcpus = 3;
        assert_eq!(g.unpluggable(&st).get(ResourceKind::Cpu), 1.0);
        st.pinned_vcpus = 6;
        assert_eq!(g.unpluggable(&st).get(ResourceKind::Cpu), 0.0);
    }

    #[test]
    fn unplug_is_integral_for_cpus() {
        let (mut g, mut st) = guest_with_usage(0.0, 0.0);
        let r = g.try_unplug(&mut st, SimTime::ZERO, &ResourceVector::cpu(2.7), None);
        assert_eq!(r.reclaimed.get(ResourceKind::Cpu), 2.0);
        assert_eq!(st.online_vcpus(), 2);
    }

    #[test]
    fn unplug_memory_capped_by_free() {
        let (mut g, mut st) = guest_with_usage(12_288.0, 0.0); // 4 GiB free.
        let r = g.try_unplug(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            None,
        );
        let got = r.reclaimed.get(ResourceKind::Memory);
        assert!((got - 0.95 * 4_096.0).abs() < 1e-6, "got {got}");
        assert!(r.latency > SimDuration::ZERO);
    }

    #[test]
    fn unplug_budget_limits_memory() {
        let (mut g, mut st) = guest_with_usage(0.0, 0.0);
        // 1 s budget at 4000 MB/s => at most 4000 MB.
        let r = g.try_unplug(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::memory(10_000.0),
            Some(SimDuration::from_secs(1)),
        );
        let got = r.reclaimed.get(ResourceKind::Memory);
        assert!((got - 4_000.0).abs() < 1.0, "got {got}");
        assert!(r.latency <= SimDuration::from_secs(1) + SimDuration::from_millis(1));
    }

    #[test]
    fn unplug_drops_page_cache_when_free_insufficient() {
        let (mut g, mut st) = guest_with_usage(15_000.0, 1_000.0);
        // free = 384; frag-capped 364.8; cache droppable 800.
        let r = g.try_unplug(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::memory(1_000.0),
            None,
        );
        let got = r.reclaimed.get(ResourceKind::Memory);
        assert!(got > 900.0, "got {got}");
        assert!(st.page_cache_mb < 1_000.0);
    }

    #[test]
    fn hot_plug_returns_only_what_was_unplugged() {
        let (mut g, mut st) = guest_with_usage(0.0, 0.0);
        g.try_unplug(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::new(2.0, 4_096.0, 0.0, 0.0),
            None,
        );
        let back = g.hot_plug(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::new(3.0, 10_000.0, 0.0, 0.0),
        );
        assert_eq!(back.get(ResourceKind::Cpu), 2.0);
        assert!((back.get(ResourceKind::Memory) - 4_096.0).abs() < 1e-6);
        assert!(st.unplugged.is_zero());
    }

    #[test]
    fn hotplug_stats_track_attempts_and_shortfalls() {
        let (mut g, mut st) = guest_with_usage(12_288.0, 0.0); // 4 GiB free.
                                                               // Asks for more than is unpluggable: counts as a shortfall.
        g.try_unplug(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            None,
        );
        // Fully satisfiable CPU unplug: no shortfall.
        g.try_unplug(&mut st, SimTime::ZERO, &ResourceVector::cpu(2.0), None);
        g.hot_plug(&mut st, SimTime::ZERO, &ResourceVector::cpu(2.0));
        let stats = st.hotplug;
        assert_eq!(stats.unplug_attempts, 2);
        assert_eq!(stats.unplug_shortfalls, 1);
        assert_eq!(stats.plug_ops, 1);
        assert_eq!(stats.cpus_unplugged, 2.0);
        assert!(stats.memory_unplugged_mb > 0.0);
    }

    #[test]
    fn recompute_swap_drops_cache_first() {
        let mut st = VmState::new(spec());
        st.usage.memory_mb = 10_000.0;
        st.page_cache_mb = 4_000.0;
        st.overcommitted = ResourceVector::memory(8_192.0); // Effective 8192.
        st.recompute_swap();
        // Cache squeezed to 0 (10 000 used > 8 192 effective)…
        assert_eq!(st.page_cache_mb, 0.0);
        // …and the overflow of RSS swaps.
        assert!((st.swapped_mb - (10_000.0 - 8_192.0)).abs() < 1e-6);
    }

    #[test]
    fn deflation_fraction_tracks_effective() {
        let mut st = VmState::new(spec());
        st.overcommitted = ResourceVector::new(2.0, 8_192.0, 100.0, 500.0);
        let f = st.deflation_fraction();
        for k in ResourceKind::ALL {
            assert!((f.get(k) - 0.5).abs() < 1e-9, "{k}: {}", f.get(k));
        }
    }

    #[test]
    fn balloon_reclaims_without_resizing_guest() {
        let mut st = VmState::new(spec());
        st.usage.memory_mb = 6_144.0;
        let cfg = GuestConfig {
            memory_mechanism: MemoryMechanism::Balloon,
            ..GuestConfig::default()
        };
        let mut g = GuestModel::new(cfg, LatencyModel::default());
        let r = g.try_unplug(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            None,
        );
        assert!((r.reclaimed.get(ResourceKind::Memory) - 8_192.0).abs() < 1e-6);
        // The guest still sees its full allocation…
        assert_eq!(st.visible_memory_mb(), 16_384.0);
        // …but the effective memory shrank.
        assert!((st.effective_memory_mb() - 8_192.0).abs() < 1e-6);
        assert!((st.ballooned_mb - 8_192.0).abs() < 1e-6);
    }

    #[test]
    fn balloon_reaches_all_free_but_slower() {
        let mk = |mech| {
            let mut st = VmState::new(spec());
            st.usage.memory_mb = 6_144.0;
            let cfg = GuestConfig {
                memory_mechanism: mech,
                ..GuestConfig::default()
            };
            (GuestModel::new(cfg, LatencyModel::default()), st)
        };
        let (mut hot, mut st_hot) = mk(MemoryMechanism::Hotplug);
        let (mut bal, mut st_bal) = mk(MemoryMechanism::Balloon);
        // free = 10 240: balloon reaches all of it, hotplug only the
        // fragmentation-limited share.
        assert!(
            bal.unpluggable(&st_bal).get(ResourceKind::Memory)
                > hot.unpluggable(&st_hot).get(ResourceKind::Memory)
        );
        // Same amount takes longer via the balloon.
        let target = ResourceVector::memory(4_096.0);
        let rh = hot.try_unplug(&mut st_hot, SimTime::ZERO, &target, None);
        let rb = bal.try_unplug(&mut st_bal, SimTime::ZERO, &target, None);
        assert!(rb.latency > rh.latency);
    }

    #[test]
    fn balloon_deflates_on_hot_plug() {
        let mut st = VmState::new(spec());
        let cfg = GuestConfig {
            memory_mechanism: MemoryMechanism::Balloon,
            ..GuestConfig::default()
        };
        let mut g = GuestModel::new(cfg, LatencyModel::default());
        g.try_unplug(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::memory(6_000.0),
            None,
        );
        let back = g.hot_plug(&mut st, SimTime::ZERO, &ResourceVector::memory(10_000.0));
        assert!((back.get(ResourceKind::Memory) - 6_000.0).abs() < 1e-6);
        assert_eq!(st.ballooned_mb, 0.0);
    }

    #[test]
    fn zero_effective_cpu_ratio_is_infinite() {
        let mut st = VmState::new(spec());
        st.overcommitted = ResourceVector::cpu(4.0);
        assert!(st.cpu_overcommit_ratio().is_infinite());
    }
}
