//! A deflatable virtual machine: its guest state, plus the configuration
//! of the guest and hypervisor layers that deflate it.

use deflate_core::{
    cascade, ApplicationAgent, CascadeConfig, CascadeOutcome, ResourceVector, VmId,
};
use simkit::SimTime;

use crate::backend::HvBackend;
use crate::guest::{GuestConfig, GuestModel, VmState};
use crate::latency::LatencyModel;

/// Scheduling class of a VM (paper §2.1): high-priority VMs are never
/// deflated or preempted; low-priority (transient) VMs are deflatable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmPriority {
    /// Non-deflatable, non-preemptible.
    High,
    /// Deflatable transient VM.
    Low,
}

/// A point-in-time view of a VM's resources, consumed by application
/// performance models.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmResourceView {
    /// Nominal allocation.
    pub spec: ResourceVector,
    /// What the guest OS sees (after hot-unplug).
    pub visible: ResourceVector,
    /// What the application can actually use (after overcommitment).
    pub effective: ResourceVector,
    /// Online vCPUs.
    pub online_vcpus: u32,
    /// vCPUs per effective core (≥ 1); >1 means the hypervisor is
    /// time-multiplexing vCPUs and lock-holder preemption can occur.
    pub cpu_overcommit_ratio: f64,
    /// Host-swapped memory (MiB).
    pub swapped_mb: f64,
    /// Whether the guest is out of memory (forced unplug pushed visible
    /// memory below the application's RSS); the app would be OOM-killed.
    pub oom: bool,
    /// Deflation fraction per dimension (`1 − effective/spec`).
    pub deflation: ResourceVector,
}

/// A deflatable VM.
///
/// The VM owns its [`VmState`]. Reading it needs `&Vm` and changing it
/// needs `&mut Vm`, so the state of a VM hosted on a
/// [`PhysicalServer`](crate::PhysicalServer) can change only through
/// `&mut PhysicalServer`, which bumps the server's version. An
/// application deflation agent is not part of the VM: callers that
/// model one lend it to [`deflate`](Self::deflate) and
/// [`reinflate`](Self::reinflate).
///
/// Reaching a hosted guest's state through `&PhysicalServer` gives
/// read-only access:
///
/// ```compile_fail,E0596
/// use deflate_core::{ResourceVector, ServerId, VmId};
/// use hypervisor::{PhysicalServer, Vm, VmPriority};
///
/// let mut server = PhysicalServer::new(ServerId(0), ResourceVector::new(8.0, 32_768.0, 400.0, 2_000.0));
/// server.add_vm(Vm::new(VmId(1), ResourceVector::new(2.0, 4_096.0, 100.0, 500.0), VmPriority::Low));
/// let shared: &PhysicalServer = &server;
/// shared.vm(VmId(1)).unwrap().state_mut().usage.memory_mb = 1_024.0;
/// ```
///
/// and a view of the state cannot outlive a mutable borrow of its server:
///
/// ```compile_fail,E0502
/// use deflate_core::{ResourceVector, ServerId, VmId};
/// use hypervisor::{PhysicalServer, Vm, VmPriority};
///
/// let mut server = PhysicalServer::new(ServerId(0), ResourceVector::new(8.0, 32_768.0, 400.0, 2_000.0));
/// server.add_vm(Vm::new(VmId(1), ResourceVector::new(2.0, 4_096.0, 100.0, 500.0), VmPriority::Low));
/// let state = server.vm(VmId(1)).unwrap().state();
/// server.vm_mut(VmId(1)).unwrap().set_usage(1_024.0, 1.0);
/// assert_eq!(state.usage.memory_mb, 1_024.0);
/// ```
#[derive(Debug)]
pub struct Vm {
    id: VmId,
    priority: VmPriority,
    min: ResourceVector,
    /// Application-reported working-set floor (MiB). Honored only when a
    /// cascade runs with `CascadeConfig::working_set_floor`; unlike `min`
    /// it is advisory, so it never feeds preemption decisions.
    memory_floor_mb: f64,
    state: VmState,
    guest: GuestConfig,
    latency: LatencyModel,
}

impl Vm {
    /// Creates a VM with the default guest/latency models.
    pub fn new(id: VmId, spec: ResourceVector, priority: VmPriority) -> Self {
        Vm::with_models(
            id,
            spec,
            priority,
            GuestConfig::default(),
            LatencyModel::default(),
        )
    }

    /// Creates a VM with explicit guest and latency models.
    pub fn with_models(
        id: VmId,
        spec: ResourceVector,
        priority: VmPriority,
        guest_cfg: GuestConfig,
        latency: LatencyModel,
    ) -> Self {
        Vm {
            id,
            priority,
            min: ResourceVector::ZERO,
            memory_floor_mb: 0.0,
            state: VmState::new(spec),
            guest: guest_cfg,
            latency,
        }
    }

    /// Sets the minimum size below which the VM must be preempted instead
    /// of deflated (§5; defaults to zero).
    pub fn with_min(mut self, min: ResourceVector) -> Self {
        self.min = min;
        self
    }

    /// Sets the application's working-set floor (MiB): the memory footprint
    /// below which the app thrashes or OOMs. Only cascades configured with
    /// `working_set_floor` refuse to cut below it.
    pub fn with_memory_floor(mut self, floor_mb: f64) -> Self {
        self.memory_floor_mb = floor_mb.max(0.0);
        self
    }

    /// The VM's identifier.
    pub fn id(&self) -> VmId {
        self.id
    }

    /// The VM's priority class.
    pub fn priority(&self) -> VmPriority {
        self.priority
    }

    /// The VM's minimum size.
    pub fn min_size(&self) -> ResourceVector {
        self.min
    }

    /// The application's working-set floor (MiB; zero when unset).
    pub fn memory_floor_mb(&self) -> f64 {
        self.memory_floor_mb
    }

    /// The VM's nominal allocation.
    pub fn spec(&self) -> ResourceVector {
        self.state.spec
    }

    /// The VM's current effective allocation.
    pub fn effective(&self) -> ResourceVector {
        self.state.effective()
    }

    /// Whether this VM can be deflated at all.
    pub fn deflatable(&self) -> bool {
        self.priority == VmPriority::Low
    }

    /// How much can still be reclaimed before hitting the minimum size.
    pub fn deflatable_amount(&self) -> ResourceVector {
        if self.deflatable() {
            self.effective().saturating_sub(&self.min)
        } else {
            ResourceVector::ZERO
        }
    }

    /// The guest's state.
    pub fn state(&self) -> &VmState {
        &self.state
    }

    /// The guest's state, mutably, for application models that set their
    /// usage. A hosted VM is reached mutably only through
    /// [`PhysicalServer::vm_mut`](crate::PhysicalServer::vm_mut), which
    /// bumps the server's version.
    pub fn state_mut(&mut self) -> &mut VmState {
        &mut self.state
    }

    /// Snapshot of the guest's hot-plug/unplug counters, for folding into
    /// a metrics registry.
    pub fn hotplug_stats(&self) -> crate::guest::HotplugStats {
        self.state.hotplug
    }

    /// Snapshot of the resource situation for performance models.
    pub fn view(&self) -> VmResourceView {
        let st = &self.state;
        VmResourceView {
            spec: st.spec,
            visible: st.visible(),
            effective: st.effective(),
            online_vcpus: st.online_vcpus(),
            cpu_overcommit_ratio: st.cpu_overcommit_ratio(),
            swapped_mb: st.total_swapped_mb(),
            oom: st.is_oom(),
            deflation: st.deflation_fraction(),
        }
    }

    /// Runs cascade deflation against this VM, asking `app` (the
    /// application's deflation agent, Table 1) first when given.
    ///
    /// High-priority VMs are never deflated; the call returns an outcome
    /// whose shortfall equals the whole target.
    pub fn deflate(
        &mut self,
        now: SimTime,
        target: &ResourceVector,
        cfg: &CascadeConfig,
        app: Option<&mut dyn ApplicationAgent<VmState>>,
    ) -> CascadeOutcome {
        if !self.deflatable() {
            return CascadeOutcome {
                shortfall: *target,
                ..CascadeOutcome::default()
            };
        }
        // Never deflate below the minimum size.
        let mut cap = self.deflatable_amount();
        // Under a working-set-floor cascade, also refuse to cut memory
        // below the application's reported minimum footprint.
        if cfg.working_set_floor && self.memory_floor_mb > 0.0 {
            use deflate_core::ResourceKind::Memory;
            let eff_mem = self.effective().get(Memory);
            let mem_cap = (eff_mem - self.memory_floor_mb).max(0.0);
            if mem_cap < cap.get(Memory) {
                cap.set(Memory, mem_cap);
            }
        }
        let target = target.min(&cap);
        // Backoff jitter draws are per-VM: stamp this VM's identity on a
        // local copy of the config so co-located VMs desynchronize. With
        // jitter off the config is passed through untouched.
        let mut cfg = cfg;
        let stamped;
        if cfg.retry.jitter > 0.0 {
            let mut c = *cfg;
            c.retry = c.retry.for_entity(self.id.0);
            stamped = c;
            cfg = &stamped;
        }
        cascade::deflate_vm(
            now,
            &target,
            &mut self.state,
            app,
            &mut GuestModel::new(self.guest, self.latency),
            &mut HvBackend::new(self.latency),
            cfg,
        )
    }

    /// Returns `amount` of resources to the VM via the reverse cascade,
    /// telling `app` (the application's deflation agent) what came back.
    pub fn reinflate(
        &mut self,
        now: SimTime,
        amount: &ResourceVector,
        app: Option<&mut dyn ApplicationAgent<VmState>>,
    ) -> ResourceVector {
        cascade::reinflate_vm(
            now,
            amount,
            &mut self.state,
            app,
            &mut GuestModel::new(self.guest, self.latency),
            &mut HvBackend::new(self.latency),
        )
    }

    /// Overall deflation fraction of the dominant dimension, for traces.
    pub fn max_deflation(&self) -> f64 {
        self.state.deflation_fraction().max_component()
    }

    /// Convenience: set the application's memory and CPU usage.
    pub fn set_usage(&mut self, memory_mb: f64, busy_vcpus: f64) {
        let st = &mut self.state;
        st.usage.memory_mb = memory_mb;
        st.usage.busy_vcpus = busy_vcpus;
        st.recompute_swap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::ResourceKind;
    use simkit::SimDuration;

    fn spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
    }

    #[test]
    fn high_priority_never_deflates() {
        let mut vm = Vm::new(VmId(1), spec(), VmPriority::High);
        let out = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::FULL,
            None,
        );
        assert!(out.total_reclaimed.is_zero());
        assert_eq!(out.shortfall, ResourceVector::cpu(2.0));
        assert!(vm.deflatable_amount().is_zero());
    }

    #[test]
    fn vm_level_deflation_meets_target() {
        let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
        vm.set_usage(4_096.0, 1.0);
        let target = spec().scale(0.5);
        let out = vm.deflate(SimTime::ZERO, &target, &CascadeConfig::VM_LEVEL, None);
        assert!(out.met_target(), "shortfall {}", out.shortfall);
        let eff = vm.effective();
        assert!(eff.approx_eq(&spec().scale(0.5), 1e-6), "eff {eff}");
    }

    #[test]
    fn deflation_respects_min_size() {
        let min = spec().scale(0.75);
        let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low).with_min(min);
        let out = vm.deflate(
            SimTime::ZERO,
            &spec().scale(0.5),
            &CascadeConfig::VM_LEVEL,
            None,
        );
        // Only 25 % of spec was deflatable.
        assert!(out.total_reclaimed.approx_eq(&spec().scale(0.25), 1e-6));
        assert!(vm.effective().dominates(&min));
    }

    #[test]
    fn working_set_floor_caps_memory_deflation() {
        // Floor at 12 GiB: only 4 GiB of the 8 GiB memory target is
        // reclaimable under a floor-honoring cascade.
        let cfg = CascadeConfig::VM_LEVEL.with_working_set_floor(true);
        let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low).with_memory_floor(12_288.0);
        let out = vm.deflate(SimTime::ZERO, &ResourceVector::memory(8_192.0), &cfg, None);
        assert!(
            vm.effective().get(ResourceKind::Memory) >= 12_288.0 - 1e-6,
            "floor violated: {}",
            vm.effective()
        );
        assert!(out.total_reclaimed.get(ResourceKind::Memory) <= 4_096.0 + 1e-6);

        // Without the flag the floor is advisory and ignored.
        let mut vm = Vm::new(VmId(2), spec(), VmPriority::Low).with_memory_floor(12_288.0);
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            &CascadeConfig::VM_LEVEL,
            None,
        );
        assert!(vm.effective().get(ResourceKind::Memory) <= 8_192.0 + 1e-6);
    }

    #[test]
    fn reinflate_restores_effective() {
        let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
        vm.set_usage(2_048.0, 0.5);
        let target = spec().scale(0.4);
        let _ = vm.deflate(SimTime::ZERO, &target, &CascadeConfig::VM_LEVEL, None);
        let before = vm.effective();
        let got = vm.reinflate(SimTime::from_secs(60), &target, None);
        assert!(got.approx_eq(&target, 1e-6), "got {got}");
        assert!(vm.effective().dominates(&before));
        assert!(vm.effective().approx_eq(&spec(), 1e-6));
        assert!(vm.max_deflation() < 1e-9);
    }

    #[test]
    fn view_reports_overcommit_ratio() {
        let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
        // Hypervisor-only CPU deflation: vCPUs stay online.
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::HYPERVISOR_ONLY,
            None,
        );
        let v = vm.view();
        assert_eq!(v.online_vcpus, 4);
        assert!((v.cpu_overcommit_ratio - 2.0).abs() < 1e-9);
        assert!((v.deflation.get(ResourceKind::Cpu) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn os_level_unplug_reduces_visible() {
        let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
        let _ = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::cpu(2.0),
            &CascadeConfig::OS_ONLY,
            None,
        );
        let v = vm.view();
        assert_eq!(v.online_vcpus, 2);
        assert!((v.cpu_overcommit_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn deflate_latency_reported() {
        let mut vm = Vm::new(VmId(1), spec(), VmPriority::Low);
        vm.set_usage(12_000.0, 2.0);
        let out = vm.deflate(
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            &CascadeConfig::VM_LEVEL,
            None,
        );
        assert!(out.latency > SimDuration::ZERO);
    }
}
