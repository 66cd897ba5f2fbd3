//! The three reclamation layers of cascade deflation.
//!
//! Each software layer exposes its own reclamation mechanisms with its own
//! safety/performance trade-offs (paper §3.1):
//!
//! * **Application** ([`ApplicationAgent`]) — voluntary, best-effort,
//!   application-aware (e.g. memcached LRU eviction, JVM heap shrink,
//!   Spark task termination). May relinquish part, all, or none of the
//!   target.
//! * **Guest OS** ([`GuestOs`]) — hot-unplug of vCPUs and memory. Safe and
//!   cheap for *free* resources, but coarse-grained (integral vCPUs) and
//!   may fail for busy resources.
//! * **Hypervisor** ([`HypervisorControl`]) — overcommitment (CPU shares,
//!   memory limits with host swapping, I/O throttling). Always succeeds
//!   but is a black box to the guest and carries the worst performance
//!   cost (lock-holder preemption, swapping the "wrong" pages).
//!
//! The cascade controller ([`crate::cascade::deflate_vm`]) calls the layers
//! top-down and lets reclamation *fall through* to lower layers when a
//! higher layer declines or fails.

use simkit::{SimDuration, SimTime};

use crate::resources::ResourceVector;

/// The outcome of one layer's reclamation attempt.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReclaimResult {
    /// How much was actually reclaimed (element-wise ≤ the request).
    pub reclaimed: ResourceVector,
    /// How long the mechanism took (simulated).
    pub latency: SimDuration,
}

impl ReclaimResult {
    /// A zero-cost, zero-effect result.
    pub const NOTHING: ReclaimResult = ReclaimResult {
        reclaimed: ResourceVector::ZERO,
        latency: SimDuration::ZERO,
    };

    /// Creates a result.
    pub fn new(reclaimed: ResourceVector, latency: SimDuration) -> Self {
        ReclaimResult { reclaimed, latency }
    }
}

/// Application-level deflation agent (paper §3.2.1, Table 1).
///
/// Implementations correspond to the paper's REST "deflation agents": they
/// receive the deflation vector, apply application-specific mechanisms, and
/// report how much they voluntarily relinquished. Inelastic applications
/// simply return [`ReclaimResult::NOTHING`], which is the paper's default
/// policy of ignoring the request and letting lower layers reclaim.
///
/// All three layer traits act on one VM's state `S`, which the caller
/// owns and lends to each layer in turn; no layer keeps a handle to it.
pub trait ApplicationAgent<S: ?Sized> {
    /// Asks the application to voluntarily relinquish up to `target`.
    ///
    /// Returns the amount the application freed *inside the guest* and the
    /// time the mechanism took (e.g. a GC pass). Freed resources become
    /// unpluggable by the guest OS; whether unplugged or merely left idle
    /// and overcommitted, they count toward the cascade's total once — the
    /// controller credits `max(app, os)`, not the sum (see
    /// [`crate::cascade::deflate_vm`]).
    fn self_deflate(&mut self, vm: &mut S, now: SimTime, target: &ResourceVector) -> ReclaimResult;

    /// Notifies the application that `available` additional resources were
    /// re-inflated into its VM.
    fn reinflate(&mut self, vm: &mut S, now: SimTime, available: &ResourceVector);

    /// A short name for traces.
    fn name(&self) -> &str {
        "app"
    }
}

/// An agent for inelastic applications: ignores every deflation request.
///
/// This is the paper's stated policy for applications without dynamic
/// reclamation mechanisms (synchronous MPI programs, legacy single-VM
/// applications): let the OS and hypervisor handle the deflation.
#[derive(Debug, Default, Clone, Copy)]
pub struct InelasticAgent;

impl<S: ?Sized> ApplicationAgent<S> for InelasticAgent {
    fn self_deflate(
        &mut self,
        _vm: &mut S,
        _now: SimTime,
        _target: &ResourceVector,
    ) -> ReclaimResult {
        ReclaimResult::NOTHING
    }

    fn reinflate(&mut self, _vm: &mut S, _now: SimTime, _available: &ResourceVector) {}

    fn name(&self) -> &str {
        "inelastic"
    }
}

/// Guest-OS level reclamation via resource hot-unplug (paper §3.2.2).
pub trait GuestOs<S: ?Sized> {
    /// Resources the OS believes are safely unpluggable *right now* —
    /// free memory plus anything the application just relinquished, and
    /// idle vCPUs. (`get_system_free()` in the paper's pseudo-code.)
    fn unpluggable(&self, vm: &S) -> ResourceVector;

    /// Attempts to hot-unplug up to `target`, best-effort.
    ///
    /// vCPUs unplug only in whole units and at least one vCPU always
    /// remains; memory unplug can partially fail when contiguous free
    /// blocks cannot be assembled. `budget`, when given, caps the time the
    /// operation may take — the OS reclaims as much as fits.
    fn try_unplug(
        &mut self,
        vm: &mut S,
        now: SimTime,
        target: &ResourceVector,
        budget: Option<SimDuration>,
    ) -> ReclaimResult;

    /// Hot-plugs resources back into the guest; returns the amount
    /// actually added (capped by how much was previously unplugged).
    fn hot_plug(&mut self, vm: &mut S, now: SimTime, amount: &ResourceVector) -> ResourceVector;
}

/// Hypervisor-level reclamation via overcommitment (paper §3.2.3).
pub trait HypervisorControl<S: ?Sized> {
    /// Overcommits `amount` of the VM's resources (CPU-share throttling,
    /// memory limits + host swap, I/O throttling). This is the layer of
    /// last resort: it always reclaims the full amount, at a latency cost
    /// dominated by memory. `budget`, when given, caps the time — the
    /// mechanism reclaims what it can within it.
    fn overcommit(
        &mut self,
        vm: &mut S,
        now: SimTime,
        amount: &ResourceVector,
        budget: Option<SimDuration>,
    ) -> ReclaimResult;

    /// Releases previously-overcommitted resources; returns the amount
    /// actually released (capped by the current overcommitment).
    fn release(&mut self, vm: &mut S, now: SimTime, amount: &ResourceVector) -> ResourceVector;

    /// How much is currently reclaimed through overcommitment.
    fn overcommitted(&self, vm: &S) -> ResourceVector;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inelastic_agent_declines() {
        let mut agent = InelasticAgent;
        let r = agent.self_deflate(&mut (), SimTime::ZERO, &ResourceVector::cpu(2.0));
        assert_eq!(r, ReclaimResult::NOTHING);
        assert_eq!(ApplicationAgent::<()>::name(&agent), "inelastic");
        // Reinflate is a no-op but must not panic.
        agent.reinflate(&mut (), SimTime::ZERO, &ResourceVector::cpu(2.0));
    }

    #[test]
    fn reclaim_result_constructors() {
        let r = ReclaimResult::new(ResourceVector::memory(100.0), SimDuration::from_secs(1));
        assert_eq!(r.reclaimed.get(crate::ResourceKind::Memory), 100.0);
        assert_eq!(r.latency, SimDuration::from_secs(1));
        assert_eq!(ReclaimResult::NOTHING.latency, SimDuration::ZERO);
    }
}
