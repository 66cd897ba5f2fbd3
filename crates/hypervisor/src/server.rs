//! Physical servers and the per-server local deflation controller
//! (paper §5).
//!
//! Each server tracks resource allocation and availability and runs a
//! [`LocalController`] that implements proportional cascade deflation at
//! single-machine granularity: given a resource demand (e.g. a new
//! high-priority VM to place), it deflates all low-priority VMs
//! proportionally — concurrently, so the reclamation latency is the *max*
//! across VMs, not the sum — and preempts VMs only when deflation to
//! minimum sizes still cannot cover the demand.

use std::collections::{BTreeMap, HashMap, HashSet};

use deflate_core::{
    proportional_reinflation, proportional_targets, CascadeConfig, CascadeOutcome, ResourceVector,
    ServerId, VmDeflationState, VmId,
};
use simkit::{SimDuration, SimTime, Span};

use crate::session::ReclaimSession;
use crate::vm::{Vm, VmPriority};

/// Cached resource aggregates over a set of VMs, maintained
/// incrementally so `committed`/`free`/`deflatable`/`overcommitment`
/// queries are O(1) instead of O(VMs).
///
/// [`PhysicalServer`] keeps one per server and updates it on every
/// add/remove/deflate/reinflate; the cluster manager folds per-server
/// deltas into cluster-wide totals the same way. Debug builds
/// cross-verify every update against a full recomputation
/// ([`PhysicalServer::assert_aggregates_consistent`]), which turns the
/// whole test suite into a correctness oracle for this bookkeeping.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ServerAggregates {
    /// Σ effective allocation over all VMs.
    pub committed: ResourceVector,
    /// Σ nominal spec over all VMs.
    pub spec_total: ResourceVector,
    /// Σ nominal spec over low-priority VMs.
    pub low_spec: ResourceVector,
    /// Σ effective allocation over low-priority VMs.
    pub low_effective: ResourceVector,
    /// Σ minimum size over low-priority VMs.
    pub low_min: ResourceVector,
}

/// Applies `after − before` to a running total, clamping float dust at
/// zero (totals are sums of non-negative quantities).
fn shift(total: &mut ResourceVector, before: &ResourceVector, after: &ResourceVector) {
    *total = total.map(|k, v| (v + after.get(k) - before.get(k)).max(0.0));
}

/// Per-dimension tolerance for comparing an incrementally-maintained
/// total against a full recomputation: absolute slack for empty-ish
/// sums plus a relative term for float drift on large ones.
fn approx_tol(a: f64, b: f64) -> f64 {
    1e-6 + 1e-9 * a.abs().max(b.abs())
}

fn vectors_close(a: &ResourceVector, b: &ResourceVector) -> bool {
    deflate_core::ResourceKind::ALL
        .iter()
        .all(|&k| (a.get(k) - b.get(k)).abs() <= approx_tol(a.get(k), b.get(k)))
}

impl ServerAggregates {
    /// Folds one VM into the sums.
    fn absorb(&mut self, vm: &Vm) {
        let eff = vm.effective();
        self.committed += eff;
        self.spec_total += vm.spec();
        if vm.priority() == VmPriority::Low {
            self.low_spec += vm.spec();
            self.low_effective += eff;
            self.low_min += vm.min_size();
        }
    }

    /// Removes one VM from the sums (clamping float dust at zero).
    fn release(&mut self, vm: &Vm) {
        let eff = vm.effective();
        shift(&mut self.committed, &eff, &ResourceVector::ZERO);
        shift(&mut self.spec_total, &vm.spec(), &ResourceVector::ZERO);
        if vm.priority() == VmPriority::Low {
            shift(&mut self.low_spec, &vm.spec(), &ResourceVector::ZERO);
            shift(&mut self.low_effective, &eff, &ResourceVector::ZERO);
            shift(&mut self.low_min, &vm.min_size(), &ResourceVector::ZERO);
        }
    }

    /// Records a change of one VM's effective allocation.
    fn effective_changed(
        &mut self,
        priority: VmPriority,
        before: &ResourceVector,
        after: &ResourceVector,
    ) {
        shift(&mut self.committed, before, after);
        if priority == VmPriority::Low {
            shift(&mut self.low_effective, before, after);
        }
    }

    /// Folds another aggregate's delta (`after − before`) into `self`;
    /// used by the cluster manager to keep cluster-wide running sums.
    pub fn shift_by(&mut self, before: &ServerAggregates, after: &ServerAggregates) {
        shift(&mut self.committed, &before.committed, &after.committed);
        shift(&mut self.spec_total, &before.spec_total, &after.spec_total);
        shift(&mut self.low_spec, &before.low_spec, &after.low_spec);
        shift(
            &mut self.low_effective,
            &before.low_effective,
            &after.low_effective,
        );
        shift(&mut self.low_min, &before.low_min, &after.low_min);
    }

    /// Approximate equality, with slack for incremental float drift.
    pub fn approx_eq(&self, other: &ServerAggregates) -> bool {
        vectors_close(&self.committed, &other.committed)
            && vectors_close(&self.spec_total, &other.spec_total)
            && vectors_close(&self.low_spec, &other.low_spec)
            && vectors_close(&self.low_effective, &other.low_effective)
            && vectors_close(&self.low_min, &other.low_min)
    }
}

/// A physical machine hosting a mix of high- and low-priority VMs.
pub struct PhysicalServer {
    id: ServerId,
    capacity: ResourceVector,
    vms: BTreeMap<VmId, Vm>,
    /// Incrementally-maintained resource sums over `vms`.
    agg: ServerAggregates,
    /// Whether the machine is powered on. A crashed server holds no VMs
    /// and accepts no placements until it recovers.
    up: bool,
    /// Whether the cluster manager can reach the machine. A partitioned
    /// server is still powered on — its VMs keep running and its local
    /// controller keeps acting — but the manager must not place onto it,
    /// so placement treats `up && !connected` like down while capacity
    /// accounting does not.
    connected: bool,
    /// Capacity held for in-flight migrations: subtracted from `free()`
    /// so placement cannot hand the same headroom out twice while a
    /// pre-copy is running. Zero on servers with no inbound migration,
    /// which keeps every reservation-free code path byte-identical
    /// (`x − 0` is exact in floating point).
    reserved: ResourceVector,
    /// Mutation counter, bumped by every operation that can change the
    /// server's free/availability vectors, its up flag or a hosted
    /// guest's state (`add_vm`, `remove_vm`, `deflate_vm`, `reinflate_vm`,
    /// `set_up`, and `vm_mut`, the only way to change a guest's usage).
    /// Caches such as the cluster placement index and the distress
    /// sampler compare this against their stored value to skip untouched
    /// servers. `Vm::state()` still hands out the shared guest state
    /// without a bump, so a caller that mutates through it bypasses the
    /// counter.
    version: u64,
}

impl std::fmt::Debug for PhysicalServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysicalServer")
            .field("id", &self.id)
            .field("capacity", &self.capacity)
            .field("vms", &self.vms.len())
            .finish()
    }
}

impl PhysicalServer {
    /// Creates an empty server.
    pub fn new(id: ServerId, capacity: ResourceVector) -> Self {
        PhysicalServer {
            id,
            capacity,
            vms: BTreeMap::new(),
            agg: ServerAggregates::default(),
            up: true,
            connected: true,
            reserved: ResourceVector::ZERO,
            version: 0,
        }
    }

    /// Whether the machine is powered on (placement skips down servers).
    #[inline]
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Marks the server crashed (`false`) or recovered (`true`). The
    /// caller is responsible for evacuating VMs first; this only flips
    /// the flag.
    pub fn set_up(&mut self, up: bool) {
        if self.up != up {
            self.version += 1;
        }
        self.up = up;
    }

    /// Whether the cluster manager can reach this machine.
    #[inline]
    pub fn is_connected(&self) -> bool {
        self.connected
    }

    /// Marks the manager↔server link partitioned (`false`) or healed
    /// (`true`). Unlike [`set_up`](Self::set_up), VMs stay put — the
    /// machine keeps running under its local controller.
    pub fn set_connected(&mut self, connected: bool) {
        if self.connected != connected {
            self.version += 1;
        }
        self.connected = connected;
    }

    /// Whether the manager may place onto this machine: powered on *and*
    /// reachable. Every placement path filters on this instead of
    /// [`is_up`](Self::is_up), so a partitioned server is excluded from
    /// placement without its capacity being released.
    #[inline]
    pub fn placeable(&self) -> bool {
        self.up && self.connected
    }

    /// The server's mutation counter (see the `version` field). Strictly
    /// monotone: unchanged version ⇒ unchanged placement-relevant state
    /// and unchanged guest usage.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The server's identifier.
    #[inline]
    pub fn id(&self) -> ServerId {
        self.id
    }

    /// Total physical capacity.
    #[inline]
    pub fn capacity(&self) -> ResourceVector {
        self.capacity
    }

    /// Sum of the *effective* allocations of all hosted VMs. O(1): reads
    /// the incrementally-maintained aggregate.
    #[inline]
    pub fn committed(&self) -> ResourceVector {
        self.agg.committed
    }

    /// Free (uncommitted, unreserved) resources.
    #[inline]
    pub fn free(&self) -> ResourceVector {
        self.capacity
            .saturating_sub(&self.agg.committed)
            .saturating_sub(&self.reserved)
    }

    /// Capacity currently held for in-flight migrations.
    #[inline]
    pub fn reserved(&self) -> ResourceVector {
        self.reserved
    }

    /// Holds `amount` of capacity for an inbound migration: `free()`
    /// shrinks by it immediately, so concurrent placement cannot claim
    /// the headroom a pre-copy is running against.
    pub fn reserve(&mut self, amount: &ResourceVector) {
        self.version += 1;
        self.reserved += *amount;
    }

    /// Releases a hold taken by [`reserve`](Self::reserve) (on commit —
    /// just before the VM lands — or on abort). Clamps at zero.
    pub fn release_reservation(&mut self, amount: &ResourceVector) {
        self.version += 1;
        self.reserved = self.reserved.saturating_sub(amount);
        if self.reserved.is_zero() {
            // Exact resync point, like the empty-server aggregate reset:
            // an unreserved server is *exactly* unreserved.
            self.reserved = ResourceVector::ZERO;
        }
    }

    /// Drops every migration hold (server crash: inbound migrations are
    /// aborted and their reservations are meaningless on a down host).
    pub fn clear_reservations(&mut self) {
        if !self.reserved.is_zero() {
            self.version += 1;
            self.reserved = ResourceVector::ZERO;
        }
    }

    /// Resources still reclaimable from low-priority VMs by deflation.
    /// O(1); equals the per-VM sum because deflation never pushes a VM
    /// below its minimum size (debug builds verify both).
    #[inline]
    pub fn deflatable(&self) -> ResourceVector {
        self.agg.low_effective.saturating_sub(&self.agg.low_min)
    }

    /// The paper's availability vector `A_j = Free_j + Deflatable_j`
    /// (Eq. 4), used by placement fitness.
    #[inline]
    pub fn availability(&self) -> ResourceVector {
        self.free() + self.deflatable()
    }

    /// Resources reclaimable by *preempting* low-priority VMs outright
    /// (their full effective allocations) — the availability notion of a
    /// preemption-only cluster manager.
    #[inline]
    pub fn preemptible(&self) -> ResourceVector {
        self.agg.low_effective
    }

    /// Snapshot of the cached aggregates (cheap copy); the cluster
    /// manager diffs snapshots around mutations to maintain cluster-wide
    /// running sums.
    #[inline]
    pub fn aggregates(&self) -> ServerAggregates {
        self.agg
    }

    /// Whether a VM of the given spec could run here after deflation.
    #[inline]
    pub fn fits(&self, spec: &ResourceVector) -> bool {
        self.placeable() && self.availability().dominates(spec)
    }

    /// Nominal overcommitment: `max(0, Σ spec / capacity − 1)` on the
    /// dominant dimension (Fig. 8d's y-axis). O(1).
    #[inline]
    pub fn overcommitment(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for k in deflate_core::ResourceKind::ALL {
            let cap = self.capacity.get(k);
            if cap > 0.0 {
                worst = worst.max(self.agg.spec_total.get(k) / cap);
            }
        }
        (worst - 1.0).max(0.0)
    }

    /// Adds a VM. The caller (the cluster manager) is responsible for
    /// having made room first; this only records the VM.
    pub fn add_vm(&mut self, vm: Vm) {
        self.version += 1;
        self.agg.absorb(&vm);
        let replaced = self.vms.insert(vm.id(), vm);
        debug_assert!(replaced.is_none(), "duplicate VM id added to server");
        self.debug_check();
    }

    /// Removes and returns a VM (shutdown or preemption).
    pub fn remove_vm(&mut self, id: VmId) -> Option<Vm> {
        let vm = self.vms.remove(&id)?;
        self.version += 1;
        self.agg.release(&vm);
        if self.vms.is_empty() {
            // Exact resync point: an empty server has exactly-zero sums,
            // killing any accumulated float drift.
            self.agg = ServerAggregates::default();
        }
        self.debug_check();
        Some(vm)
    }

    /// Runs cascade deflation against one hosted VM, keeping the cached
    /// aggregates in sync with the VM's changed effective allocation.
    /// Returns `None` when the VM is not hosted here.
    pub fn deflate_vm(
        &mut self,
        now: SimTime,
        id: VmId,
        target: &ResourceVector,
        cfg: &CascadeConfig,
    ) -> Option<CascadeOutcome> {
        let vm = self.vms.get_mut(&id)?;
        self.version += 1;
        let priority = vm.priority();
        let before = vm.effective();
        let out = vm.deflate(now, target, cfg);
        let after = vm.effective();
        self.agg.effective_changed(priority, &before, &after);
        self.debug_check();
        Some(out)
    }

    /// Returns resources to one hosted VM via the reverse cascade,
    /// keeping the cached aggregates in sync. Returns `None` when the VM
    /// is not hosted here.
    pub fn reinflate_vm(
        &mut self,
        now: SimTime,
        id: VmId,
        amount: &ResourceVector,
    ) -> Option<ResourceVector> {
        let vm = self.vms.get_mut(&id)?;
        self.version += 1;
        let priority = vm.priority();
        let before = vm.effective();
        let got = vm.reinflate(now, amount);
        let after = vm.effective();
        self.agg.effective_changed(priority, &before, &after);
        self.debug_check();
        Some(got)
    }

    /// Looks up a VM.
    pub fn vm(&self, id: VmId) -> Option<&Vm> {
        self.vms.get(&id)
    }

    /// Looks up a VM mutably, bumping the version: the caller may change
    /// the guest's usage, which caches keyed on the version must see.
    ///
    /// Mutations that change the VM's *effective allocation* must go
    /// through [`deflate_vm`](Self::deflate_vm) /
    /// [`reinflate_vm`](Self::reinflate_vm) instead, or the cached
    /// aggregates desync (debug builds catch this on the next mutation).
    /// Direct access is fine for usage/pinning updates.
    pub fn vm_mut(&mut self, id: VmId) -> Option<&mut Vm> {
        let vm = self.vms.get_mut(&id)?;
        self.version += 1;
        Some(vm)
    }

    /// Recomputes the aggregates from scratch (O(VMs)); the oracle the
    /// incremental bookkeeping is checked against.
    fn recompute_aggregates(&self) -> ServerAggregates {
        let mut agg = ServerAggregates::default();
        for vm in self.vms.values() {
            agg.absorb(vm);
        }
        agg
    }

    /// Panics when the incremental aggregates disagree with a full
    /// recomputation, or when a low-priority VM sits below its minimum
    /// size (which would break the O(1) `deflatable` derivation).
    /// Debug builds call this after every mutation; tests may call it
    /// explicitly in release builds too.
    pub fn assert_aggregates_consistent(&self) {
        let fresh = self.recompute_aggregates();
        assert!(
            self.agg.approx_eq(&fresh),
            "server {} aggregate desync:\n  cached   {:?}\n  recomputed {:?}",
            self.id,
            self.agg,
            fresh
        );
        for vm in self.vms.values() {
            if vm.priority() == VmPriority::Low {
                assert!(
                    vm.effective().dominates(&vm.min_size()),
                    "VM {} deflated below its minimum: effective {} < min {}",
                    vm.id(),
                    vm.effective(),
                    vm.min_size()
                );
            }
        }
    }

    #[inline]
    fn debug_check(&self) {
        #[cfg(debug_assertions)]
        self.assert_aggregates_consistent();
    }

    /// Iterates over hosted VMs.
    pub fn vms(&self) -> impl Iterator<Item = &Vm> {
        self.vms.values()
    }

    /// Number of hosted VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// Ids of low-priority VMs.
    pub fn low_priority_ids(&self) -> Vec<VmId> {
        let mut out = Vec::new();
        self.low_priority_ids_into(&mut out);
        out
    }

    /// Appends the ids of low-priority VMs to a caller-owned buffer, in
    /// id order. The cluster manager's launch path runs this on every
    /// reclaiming placement, so it recycles one buffer instead of
    /// allocating a fresh `Vec` per event.
    pub fn low_priority_ids_into(&self, out: &mut Vec<VmId>) {
        out.extend(
            self.vms
                .values()
                .filter(|vm| vm.priority() == VmPriority::Low)
                .map(|vm| vm.id()),
        );
    }
}

/// The outcome of one `make_room` invocation.
#[derive(Debug, Default)]
pub struct ReclaimReport {
    /// Resources freed by deflation (plus preemptions).
    pub freed: ResourceVector,
    /// Reclamation latency: VM deflations run concurrently, so this is
    /// the maximum per-VM cascade latency.
    pub latency: SimDuration,
    /// Per-VM cascade outcomes.
    pub outcomes: Vec<(VmId, CascadeOutcome)>,
    /// VMs preempted because deflation could not cover the demand.
    pub preempted: Vec<VmId>,
    /// Nonzero reinflation grants handed out during the session.
    pub reinflated: Vec<(VmId, ResourceVector)>,
    /// Whether the demand is now satisfiable from free resources.
    pub satisfied: bool,
}

impl ReclaimReport {
    /// Builds a structured `server.make_room` trace span: one
    /// `cascade.deflate` child (with its per-layer payload) per deflated
    /// VM, and one `server.preempt` child per preempted VM.
    pub fn to_span(&self, at: SimTime, server: ServerId) -> Span {
        make_room_span(
            at,
            server,
            self.latency,
            self.satisfied,
            &self.freed,
            &self.outcomes,
            &self.preempted,
        )
    }
}

/// The `server.make_room` span of one reclamation on `server`, built
/// from the parts of a [`ReclaimReport`] it shows. A trace that stores
/// those parts renders the same span on read.
pub fn make_room_span(
    at: SimTime,
    server: ServerId,
    latency: SimDuration,
    satisfied: bool,
    freed: &ResourceVector,
    outcomes: &[(VmId, CascadeOutcome)],
    preempted: &[VmId],
) -> Span {
    let mut span = Span::new("server.make_room", at)
        .with_duration(latency)
        .with_attr("server", server.0)
        .with_attr("satisfied", satisfied)
        .with_attr("deflated_vms", outcomes.len())
        .with_attr("preempted_vms", preempted.len());
    for k in deflate_core::ResourceKind::ALL {
        span = span.with_attr(&format!("freed.{}", k.name()), freed.get(k));
    }
    for (id, out) in outcomes {
        span = span.with_child(out.to_span(at).with_attr("vm", id.to_string()));
    }
    for id in preempted {
        span = span.with_child(Span::new("server.preempt", at).with_attr("vm", id.to_string()));
    }
    span
}

/// Per-VM fault conditions the local controller must work around during
/// one reclamation round; computed by the cluster manager from its fault
/// injector and agent-liveness tracking. The default (no faults) leaves
/// the cascade untouched.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct VmFaults {
    /// The VM's deflation agent is down or its link is eating messages:
    /// asking it would burn this long and reclaim nothing. The controller
    /// skips the agent and charges the burn as app-layer latency.
    pub agent_timeout: Option<SimDuration>,
    /// Guest hot-(un)plug is stalled: an engaged OS layer takes this much
    /// longer.
    pub hotplug_stall: Option<SimDuration>,
    /// The VM was declared unresponsive: pivot to hypervisor-only
    /// deflation (the cgroup clamp needs no guest cooperation).
    pub hypervisor_only: bool,
}

/// Per-server deflation controller (paper Fig. 2, §5).
#[derive(Debug, Clone, Copy)]
pub struct LocalController {
    /// Cascade configuration used for every VM deflation.
    pub cascade: CascadeConfig,
}

impl Default for LocalController {
    fn default() -> Self {
        LocalController {
            cascade: CascadeConfig::FULL,
        }
    }
}

thread_local! {
    /// Reusable planning buffers for [`LocalController::make_room_shielded`]:
    /// the deflation-state and preemption-candidate vectors are rebuilt on
    /// every reclamation round — hundreds of thousands of times in a large
    /// trace-driven run — so the hot loop recycles them instead of paying a
    /// heap round-trip per placement. Thread-local (not controller state)
    /// because the controller is a `Copy` value and the cellular simulator
    /// runs one reclamation stream per worker thread.
    static PLAN_STATES: std::cell::Cell<Vec<VmDeflationState>> =
        const { std::cell::Cell::new(Vec::new()) };
    static PREEMPT_CANDIDATES: std::cell::Cell<Vec<(f64, VmId)>> =
        const { std::cell::Cell::new(Vec::new()) };
    /// Reusable buffers for [`LocalController::reinflate`], which runs on
    /// every VM exit: the deflatable VMs and their shares.
    static REINFLATE_VMS: std::cell::Cell<Vec<(VmId, ResourceVector, ResourceVector)>> =
        const { std::cell::Cell::new(Vec::new()) };
    static REINFLATE_SHARES: std::cell::Cell<Vec<(VmId, ResourceVector)>> =
        const { std::cell::Cell::new(Vec::new()) };
}

impl LocalController {
    /// Creates a controller with the given cascade configuration.
    pub fn new(cascade: CascadeConfig) -> Self {
        LocalController { cascade }
    }

    /// Makes room for `demand` on `server`: deflates all low-priority VMs
    /// proportionally, and preempts the VMs farthest from their deflation
    /// targets if deflation alone is insufficient.
    ///
    /// Returns an open [`ReclaimSession`]: the mutations have been
    /// applied but the caller decides their fate — `commit()` to keep
    /// them (yielding the [`ReclaimReport`]) or `rollback()` to undo
    /// every deflation and preemption.
    pub fn make_room<'s>(
        &self,
        now: SimTime,
        server: &'s mut PhysicalServer,
        demand: &ResourceVector,
    ) -> ReclaimSession<'s> {
        self.make_room_with(now, server, demand, &HashMap::new())
    }

    /// The cascade configuration used for one VM under its current fault
    /// conditions: unresponsive VMs pivot to hypervisor-only (keeping the
    /// deadline and retry policy); a dead agent skips the app layer.
    fn vm_cascade(&self, faults: &VmFaults) -> CascadeConfig {
        let mut cfg = self.cascade;
        if faults.hypervisor_only {
            cfg.use_app = false;
            cfg.use_os = false;
            cfg.use_hypervisor = true;
        } else if faults.agent_timeout.is_some() {
            cfg.use_app = false;
        }
        cfg
    }

    /// Charges fault-induced time against a cascade outcome: the deadline
    /// burnt waiting on a dead agent (app layer engaged, zero yield) and
    /// hot-plug stalls on the OS layer. Pure latency accounting — the
    /// reclaimed amounts are already exact.
    fn apply_vm_faults(
        &self,
        out: &mut CascadeOutcome,
        faults: &VmFaults,
        target: &ResourceVector,
    ) {
        if faults.hypervisor_only {
            // Neither the agent nor the guest was consulted.
            return;
        }
        if let Some(burn) = faults.agent_timeout {
            if self.cascade.use_app {
                out.app = deflate_core::LayerReport {
                    requested: *target,
                    reclaimed: ResourceVector::ZERO,
                    latency: burn,
                    attempts: 1,
                };
                out.latency += burn;
                out.escalations += 1;
            }
        }
        if let Some(stall) = faults.hotplug_stall {
            if out.os.engaged() {
                out.os.latency += stall;
                out.latency += stall;
            }
        }
    }

    /// [`make_room`](Self::make_room) under per-VM fault conditions.
    /// With an empty fault map this is byte-identical to the fault-free
    /// path.
    pub fn make_room_with<'s>(
        &self,
        now: SimTime,
        server: &'s mut PhysicalServer,
        demand: &ResourceVector,
        faults: &HashMap<VmId, VmFaults>,
    ) -> ReclaimSession<'s> {
        self.make_room_shielded(now, server, demand, faults, &HashSet::new())
    }

    /// [`make_room_with`](Self::make_room_with) that additionally shields
    /// a set of VMs from *memory* deflation: a shielded VM's planning
    /// minimum is raised to its current memory allocation, so the
    /// proportional planner routes the memory demand to the remaining
    /// donors. Used by the distress circuit breaker; shielding does not
    /// protect against the preemption fallback (a breaker-open VM can
    /// still be preempted, just not squeezed further). With an empty set
    /// this is byte-identical to `make_room_with`.
    pub fn make_room_shielded<'s>(
        &self,
        now: SimTime,
        server: &'s mut PhysicalServer,
        demand: &ResourceVector,
        faults: &HashMap<VmId, VmFaults>,
        shielded: &HashSet<VmId>,
    ) -> ReclaimSession<'s> {
        let mut session = ReclaimSession::begin(now, server);
        if !session.server().is_up() {
            return session;
        }
        let free = session.server().free();
        let need = demand.saturating_sub(&free);
        if need.is_zero() {
            session.set_satisfied(true);
            return session;
        }

        // Upfront feasibility: even preempting every low-priority VM can
        // free at most `free + Σ low effective`. An unsatisfiable demand
        // must not touch the server — previously it deflated every VM to
        // its minimum and preempted the rest, then reported failure,
        // leaving VMs deflated (or dead) with no demand against them.
        if !(free + session.server().preemptible()).dominates(demand) {
            return session;
        }

        // Proportional targets across all low-priority VMs. Working-set
        // floors (when the cascade honors them) and breaker shields raise
        // the planning minimum so the demand is routed to VMs that can
        // actually give memory up; `Vm::deflate` enforces the floor again
        // as defense in depth.
        use deflate_core::ResourceKind::Memory;
        let mut states = PLAN_STATES.take();
        states.clear();
        states.extend(
            session
                .server()
                .vms()
                .filter(|vm| vm.deflatable())
                .map(|vm| {
                    let eff = vm.effective();
                    let mut min = vm.min_size();
                    if self.cascade.working_set_floor && vm.memory_floor_mb() > 0.0 {
                        let floor = vm.memory_floor_mb().min(eff.get(Memory));
                        if floor > min.get(Memory) {
                            min.set(Memory, floor);
                        }
                    }
                    if shielded.contains(&vm.id()) {
                        min.set(Memory, eff.get(Memory));
                    }
                    VmDeflationState::with_min(vm.id(), eff, min)
                }),
        );
        let plan = proportional_targets(&need, &states);
        states.clear();
        PLAN_STATES.set(states);

        // Deflate concurrently: latency is the max across VMs.
        for (id, target) in &plan.targets {
            if target.is_zero() {
                continue;
            }
            let vm_faults = faults.get(id).copied().unwrap_or_default();
            let cfg = self.vm_cascade(&vm_faults);
            let out = session
                .deflate(*id, target, &cfg)
                .expect("planned VM exists on this server");
            self.apply_vm_faults(out, &vm_faults, target);
        }

        // Preemption fallback: deflation hit minimum sizes and the demand
        // is still not covered. Preempt the VMs farthest from their
        // deflation target (largest cascade shortfall) until it is.
        let mut still_needed = demand.saturating_sub(&session.server().free());
        if !still_needed.is_zero() {
            let mut candidates = PREEMPT_CANDIDATES.take();
            candidates.clear();
            candidates.extend(
                session
                    .outcomes()
                    .iter()
                    .map(|(id, out)| (out.shortfall.total(), *id)),
            );
            // Also consider deflatable VMs that received no target.
            for vm in session.server().vms() {
                if vm.priority() != VmPriority::Low {
                    continue;
                }
                let id = vm.id();
                if !candidates.iter().any(|(_, c)| *c == id) {
                    candidates.push((0.0, id));
                }
            }
            candidates.sort_by(|a, b| b.0.total_cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
            for &(_, id) in &candidates {
                if still_needed.is_zero() {
                    break;
                }
                if session.preempt(id).is_some() {
                    still_needed = demand.saturating_sub(&session.server().free());
                }
            }
            candidates.clear();
            PREEMPT_CANDIDATES.set(candidates);
        }

        let satisfied = session.server().free().dominates(demand);
        session.set_satisfied(satisfied);
        session
    }

    /// Returns freed resources to deflated VMs, proportionally to their
    /// deficits (paper §5, reinflation). Grants are recorded in the
    /// session (and show up in the committed report's `reinflated`
    /// list), so a rollback takes them back.
    pub fn reinflate(&self, session: &mut ReclaimSession<'_>, freed: &ResourceVector) {
        let mut vms = REINFLATE_VMS.take();
        let mut shares = REINFLATE_SHARES.take();
        vms.clear();
        vms.extend(
            session
                .server()
                .vms()
                .filter(|vm| vm.deflatable())
                .map(|vm| (vm.id(), vm.effective(), vm.spec())),
        );
        proportional_reinflation(freed, &vms, &mut shares);
        for &(id, share) in &shares {
            if share.is_zero() {
                continue;
            }
            session.reinflate(id, &share).expect("VM exists");
        }
        REINFLATE_VMS.set(vms);
        REINFLATE_SHARES.set(shares);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm_spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 100.0, 100.0)
    }

    fn server_capacity() -> ResourceVector {
        ResourceVector::new(16.0, 65_536.0, 400.0, 400.0)
    }

    fn low_vm(id: u64) -> Vm {
        Vm::new(VmId(id), vm_spec(), VmPriority::Low)
    }

    fn server_with_low_vms(n: u64) -> PhysicalServer {
        let mut s = PhysicalServer::new(ServerId(1), server_capacity());
        for i in 0..n {
            s.add_vm(low_vm(i));
        }
        s
    }

    #[test]
    fn capacity_accounting() {
        let s = server_with_low_vms(2);
        assert_eq!(s.vm_count(), 2);
        assert_eq!(s.committed(), vm_spec().scale(2.0));
        assert_eq!(s.free(), server_capacity() - vm_spec().scale(2.0));
        assert_eq!(s.deflatable(), vm_spec().scale(2.0));
        assert_eq!(s.availability(), server_capacity());
        assert!(s.fits(&vm_spec()));
    }

    #[test]
    fn make_room_with_free_resources_is_noop() {
        let mut s = server_with_low_vms(1);
        let ctl = LocalController::default();
        let r = ctl.make_room(SimTime::ZERO, &mut s, &vm_spec()).commit();
        assert!(r.satisfied);
        assert!(r.freed.is_zero());
        assert!(r.outcomes.is_empty());
    }

    #[test]
    fn make_room_deflates_proportionally() {
        // Fill the server completely with 4 low-pri VMs.
        let mut s = server_with_low_vms(4);
        assert!(s.free().is_zero());
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let demand = vm_spec(); // One more VM's worth.
        let r = ctl.make_room(SimTime::ZERO, &mut s, &demand).commit();
        assert!(r.satisfied, "freed {}", r.freed);
        assert!(r.preempted.is_empty());
        assert_eq!(r.outcomes.len(), 4);
        // Each VM gave up ~25 % of its allocation.
        for (_, out) in &r.outcomes {
            assert!(out.total_reclaimed.approx_eq(&vm_spec().scale(0.25), 1.0));
        }
        assert!(s.free().dominates(&demand));
    }

    #[test]
    fn make_room_latency_is_max_not_sum() {
        let mut s = server_with_low_vms(4);
        for id in s.low_priority_ids() {
            s.vm_mut(id).unwrap().set_usage(12_000.0, 2.0);
        }
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let r = ctl.make_room(SimTime::ZERO, &mut s, &vm_spec()).commit();
        let max_vm = r
            .outcomes
            .iter()
            .map(|(_, o)| o.latency)
            .max()
            .expect("outcomes exist");
        assert_eq!(r.latency, max_vm);
        let sum: f64 = r
            .outcomes
            .iter()
            .map(|(_, o)| o.latency.as_secs_f64())
            .sum();
        assert!(r.latency.as_secs_f64() < sum);
    }

    #[test]
    fn preempts_when_minimums_block_deflation() {
        let mut s = PhysicalServer::new(ServerId(1), vm_spec().scale(2.0));
        // Two VMs fill the server; both refuse to deflate below 90 %.
        for i in 0..2 {
            let vm = Vm::new(VmId(i), vm_spec(), VmPriority::Low).with_min(vm_spec().scale(0.9));
            s.add_vm(vm);
        }
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let r = ctl.make_room(SimTime::ZERO, &mut s, &vm_spec()).commit();
        assert!(r.satisfied);
        assert!(!r.preempted.is_empty());
        assert!(s.vm_count() < 2);
    }

    #[test]
    fn high_priority_vms_are_never_touched() {
        let mut s = PhysicalServer::new(ServerId(1), vm_spec().scale(2.0));
        s.add_vm(Vm::new(VmId(1), vm_spec(), VmPriority::High));
        s.add_vm(Vm::new(VmId(2), vm_spec(), VmPriority::Low));
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let r = ctl.make_room(SimTime::ZERO, &mut s, &vm_spec()).commit();
        assert!(r.satisfied);
        // Only the low-priority VM was deflated or preempted.
        assert!(s.vm(VmId(1)).is_some());
        assert!(r.outcomes.iter().all(|(id, _)| *id == VmId(2)));
        let hp = s.vm(VmId(1)).unwrap();
        assert!(hp.effective().approx_eq(&vm_spec(), 1e-9));
    }

    #[test]
    fn reinflation_returns_resources_proportionally() {
        let mut s = server_with_low_vms(2);
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        // Deflate both VMs by half a VM's worth.
        let extra = vm_spec();
        let before_free = s.free();
        ctl.make_room(SimTime::ZERO, &mut s, &(before_free + extra))
            .commit();
        let deflated: Vec<f64> = s.vms().map(|vm| vm.max_deflation()).collect();
        assert!(deflated.iter().all(|d| *d > 0.0));

        // Resources free up again; reinflate through a session.
        let mut sess = ReclaimSession::begin(SimTime::from_secs(60), &mut s);
        ctl.reinflate(&mut sess, &extra);
        let applied = sess.commit().reinflated;
        assert_eq!(applied.len(), 2);
        for vm in s.vms() {
            assert!(vm.max_deflation() < 1e-6, "still deflated: {vm:?}");
        }
    }

    #[test]
    fn make_room_report_converts_to_span() {
        let mut s = server_with_low_vms(4);
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let r = ctl.make_room(SimTime::ZERO, &mut s, &vm_spec()).commit();
        let span = r.to_span(SimTime::from_secs(5), ServerId(1));
        assert_eq!(span.kind, "server.make_room");
        assert_eq!(span.attr("server").and_then(|a| a.as_f64()), Some(1.0));
        assert_eq!(span.attr("satisfied").and_then(|a| a.as_bool()), Some(true));
        assert_eq!(
            span.attr("deflated_vms").and_then(|a| a.as_f64()),
            Some(4.0)
        );
        let freed_cpu = span.attr("freed.cpu").and_then(|a| a.as_f64()).unwrap();
        assert!((freed_cpu - vm_spec().get(deflate_core::ResourceKind::Cpu)).abs() < 1e-6);
        // One cascade.deflate child per deflated VM, each tagged with its VM.
        let children: Vec<_> = span
            .children
            .iter()
            .filter(|c| c.kind == "cascade.deflate")
            .collect();
        assert_eq!(children.len(), 4);
        assert!(children.iter().all(|c| c.attr("vm").is_some()));
    }

    #[test]
    fn preemptions_appear_as_span_children() {
        let mut s = PhysicalServer::new(ServerId(7), vm_spec().scale(2.0));
        for i in 0..2 {
            s.add_vm(Vm::new(VmId(i), vm_spec(), VmPriority::Low).with_min(vm_spec().scale(0.9)));
        }
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let r = ctl.make_room(SimTime::ZERO, &mut s, &vm_spec()).commit();
        assert!(!r.preempted.is_empty());
        let span = r.to_span(SimTime::ZERO, ServerId(7));
        let preempts = span
            .children
            .iter()
            .filter(|c| c.kind == "server.preempt")
            .count();
        assert_eq!(preempts, r.preempted.len());
    }

    #[test]
    fn unsatisfiable_make_room_is_state_neutral() {
        // Capacity of two VMs: one high-priority + one low-priority VM
        // fill the server; a whole-server demand is unsatisfiable (the
        // high-priority VM is untouchable).
        let mut s = PhysicalServer::new(ServerId(1), vm_spec().scale(2.0));
        s.add_vm(Vm::new(VmId(1), vm_spec(), VmPriority::High));
        s.add_vm(Vm::new(VmId(2), vm_spec(), VmPriority::Low).with_min(vm_spec().scale(0.3)));
        let before = s.committed();
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let r = ctl
            .make_room(SimTime::ZERO, &mut s, &vm_spec().scale(2.0))
            .commit();
        assert!(!r.satisfied);
        // The failed reclaim must leave the server exactly as it was:
        // nothing deflated, nothing preempted, nothing freed. (It used
        // to deflate the low-priority VM to its minimum and then preempt
        // it before reporting failure.)
        assert!(r.outcomes.is_empty(), "deflated: {:?}", r.outcomes);
        assert!(r.preempted.is_empty(), "preempted: {:?}", r.preempted);
        assert!(r.freed.is_zero(), "freed: {}", r.freed);
        assert_eq!(s.vm_count(), 2);
        assert_eq!(s.committed(), before);
        assert!(s.vm(VmId(2)).unwrap().max_deflation() < 1e-9);
        s.assert_aggregates_consistent();
    }

    #[test]
    fn aggregates_track_mutations_incrementally() {
        let mut s = server_with_low_vms(3);
        s.add_vm(Vm::new(VmId(10), vm_spec(), VmPriority::High));
        s.assert_aggregates_consistent();
        assert_eq!(s.aggregates().spec_total, vm_spec().scale(4.0));
        assert_eq!(s.aggregates().low_spec, vm_spec().scale(3.0));

        // Deflate one VM through the cache-maintaining path.
        let out = s
            .deflate_vm(
                SimTime::ZERO,
                VmId(0),
                &vm_spec().scale(0.5),
                &CascadeConfig::VM_LEVEL,
            )
            .expect("VM 0 hosted");
        assert!(!out.total_reclaimed.is_zero());
        s.assert_aggregates_consistent();
        assert!(s
            .aggregates()
            .low_effective
            .approx_eq(&vm_spec().scale(2.5), 1e-6));

        // Reinflate it back.
        s.reinflate_vm(SimTime::from_secs(1), VmId(0), &vm_spec().scale(0.5))
            .expect("VM 0 hosted");
        s.assert_aggregates_consistent();

        // Remove everything: the sums return to exact zero.
        for id in [0, 1, 2, 10] {
            s.remove_vm(VmId(id));
        }
        assert_eq!(s.aggregates(), ServerAggregates::default());
        assert!(s.committed().is_zero());
    }

    #[test]
    fn deflate_vm_unknown_id_is_none() {
        let mut s = server_with_low_vms(1);
        assert!(s
            .deflate_vm(
                SimTime::ZERO,
                VmId(99),
                &vm_spec(),
                &CascadeConfig::VM_LEVEL
            )
            .is_none());
        assert!(s
            .reinflate_vm(SimTime::ZERO, VmId(99), &vm_spec())
            .is_none());
    }

    #[test]
    fn down_server_never_fits_and_make_room_refuses() {
        let mut s = server_with_low_vms(1);
        assert!(s.fits(&vm_spec()));
        s.set_up(false);
        assert!(!s.is_up());
        assert!(!s.fits(&vm_spec()));
        let ctl = LocalController::default();
        let r = ctl.make_room(SimTime::ZERO, &mut s, &vm_spec()).commit();
        assert!(!r.satisfied);
        assert!(r.freed.is_zero());
        s.set_up(true);
        assert!(s.fits(&vm_spec()));
    }

    #[test]
    fn unresponsive_vm_pivots_to_hypervisor_only() {
        let mut s = server_with_low_vms(4);
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let mut faults = HashMap::new();
        for id in s.low_priority_ids() {
            faults.insert(
                id,
                VmFaults {
                    hypervisor_only: true,
                    ..VmFaults::default()
                },
            );
        }
        let r = ctl
            .make_room_with(SimTime::ZERO, &mut s, &vm_spec(), &faults)
            .commit();
        assert!(r.satisfied);
        for (_, out) in &r.outcomes {
            // Only the hypervisor layer engaged: cgroup clamp, no guest.
            assert!(out.os.reclaimed.is_zero());
            assert!(!out.hypervisor.reclaimed.is_zero());
        }
    }

    #[test]
    fn agent_timeout_burn_and_hotplug_stall_charge_latency() {
        let mut s = server_with_low_vms(4);
        let ctl = LocalController::new(CascadeConfig::FULL);
        let baseline = ctl
            .make_room(SimTime::ZERO, &mut s, &vm_spec())
            .commit()
            .outcomes
            .first()
            .map(|(_, o)| o.latency)
            .expect("deflated something");

        let mut s = server_with_low_vms(4);
        let burn = SimDuration::from_secs(2);
        let stall = SimDuration::from_secs(5);
        let mut faults = HashMap::new();
        for id in s.low_priority_ids() {
            faults.insert(
                id,
                VmFaults {
                    agent_timeout: Some(burn),
                    hotplug_stall: Some(stall),
                    hypervisor_only: false,
                },
            );
        }
        let r = ctl
            .make_room_with(SimTime::ZERO, &mut s, &vm_spec(), &faults)
            .commit();
        assert!(r.satisfied);
        let (_, out) = r.outcomes.first().expect("deflated something");
        // App layer records the deadline burn with zero yield ...
        assert_eq!(out.app.latency, burn);
        assert!(out.app.reclaimed.is_zero());
        assert_eq!(out.app.attempts, 1);
        assert!(out.escalations >= 1);
        // ... and the stalled OS layer is slower than the fault-free run.
        assert!(
            out.latency >= baseline + burn + stall,
            "latency {:?}",
            out.latency
        );
    }

    #[test]
    fn shielded_vm_gives_no_memory_and_donors_cover_it() {
        use deflate_core::ResourceKind::Memory;
        let mut s = server_with_low_vms(4);
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let shielded: HashSet<VmId> = [VmId(0)].into_iter().collect();
        let r = ctl
            .make_room_shielded(
                SimTime::ZERO,
                &mut s,
                &vm_spec(),
                &HashMap::new(),
                &shielded,
            )
            .commit();
        assert!(r.satisfied);
        assert!(r.preempted.is_empty());
        // The shielded VM kept its full memory; the others covered the
        // whole memory demand between them.
        let kept = s.vm(VmId(0)).unwrap().effective().get(Memory);
        assert!((kept - vm_spec().get(Memory)).abs() < 1e-6, "kept {kept}");
        for (id, out) in &r.outcomes {
            if *id == VmId(0) {
                assert!(out.total_reclaimed.get(Memory) < 1e-9);
            }
        }
        assert!(r.freed.get(Memory) >= vm_spec().get(Memory) - 1e-6);
    }

    #[test]
    fn working_set_floor_routes_memory_to_unfloored_donors() {
        use deflate_core::ResourceKind::Memory;
        let mut s = PhysicalServer::new(ServerId(1), server_capacity());
        // VM 0 reports a working-set floor at 90 % of spec; VM 1 has none.
        s.add_vm(low_vm(0).with_memory_floor(vm_spec().get(Memory) * 0.9));
        s.add_vm(low_vm(1));
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL.with_working_set_floor(true));
        let demand = s.free() + ResourceVector::memory(vm_spec().get(Memory));
        let r = ctl.make_room(SimTime::ZERO, &mut s, &demand).commit();
        assert!(r.satisfied, "freed {}", r.freed);
        assert!(r.preempted.is_empty());
        let floored = s.vm(VmId(0)).unwrap().effective().get(Memory);
        assert!(
            floored >= vm_spec().get(Memory) * 0.9 - 1e-6,
            "floor violated: {floored}"
        );
    }

    #[test]
    fn empty_fault_map_matches_fault_free_path() {
        let mut a = server_with_low_vms(4);
        let mut b = server_with_low_vms(4);
        let ctl = LocalController::new(CascadeConfig::FULL);
        let ra = ctl.make_room(SimTime::ZERO, &mut a, &vm_spec()).commit();
        let rb = ctl
            .make_room_with(SimTime::ZERO, &mut b, &vm_spec(), &HashMap::new())
            .commit();
        assert_eq!(ra.freed, rb.freed);
        assert_eq!(ra.latency, rb.latency);
        assert_eq!(ra.outcomes, rb.outcomes);
        assert_eq!(a.committed(), b.committed());
    }

    #[test]
    fn reservations_shrink_free_and_fits() {
        let mut s = server_with_low_vms(2);
        let free_before = s.free();
        let v0 = s.version();
        s.reserve(&vm_spec());
        assert!(s.version() > v0, "reserve must bump the version");
        assert_eq!(s.reserved(), vm_spec());
        assert_eq!(s.free(), free_before.saturating_sub(&vm_spec()));
        // Availability shrinks with free, so fits() respects the hold.
        assert!(!s.fits(&server_capacity()));
        s.release_reservation(&vm_spec());
        assert!(s.reserved().is_zero());
        assert_eq!(s.free(), free_before);
        // Clearing is idempotent and version-stable when already zero.
        let v1 = s.version();
        s.clear_reservations();
        assert_eq!(s.version(), v1);
        s.reserve(&vm_spec());
        s.clear_reservations();
        assert!(s.reserved().is_zero());
    }

    #[test]
    fn disconnected_server_keeps_vms_but_leaves_placement() {
        let mut s = server_with_low_vms(2);
        assert!(s.placeable());
        let committed = s.committed();
        let v0 = s.version();
        s.set_connected(false);
        assert!(s.version() > v0, "set_connected must bump the version");
        assert!(s.is_up(), "partitioned is not down");
        assert!(!s.is_connected());
        assert!(!s.placeable());
        assert!(!s.fits(&vm_spec()));
        // Capacity is NOT released: the VMs are still running.
        assert_eq!(s.committed(), committed);
        assert_eq!(s.vm_count(), 2);
        // Healing restores placement eligibility; re-setting the same
        // state is version-stable.
        s.set_connected(true);
        let v1 = s.version();
        s.set_connected(true);
        assert_eq!(s.version(), v1);
        assert!(s.fits(&vm_spec()));
    }

    #[test]
    fn usage_change_through_vm_mut_bumps_the_version() {
        let mut s = server_with_low_vms(2);
        let v0 = s.version();
        s.vm_mut(VmId(0)).unwrap().set_usage(12_000.0, 2.0);
        assert!(s.version() > v0, "vm_mut must bump the version");
        // A miss touches nothing.
        let v1 = s.version();
        assert!(s.vm_mut(VmId(99)).is_none());
        assert_eq!(s.version(), v1);
    }

    #[test]
    fn overcommitment_metric() {
        let mut s = PhysicalServer::new(ServerId(1), vm_spec().scale(2.0));
        assert_eq!(s.overcommitment(), 0.0);
        s.add_vm(low_vm(1));
        s.add_vm(low_vm(2));
        assert_eq!(s.overcommitment(), 0.0);
        s.add_vm(low_vm(3));
        assert!((s.overcommitment() - 0.5).abs() < 1e-9);
    }
}
