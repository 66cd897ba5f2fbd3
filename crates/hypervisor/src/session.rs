//! Linear-typestate reclamation sessions (commit-or-rollback).
//!
//! Every multi-VM reclamation path — placement `make_room`, emergency
//! donor harvesting, survivor reinflation after an exit or OOM kill —
//! mutates a server through a [`ReclaimSession`] that records each
//! deflation, preemption, and reinflation as a typed [`ReclaimStep`].
//! The session must be consumed by exactly one of [`commit`] or
//! [`rollback`]:
//!
//! ```text
//!            deflate / preempt / reinflate
//!                  ┌─────────┐
//!                  ▼         │
//!   begin ──► RECLAIMING ────┘
//!              │       │
//!       commit │       │ rollback
//!              ▼       ▼
//!         COMMITTED  ROLLED BACK   (terminal; session consumed)
//!              │
//!              ▼
//!        ReclaimReport
//! ```
//!
//! `#[must_use]` makes forgetting the session a compile-time warning
//! (denied in CI); the `Drop` guard makes an unconsumed session a
//! *runtime* bug too: debug builds panic, release builds roll the
//! mutations back and bump a thread-local leak counter the cluster
//! manager surfaces as `cluster.session_leaked`. A leaked session can
//! therefore never strand a server half-deflated — the state either
//! committed or it didn't happen.
//!
//! Mutations apply eagerly (the cascade needs real VM state to compute
//! per-layer yields), so rollback is an undo log replayed in reverse:
//! a deflation hands back exactly what it reclaimed, a preemption
//! restores the removed VM, and a reinflation grant is taken back
//! through the hypervisor layer (a cgroup clamp, resource-neutral and
//! requiring no guest cooperation).
//!
//! [`commit`]: ReclaimSession::commit
//! [`rollback`]: ReclaimSession::rollback

use std::cell::Cell;
use std::mem;

use deflate_core::{CascadeConfig, CascadeOutcome, ResourceVector, VmId};
use simkit::{SimDuration, SimTime};

use crate::server::{PhysicalServer, ReclaimReport};
use crate::vm::Vm;

thread_local! {
    /// Sessions dropped unconsumed on this thread. Thread-local so a
    /// deliberate leak in one test cannot pollute the byte-identity
    /// assertions of tests running on sibling threads.
    static LEAKED: Cell<u64> = const { Cell::new(0) };
}

/// Total [`ReclaimSession`]s leaked (dropped without `commit` or
/// `rollback`) on the calling thread. The cluster manager polls the
/// delta into its `cluster.session_leaked` counter.
///
/// The count is per thread, so it can under-report when work moves
/// between threads: the sharded simulator runs each cell on whichever
/// worker thread picks it up in an epoch, and a leak recorded on one
/// worker is not seen by a manager that polls from another. It only
/// registers on a session-leak bug, which debug builds catch by
/// panicking at the leak site.
pub fn leaked_sessions() -> u64 {
    LEAKED.with(|c| c.get())
}

/// Records one leaked session. Shared with the migration module so a
/// leaked [`MigrationSession`](crate::migration::MigrationSession) folds
/// into the same counter the cluster manager already surfaces.
pub(crate) fn note_leak() {
    LEAKED.with(|c| c.set(c.get() + 1));
}

/// One typed mutation recorded by a [`ReclaimSession`], in the order it
/// was applied; rollback replays these in reverse.
#[derive(Debug)]
pub enum ReclaimStep {
    /// A VM was cascade-deflated and gave up `reclaimed`.
    Deflated {
        /// The deflated VM.
        vm: VmId,
        /// What its cascade actually reclaimed.
        reclaimed: ResourceVector,
    },
    /// A VM was preempted; the whole VM is retained so rollback can
    /// restore it in place.
    Preempted {
        /// The removed VM (boxed: `Vm` is large and most steps are
        /// deflations).
        vm: Box<Vm>,
    },
    /// A VM was granted `granted` back through the reverse cascade.
    Reinflated {
        /// The reinflated VM.
        vm: VmId,
        /// What it actually received.
        granted: ResourceVector,
    },
}

/// What a [`ReclaimSession::rollback`] undid.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct RollbackReport {
    /// Deflated VMs that were reinflated back to their pre-session
    /// allocation.
    pub reinflated_vms: u64,
    /// Preempted VMs restored to the server.
    pub restored_vms: u64,
    /// Reinflation grants taken back.
    pub reverted_grants: u64,
    /// Total resources handed back to deflated VMs.
    pub returned: ResourceVector,
}

/// An in-flight multi-VM reclamation against one server.
///
/// See the module docs for the state diagram and the Drop-guard
/// contract. Obtained from [`ReclaimSession::begin`] or from
/// [`LocalController::make_room`](crate::server::LocalController::make_room)
/// and friends; consumed by [`commit`](Self::commit) (keep the
/// mutations, get the [`ReclaimReport`]) or [`rollback`](Self::rollback)
/// (undo everything).
#[must_use = "a ReclaimSession must be consumed by commit() or rollback()"]
pub struct ReclaimSession<'s> {
    server: &'s mut PhysicalServer,
    now: SimTime,
    /// Undo log, in application order.
    steps: Vec<ReclaimStep>,
    /// Per-VM cascade outcomes, in deflation order (fault adjustments
    /// mutate these through the reference `deflate` returns).
    outcomes: Vec<(VmId, CascadeOutcome)>,
    /// Preempted VM ids, in preemption order.
    preempted: Vec<VmId>,
    /// Nonzero reinflation grants, in grant order.
    reinflated: Vec<(VmId, ResourceVector)>,
    satisfied: bool,
    consumed: bool,
}

impl std::fmt::Debug for ReclaimSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReclaimSession")
            .field("server", &self.server.id())
            .field("steps", &self.steps.len())
            .field("satisfied", &self.satisfied)
            .finish()
    }
}

impl<'s> ReclaimSession<'s> {
    /// Opens a session against `server`; `now` stamps every mutation
    /// (and any rollback) it performs.
    pub fn begin(now: SimTime, server: &'s mut PhysicalServer) -> Self {
        ReclaimSession {
            server,
            now,
            steps: Vec::new(),
            outcomes: Vec::new(),
            preempted: Vec::new(),
            reinflated: Vec::new(),
            satisfied: false,
            consumed: false,
        }
    }

    /// Read access to the server under reclamation.
    pub fn server(&self) -> &PhysicalServer {
        self.server
    }

    /// The session's timestamp.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Cascade outcomes recorded so far, in deflation order.
    pub fn outcomes(&self) -> &[(VmId, CascadeOutcome)] {
        &self.outcomes
    }

    /// The undo log recorded so far, in application order.
    pub fn steps(&self) -> &[ReclaimStep] {
        &self.steps
    }

    /// Whether the session has recorded any mutation.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Whether the driving demand is covered (set by the producer).
    pub fn satisfied(&self) -> bool {
        self.satisfied
    }

    /// Marks whether the driving demand is covered.
    pub fn set_satisfied(&mut self, satisfied: bool) {
        self.satisfied = satisfied;
    }

    /// Cascade-deflates one hosted VM toward `target` and records the
    /// step. Returns a mutable borrow of the recorded outcome so the
    /// caller can charge fault-induced latency against it (faults never
    /// change the reclaimed amounts, which are logged here). `None`
    /// when the VM is not hosted on this server.
    pub fn deflate(
        &mut self,
        id: VmId,
        target: &ResourceVector,
        cfg: &CascadeConfig,
    ) -> Option<&mut CascadeOutcome> {
        let out = self.server.deflate_vm(self.now, id, target, cfg)?;
        self.steps.push(ReclaimStep::Deflated {
            vm: id,
            reclaimed: out.total_reclaimed,
        });
        self.outcomes.push((id, out));
        Some(&mut self.outcomes.last_mut().expect("just pushed").1)
    }

    /// Preempts (removes) one hosted VM, retaining it in the undo log.
    /// Returns the effective allocation it freed, or `None` when the VM
    /// is not hosted here.
    pub fn preempt(&mut self, id: VmId) -> Option<ResourceVector> {
        let vm = self.server.remove_vm(id)?;
        let freed = vm.effective();
        self.preempted.push(id);
        self.steps.push(ReclaimStep::Preempted { vm: Box::new(vm) });
        Some(freed)
    }

    /// Grants resources back to one hosted VM through the reverse
    /// cascade and records the (nonzero) grant. Returns what the VM
    /// actually received, or `None` when it is not hosted here.
    pub fn reinflate(&mut self, id: VmId, amount: &ResourceVector) -> Option<ResourceVector> {
        let got = self.server.reinflate_vm(self.now, id, amount)?;
        if !got.is_zero() {
            self.steps.push(ReclaimStep::Reinflated {
                vm: id,
                granted: got,
            });
            self.reinflated.push((id, got));
        }
        Some(got)
    }

    /// Keeps every mutation and returns the aggregated
    /// [`ReclaimReport`]. `freed` sums contributions in application
    /// order (deflations and preemptions interleaved exactly as they
    /// happened) and `latency` is the max across cascade outcomes —
    /// VM deflations run concurrently.
    pub fn commit(mut self) -> ReclaimReport {
        self.consumed = true;
        let mut freed = ResourceVector::ZERO;
        for step in &self.steps {
            match step {
                ReclaimStep::Deflated { reclaimed, .. } => freed += *reclaimed,
                ReclaimStep::Preempted { vm } => freed += vm.effective(),
                ReclaimStep::Reinflated { .. } => {}
            }
        }
        let mut latency = SimDuration::ZERO;
        for (_, out) in &self.outcomes {
            if out.latency > latency {
                latency = out.latency;
            }
        }
        ReclaimReport {
            freed,
            latency,
            outcomes: mem::take(&mut self.outcomes),
            preempted: mem::take(&mut self.preempted),
            reinflated: mem::take(&mut self.reinflated),
            satisfied: self.satisfied,
        }
    }

    /// Undoes every recorded step in reverse order and reports what was
    /// undone. The server ends in its pre-session state (preempted VMs
    /// restored, deflated VMs handed back exactly what they gave).
    pub fn rollback(mut self) -> RollbackReport {
        self.consumed = true;
        self.undo()
    }

    /// The shared undo machinery behind `rollback` and the Drop guard.
    fn undo(&mut self) -> RollbackReport {
        let mut rep = RollbackReport::default();
        for step in mem::take(&mut self.steps).into_iter().rev() {
            match step {
                ReclaimStep::Deflated { vm, reclaimed } => {
                    // A deflated VM's deficit is at least what it gave
                    // up this session, so it gets exactly that back.
                    if self.server.reinflate_vm(self.now, vm, &reclaimed).is_some() {
                        rep.reinflated_vms += 1;
                        rep.returned += reclaimed;
                    }
                }
                ReclaimStep::Preempted { vm } => {
                    self.server.add_vm(*vm);
                    rep.restored_vms += 1;
                }
                ReclaimStep::Reinflated { vm, granted } => {
                    // Take the grant back through the hypervisor layer:
                    // resource-neutral and needs no guest cooperation.
                    let _ = self.server.deflate_vm(
                        self.now,
                        vm,
                        &granted,
                        &CascadeConfig::HYPERVISOR_ONLY,
                    );
                    rep.reverted_grants += 1;
                }
            }
        }
        self.outcomes.clear();
        self.preempted.clear();
        self.reinflated.clear();
        rep
    }
}

impl Drop for ReclaimSession<'_> {
    fn drop(&mut self) {
        if self.consumed {
            return;
        }
        // Leaked: neither commit nor rollback ran. Undo first so the
        // server is never left half-reclaimed, then surface the bug —
        // loudly in debug builds, as a counter in release builds.
        note_leak();
        let _ = self.undo();
        if cfg!(debug_assertions) && !std::thread::panicking() {
            panic!(
                "ReclaimSession against server {} leaked: dropped without commit() or rollback()",
                self.server.id()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{Vm, VmPriority};
    use deflate_core::ServerId;

    fn vm_spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 100.0, 100.0)
    }

    fn server_with_low_vms(n: u64) -> PhysicalServer {
        let mut s = PhysicalServer::new(ServerId(1), vm_spec().scale(4.0));
        for i in 0..n {
            s.add_vm(Vm::new(VmId(i), vm_spec(), VmPriority::Low));
        }
        s
    }

    #[test]
    fn commit_keeps_mutations_and_reports_them() {
        let mut s = server_with_low_vms(2);
        let committed_before = s.committed();
        let mut sess = ReclaimSession::begin(SimTime::ZERO, &mut s);
        let out = sess
            .deflate(VmId(0), &vm_spec().scale(0.25), &CascadeConfig::VM_LEVEL)
            .expect("hosted");
        let reclaimed = out.total_reclaimed;
        assert!(!reclaimed.is_zero());
        sess.set_satisfied(true);
        let report = sess.commit();
        assert!(report.satisfied);
        assert_eq!(report.outcomes.len(), 1);
        assert!(report.freed.approx_eq(&reclaimed, 1e-9));
        // The deflation stuck.
        assert!(
            s.committed().get(deflate_core::ResourceKind::Cpu)
                < committed_before.get(deflate_core::ResourceKind::Cpu)
        );
        s.assert_aggregates_consistent();
    }

    #[test]
    fn rollback_restores_pre_session_state() {
        let mut s = server_with_low_vms(3);
        let committed = s.committed();
        let agg = s.aggregates();
        let mut sess = ReclaimSession::begin(SimTime::ZERO, &mut s);
        sess.deflate(VmId(0), &vm_spec().scale(0.5), &CascadeConfig::VM_LEVEL)
            .expect("hosted");
        sess.deflate(VmId(1), &vm_spec().scale(0.25), &CascadeConfig::VM_LEVEL)
            .expect("hosted");
        assert!(sess.preempt(VmId(2)).is_some());
        let rb = sess.rollback();
        assert_eq!(rb.reinflated_vms, 2);
        assert_eq!(rb.restored_vms, 1);
        assert!(!rb.returned.is_zero());
        assert_eq!(s.vm_count(), 3);
        assert!(s.committed().approx_eq(&committed, 1e-6));
        assert!(s.aggregates().approx_eq(&agg));
        for vm in s.vms() {
            assert!(vm.max_deflation() < 1e-9, "still deflated: {vm:?}");
        }
        s.assert_aggregates_consistent();
    }

    #[test]
    fn rollback_reverts_reinflation_grants() {
        let mut s = server_with_low_vms(2);
        // Pre-deflate VM 0 outside any session so it has a deficit.
        let _ = s
            .deflate_vm(
                SimTime::ZERO,
                VmId(0),
                &vm_spec().scale(0.5),
                &CascadeConfig::VM_LEVEL,
            )
            .expect("hosted");
        let committed = s.committed();
        let mut sess = ReclaimSession::begin(SimTime::from_secs(60), &mut s);
        let got = sess
            .reinflate(VmId(0), &vm_spec().scale(0.5))
            .expect("hosted");
        assert!(!got.is_zero());
        let rb = sess.rollback();
        assert_eq!(rb.reverted_grants, 1);
        assert!(s.committed().approx_eq(&committed, 1e-6));
        s.assert_aggregates_consistent();
    }

    #[test]
    fn leaked_session_rolls_back_and_counts() {
        let mut s = server_with_low_vms(2);
        let committed = s.committed();
        let leaked_before = leaked_sessions();
        let leak = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sess = ReclaimSession::begin(SimTime::ZERO, &mut s);
            sess.deflate(VmId(0), &vm_spec().scale(0.5), &CascadeConfig::VM_LEVEL)
                .expect("hosted");
            // Dropped here: neither commit nor rollback.
        }));
        if cfg!(debug_assertions) {
            // The Drop guard panics in debug builds — the test CI runs
            // explicitly to prove a leaked session cannot pass silently.
            assert!(leak.is_err(), "debug leak must panic");
        } else {
            assert!(leak.is_ok());
        }
        // Either way the leak was counted and the state rolled back.
        assert_eq!(leaked_sessions(), leaked_before + 1);
        assert!(s.committed().approx_eq(&committed, 1e-6));
        s.assert_aggregates_consistent();
    }

    #[test]
    fn consumed_session_does_not_trip_the_guard() {
        let mut s = server_with_low_vms(1);
        let leaked_before = leaked_sessions();
        let sess = ReclaimSession::begin(SimTime::ZERO, &mut s);
        assert!(sess.is_empty());
        let report = sess.commit();
        assert!(report.freed.is_zero());
        let sess = ReclaimSession::begin(SimTime::ZERO, &mut s);
        let rb = sess.rollback();
        assert_eq!(rb, RollbackReport::default());
        assert_eq!(leaked_sessions(), leaked_before);
    }

    #[test]
    fn commit_freed_interleaves_deflations_and_preemptions_in_order() {
        let mut s = server_with_low_vms(3);
        let mut sess = ReclaimSession::begin(SimTime::ZERO, &mut s);
        sess.deflate(VmId(0), &vm_spec().scale(0.25), &CascadeConfig::VM_LEVEL)
            .expect("hosted");
        let preempt_freed = sess.preempt(VmId(1)).expect("hosted");
        sess.deflate(VmId(2), &vm_spec().scale(0.25), &CascadeConfig::VM_LEVEL)
            .expect("hosted");
        assert_eq!(sess.steps().len(), 3);
        let report = sess.commit();
        let expected = report.outcomes[0].1.total_reclaimed
            + preempt_freed
            + report.outcomes[1].1.total_reclaimed;
        assert!(report.freed.approx_eq(&expected, 1e-9));
        assert_eq!(report.preempted, vec![VmId(1)]);
    }
}
