//! Two-server live-migration sessions (paper §4.4's migration-vs-
//! deflation trade-off, made a first-class mechanism).
//!
//! A [`MigrationSession`] extends the single-server
//! [`ReclaimSession`](crate::session::ReclaimSession) typestate across a
//! source/destination pair:
//!
//! ```text
//!   begin ──► OPEN ──reserve()──► RESERVED ──precopy()──► PLANNED
//!                                    │                       │
//!                             rollback │        commit / park │
//!                                    ▼                       ▼
//!                              ROLLED BACK           COMMITTED / PARKED
//! ```
//!
//! `reserve` makes room on the destination through the local
//! controller's `make_room` — deflation only, never preemption (evicting
//! a VM to move another would defeat the point) — commits that inner
//! reclaim, and places a capacity *hold* on the destination so
//! concurrent placement cannot claim the headroom while the pre-copy
//! runs. `precopy` is the analytic pre-copy model: round `i` ships the
//! pages dirtied during round `i−1` under a bandwidth cap, until the
//! residue fits the stop-and-copy threshold (or a round cap fires —
//! write-heavy guests never converge). `commit` moves the VM; `rollback`
//! releases the hold and hands the destination donors back exactly what
//! they gave — the source is untouched either way until commit.
//!
//! The session is `#[must_use]` with the same Drop contract as
//! `ReclaimSession`: an unconsumed drop rolls the destination back,
//! counts into [`leaked_sessions`](crate::session::leaked_sessions),
//! and panics in debug builds. For the simulator's asynchronous copy
//! window — where the borrow on both servers cannot live across events —
//! [`park`](MigrationSession::park) converts the session into plain
//! [`ParkedMigration`] data the cluster manager finishes or aborts
//! later.

use deflate_core::{ResourceVector, ServerId, VmId};
use simkit::{SimDuration, SimTime};

use crate::server::{LocalController, PhysicalServer};
use crate::session::note_leak;

/// Parameters of the pre-copy transfer model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MigrationConfig {
    /// Migration link bandwidth in MB/s (default ≈ 10 GbE).
    pub bandwidth_mb_s: f64,
    /// Fraction of the guest's anonymous working set dirtied per second
    /// during a copy round.
    pub wset_dirty_per_s: f64,
    /// Fraction of the guest's page cache dirtied per second (cache
    /// churns faster than anonymous memory).
    pub cache_dirty_per_s: f64,
    /// Stop-and-copy threshold: a residue at or below this ships in the
    /// blackout window instead of another round.
    pub stop_copy_mb: f64,
    /// Round cap for guests whose dirty rate outruns the link.
    pub max_rounds: u32,
    /// Fixed switch-over cost added to the blackout window.
    pub switch_over: SimDuration,
}

impl Default for MigrationConfig {
    fn default() -> Self {
        MigrationConfig {
            bandwidth_mb_s: 1_250.0,
            wset_dirty_per_s: 0.05,
            cache_dirty_per_s: 0.20,
            stop_copy_mb: 64.0,
            max_rounds: 8,
            switch_over: SimDuration::from_millis(200),
        }
    }
}

/// The analytic pre-copy schedule for one guest.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrecopyPlan {
    /// Copy rounds before stop-and-copy (≥ 1 for a running guest).
    pub rounds: u32,
    /// Total bytes shipped, in MB (all rounds plus the blackout copy).
    pub copied_mb: f64,
    /// Blackout window: final residue transfer plus switch-over.
    pub downtime: SimDuration,
    /// Wall-clock span of the whole migration (rounds + blackout).
    pub total: SimDuration,
}

/// What a committed migration did.
#[derive(Debug, Clone)]
pub struct MigrationReport {
    /// The migrated VM.
    pub vm: VmId,
    /// Where it came from / landed.
    pub src: ServerId,
    /// Destination server.
    pub dst: ServerId,
    /// The pre-copy schedule the move followed.
    pub plan: PrecopyPlan,
    /// Destination donors deflated to make room, with what each gave.
    pub reserve_outcomes: Vec<(VmId, ResourceVector)>,
}

/// A reserved-and-planned migration detached from its server borrows,
/// so the copy window can elapse across simulator events. The cluster
/// manager keeps one per in-flight migration and either finishes it
/// (move the VM, release the hold) or aborts it (release the hold,
/// reinflate the donors) — the hold on the destination keeps the
/// reserved headroom safe in between.
#[derive(Debug, Clone)]
pub struct ParkedMigration {
    /// The migrating VM (still running on the source).
    pub vm: VmId,
    /// Source server.
    pub src: ServerId,
    /// Destination server (carries the capacity hold).
    pub dst: ServerId,
    /// The held capacity (the VM's effective allocation at reserve
    /// time).
    pub reserved: ResourceVector,
    /// Destination donors and what each gave (the abort undo-log).
    pub reserve_outcomes: Vec<(VmId, ResourceVector)>,
    /// The pre-copy schedule.
    pub plan: PrecopyPlan,
}

/// An in-flight two-server migration. See the module docs for the state
/// diagram and the Drop-guard contract.
#[must_use = "a MigrationSession must be consumed by commit(), rollback() or park()"]
pub struct MigrationSession<'s> {
    src: &'s mut PhysicalServer,
    dst: &'s mut PhysicalServer,
    vm: VmId,
    now: SimTime,
    cfg: MigrationConfig,
    /// The hold placed on `dst`; ZERO until `reserve` succeeds.
    reserved: ResourceVector,
    /// Destination donors deflated by `reserve` (the undo log).
    reserve_outcomes: Vec<(VmId, ResourceVector)>,
    plan: Option<PrecopyPlan>,
    consumed: bool,
}

impl std::fmt::Debug for MigrationSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MigrationSession")
            .field("vm", &self.vm)
            .field("src", &self.src.id())
            .field("dst", &self.dst.id())
            .field("reserved", &self.reserved)
            .finish()
    }
}

impl<'s> MigrationSession<'s> {
    /// Opens a session moving `vm` from `src` to `dst`. `None` when the
    /// VM is not hosted on the source, the destination is down, or the
    /// two servers are the same machine.
    pub fn begin(
        now: SimTime,
        src: &'s mut PhysicalServer,
        dst: &'s mut PhysicalServer,
        vm: VmId,
        cfg: MigrationConfig,
    ) -> Option<Self> {
        if src.id() == dst.id() || !dst.is_up() || src.vm(vm).is_none() {
            return None;
        }
        Some(MigrationSession {
            src,
            dst,
            vm,
            now,
            cfg,
            reserved: ResourceVector::ZERO,
            reserve_outcomes: Vec::new(),
            plan: None,
            consumed: false,
        })
    }

    /// The source server.
    pub fn src(&self) -> &PhysicalServer {
        self.src
    }

    /// The destination server.
    pub fn dst(&self) -> &PhysicalServer {
        self.dst
    }

    /// The capacity held on the destination (ZERO before `reserve`).
    pub fn reserved(&self) -> ResourceVector {
        self.reserved
    }

    /// Makes room for the VM's effective allocation on the destination
    /// and places the capacity hold. Deflation-only: a reservation that
    /// would need to *preempt* destination VMs is refused (rolled back,
    /// `false`) — migration exists to avoid killing VMs, not to cause
    /// it. Idempotent-safe: a second call on a reserved session is a
    /// no-op returning `true`.
    pub fn reserve(&mut self, ctl: &LocalController) -> bool {
        self.reserve_shielded(ctl, &std::collections::HashSet::new())
    }

    /// [`reserve`](Self::reserve) that additionally shields a set of
    /// destination VMs from memory deflation (the cluster's
    /// breaker-open guests): making room for the incomer must not
    /// squeeze a guest the circuit breaker just rescued. With an empty
    /// set this is byte-identical to `reserve`.
    pub fn reserve_shielded(
        &mut self,
        ctl: &LocalController,
        shielded: &std::collections::HashSet<VmId>,
    ) -> bool {
        if !self.reserved.is_zero() {
            return true;
        }
        let demand = self
            .src
            .vm(self.vm)
            .expect("begin() checked the VM is hosted")
            .effective();
        if !self.dst.fits(&demand) {
            return false;
        }
        let session = ctl.make_room_shielded(
            self.now,
            self.dst,
            &demand,
            &std::collections::HashMap::new(),
            shielded,
        );
        let preempted = session
            .steps()
            .iter()
            .any(|s| matches!(s, crate::session::ReclaimStep::Preempted { .. }));
        if !session.satisfied() || preempted {
            session.rollback();
            return false;
        }
        let report = session.commit();
        self.reserve_outcomes = report
            .outcomes
            .into_iter()
            .map(|(id, out)| (id, out.total_reclaimed))
            .filter(|(_, got)| !got.is_zero())
            .collect();
        self.dst.reserve(&demand);
        self.reserved = demand;
        true
    }

    /// Computes the pre-copy schedule from the guest's current memory
    /// state: round 0 ships the resident set (anonymous + page cache);
    /// each following round ships what the guest dirtied during the
    /// previous one, until the residue fits `stop_copy_mb` or
    /// `max_rounds` fires. The residue then ships in the blackout
    /// window. Pure planning — no server state changes.
    pub fn precopy(&mut self) -> PrecopyPlan {
        let st = self
            .src
            .vm(self.vm)
            .expect("begin() checked the VM is hosted")
            .state();
        let (used, cache) = (st.usage.memory_mb, st.page_cache_mb);
        let plan = precopy_schedule(&self.cfg, used, cache);
        self.plan = Some(plan);
        plan
    }

    /// Moves the VM: removes it from the source, releases the hold, and
    /// lands it on the destination — delta-exact on both servers'
    /// aggregates. Calls [`precopy`](Self::precopy) implicitly if the
    /// caller skipped it.
    pub fn commit(mut self) -> MigrationReport {
        assert!(
            !self.reserved.is_zero(),
            "commit() before a successful reserve()"
        );
        let plan = match self.plan {
            Some(p) => p,
            None => self.precopy(),
        };
        self.consumed = true;
        let vm = self
            .src
            .remove_vm(self.vm)
            .expect("begin() checked the VM is hosted");
        self.dst.release_reservation(&self.reserved);
        self.dst.add_vm(vm);
        MigrationReport {
            vm: self.vm,
            src: self.src.id(),
            dst: self.dst.id(),
            plan,
            reserve_outcomes: std::mem::take(&mut self.reserve_outcomes),
        }
    }

    /// Abandons the migration: releases the hold and hands every
    /// destination donor back exactly what it gave. The source was never
    /// touched.
    pub fn rollback(mut self) {
        self.consumed = true;
        self.undo();
    }

    /// Detaches the reserved-and-planned migration from the server
    /// borrows (see [`ParkedMigration`]); the hold stays on the
    /// destination until the owner finishes or aborts the move.
    pub fn park(mut self) -> ParkedMigration {
        assert!(
            !self.reserved.is_zero(),
            "park() before a successful reserve()"
        );
        let plan = match self.plan {
            Some(p) => p,
            None => self.precopy(),
        };
        self.consumed = true;
        ParkedMigration {
            vm: self.vm,
            src: self.src.id(),
            dst: self.dst.id(),
            reserved: self.reserved,
            reserve_outcomes: std::mem::take(&mut self.reserve_outcomes),
            plan,
        }
    }

    /// Shared undo behind `rollback` and the Drop guard.
    fn undo(&mut self) {
        if !self.reserved.is_zero() {
            self.dst.release_reservation(&self.reserved);
            self.reserved = ResourceVector::ZERO;
        }
        for (id, got) in std::mem::take(&mut self.reserve_outcomes).into_iter().rev() {
            let _ = self.dst.reinflate_vm(self.now, id, &got);
        }
    }
}

impl Drop for MigrationSession<'_> {
    fn drop(&mut self) {
        if self.consumed {
            return;
        }
        note_leak();
        self.undo();
        if cfg!(debug_assertions) && !std::thread::panicking() {
            panic!(
                "MigrationSession for {} ({} -> {}) leaked: dropped without commit(), rollback() or park()",
                self.vm,
                self.src.id(),
                self.dst.id()
            );
        }
    }
}

/// The pre-copy iteration, exposed for the bench crate's analytic
/// tables: given the config and the guest's anonymous/cache footprint,
/// returns the full schedule.
pub fn precopy_schedule(cfg: &MigrationConfig, used_mb: f64, cache_mb: f64) -> PrecopyPlan {
    let bw = cfg.bandwidth_mb_s.max(1e-9);
    let dirty_rate = cfg.wset_dirty_per_s * used_mb + cfg.cache_dirty_per_s * cache_mb;
    let mut residue = (used_mb + cache_mb).max(0.0);
    let mut copied = 0.0;
    let mut elapsed = 0.0;
    let mut rounds = 0u32;
    while rounds < cfg.max_rounds.max(1) {
        let round_time = residue / bw;
        copied += residue;
        elapsed += round_time;
        rounds += 1;
        residue = (dirty_rate * round_time).min(residue);
        if residue <= cfg.stop_copy_mb {
            break;
        }
    }
    // Stop-and-copy: the remaining residue ships with the guest paused.
    copied += residue;
    let downtime = SimDuration::from_secs_f64(residue / bw) + cfg.switch_over;
    let total = SimDuration::from_secs_f64(elapsed) + downtime;
    PrecopyPlan {
        rounds,
        copied_mb: copied,
        downtime,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::leaked_sessions;
    use crate::vm::{Vm, VmPriority};
    use deflate_core::{CascadeConfig, VmId};

    fn vm_spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 100.0, 100.0)
    }

    fn low_vm(id: u64) -> Vm {
        Vm::new(VmId(id), vm_spec(), VmPriority::Low).with_min(vm_spec().scale(0.25))
    }

    /// Source hosts VM 0; destination is full with two deflatable VMs,
    /// so a reservation must deflate them.
    fn pair() -> (PhysicalServer, PhysicalServer) {
        let mut src = PhysicalServer::new(ServerId(1), vm_spec().scale(2.0));
        src.add_vm(low_vm(0));
        let mut dst = PhysicalServer::new(ServerId(2), vm_spec().scale(2.0));
        dst.add_vm(low_vm(1));
        dst.add_vm(low_vm(2));
        (src, dst)
    }

    #[test]
    fn reserve_deflates_destination_and_holds_capacity() {
        let (mut src, mut dst) = pair();
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let mut sess = MigrationSession::begin(
            SimTime::ZERO,
            &mut src,
            &mut dst,
            VmId(0),
            MigrationConfig::default(),
        )
        .expect("valid pair");
        assert!(sess.reserve(&ctl));
        // The hold eats exactly the VM's allocation: the destination
        // reports no free capacity even though its donors deflated.
        assert_eq!(sess.dst().reserved(), vm_spec());
        assert!(sess.dst().free().is_zero());
        sess.rollback();
        // Rollback: hold released, donors back to full size.
        assert!(dst.reserved().is_zero());
        for vm in dst.vms() {
            assert!(vm.max_deflation() < 1e-9, "still deflated: {vm:?}");
        }
        dst.assert_aggregates_consistent();
        assert_eq!(src.vm_count(), 1);
    }

    #[test]
    fn commit_moves_vm_and_releases_hold() {
        let (mut src, mut dst) = pair();
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        src.vm_mut(VmId(0)).unwrap().set_usage(8_000.0, 1.0);
        let mut sess = MigrationSession::begin(
            SimTime::ZERO,
            &mut src,
            &mut dst,
            VmId(0),
            MigrationConfig::default(),
        )
        .expect("valid pair");
        assert!(sess.reserve(&ctl));
        let plan = sess.precopy();
        assert!(plan.rounds >= 1);
        assert!(plan.copied_mb >= 8_000.0, "copied {}", plan.copied_mb);
        assert!(plan.downtime > SimDuration::ZERO);
        let report = sess.commit();
        assert_eq!(report.vm, VmId(0));
        assert_eq!(report.plan, plan);
        assert!(!report.reserve_outcomes.is_empty());
        assert!(src.vm(VmId(0)).is_none());
        assert!(dst.vm(VmId(0)).is_some());
        assert!(dst.reserved().is_zero());
        src.assert_aggregates_consistent();
        dst.assert_aggregates_consistent();
    }

    #[test]
    fn reserve_refuses_rather_than_preempt() {
        // Destination donors refuse to deflate below 95 %: making room
        // would require preemption, so the reservation must fail and
        // leave the destination untouched.
        let mut src = PhysicalServer::new(ServerId(1), vm_spec().scale(2.0));
        src.add_vm(low_vm(0));
        let mut dst = PhysicalServer::new(ServerId(2), vm_spec().scale(2.0));
        for id in [1, 2] {
            dst.add_vm(
                Vm::new(VmId(id), vm_spec(), VmPriority::Low).with_min(vm_spec().scale(0.95)),
            );
        }
        let committed = dst.committed();
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let mut sess = MigrationSession::begin(
            SimTime::ZERO,
            &mut src,
            &mut dst,
            VmId(0),
            MigrationConfig::default(),
        )
        .expect("valid pair");
        assert!(!sess.reserve(&ctl));
        sess.rollback();
        assert_eq!(dst.vm_count(), 2);
        assert!(dst.committed().approx_eq(&committed, 1e-6));
        assert!(dst.reserved().is_zero());
    }

    #[test]
    fn begin_rejects_bad_pairs() {
        let (mut src, mut dst) = pair();
        let cfg = MigrationConfig::default();
        assert!(
            MigrationSession::begin(SimTime::ZERO, &mut src, &mut dst, VmId(99), cfg).is_none(),
            "VM not hosted on source"
        );
        dst.set_up(false);
        assert!(
            MigrationSession::begin(SimTime::ZERO, &mut src, &mut dst, VmId(0), cfg).is_none(),
            "destination down"
        );
    }

    #[test]
    fn precopy_converges_below_cap_and_cuts_off_above() {
        let cfg = MigrationConfig::default();
        // A quiet guest converges in few rounds.
        let quiet = precopy_schedule(&cfg, 4_096.0, 512.0);
        assert!(quiet.rounds < cfg.max_rounds, "rounds {}", quiet.rounds);
        assert!(quiet.copied_mb >= 4_608.0);
        // A guest dirtying faster than the link never converges: the
        // round cap fires and downtime carries the full residue.
        let hot = MigrationConfig {
            bandwidth_mb_s: 100.0,
            wset_dirty_per_s: 2.0,
            ..cfg
        };
        let thrash = precopy_schedule(&hot, 8_192.0, 0.0);
        assert_eq!(thrash.rounds, hot.max_rounds);
        assert!(thrash.downtime > quiet.downtime);
    }

    #[test]
    fn park_keeps_hold_for_async_finish() {
        let (mut src, mut dst) = pair();
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let mut sess = MigrationSession::begin(
            SimTime::ZERO,
            &mut src,
            &mut dst,
            VmId(0),
            MigrationConfig::default(),
        )
        .expect("valid pair");
        assert!(sess.reserve(&ctl));
        let parked = sess.park();
        assert_eq!(parked.vm, VmId(0));
        assert_eq!(parked.reserved, vm_spec());
        // The hold survives the session: the headroom stays fenced until
        // the owner finishes or aborts.
        assert_eq!(dst.reserved(), vm_spec());
        assert!(parked.plan.total > SimDuration::ZERO);
        // Manual abort path (what the manager does on a source crash).
        dst.release_reservation(&parked.reserved);
        for (id, got) in parked.reserve_outcomes.iter().rev() {
            dst.reinflate_vm(SimTime::from_secs(1), *id, got);
        }
        assert!(dst.reserved().is_zero());
        for vm in dst.vms() {
            assert!(vm.max_deflation() < 1e-9);
        }
        dst.assert_aggregates_consistent();
    }

    #[test]
    fn leaked_migration_rolls_back_and_counts() {
        let (mut src, mut dst) = pair();
        let committed = dst.committed();
        let ctl = LocalController::new(CascadeConfig::VM_LEVEL);
        let leaked_before = leaked_sessions();
        let leak = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut sess = MigrationSession::begin(
                SimTime::ZERO,
                &mut src,
                &mut dst,
                VmId(0),
                MigrationConfig::default(),
            )
            .expect("valid pair");
            assert!(sess.reserve(&ctl));
            // Dropped here: neither commit, rollback nor park.
        }));
        if cfg!(debug_assertions) {
            assert!(leak.is_err(), "debug leak must panic");
        } else {
            assert!(leak.is_ok());
        }
        assert_eq!(leaked_sessions(), leaked_before + 1);
        // The destination was rolled back: hold gone, donors whole.
        assert!(dst.reserved().is_zero());
        assert!(dst.committed().approx_eq(&committed, 1e-6));
        dst.assert_aggregates_consistent();
        assert_eq!(src.vm_count(), 1);
    }
}
