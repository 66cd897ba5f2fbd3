//! Simulated virtualization substrate for resource deflation.
//!
//! The paper's prototype drives KVM through libvirt, hot-(un)plugs
//! resources through a QEMU guest agent, and overcommits through Linux
//! cgroups (§5). None of that stack is available in this environment, so
//! this crate provides a faithful simulation of the same interfaces and
//! failure modes:
//!
//! * [`guest::GuestModel`] — the guest OS: visible resources, free/used
//!   memory and page cache, online vCPUs, and *best-effort* hot-unplug with
//!   the paper's failure modes (integral vCPUs only, at least one vCPU
//!   stays online, pinned vCPUs refuse to unplug, memory fragmentation
//!   limits unpluggable memory, disk/NIC never unplug).
//! * [`backend::HvBackend`] — hypervisor-level overcommitment: CPU shares,
//!   memory limits with host swapping, disk/network throttling, with an
//!   incremental memory-reclaim control loop.
//! * [`latency::LatencyModel`] — how long each mechanism takes; memory
//!   dominates (Fig. 8b).
//! * [`vm::Vm`] — a deflatable VM that owns its [`guest::VmState`] and
//!   lends it, one `&mut` at a time, to the application agent, the guest
//!   model and the backend during a cascade. It exposes the
//!   [`vm::VmResourceView`] that application performance models consume
//!   (effective CPUs, CPU overcommit ratio for lock-holder-preemption
//!   penalties, swapped memory, ...).
//! * [`server::PhysicalServer`] — a host with capacity accounting, and
//!   [`server::LocalController`] — the per-server deflation controller that
//!   turns a resource demand into concurrent per-VM cascade deflations
//!   (proportional policy + preemption fallback).
//! * [`session::ReclaimSession`] — the linear-typestate wrapper every
//!   multi-VM reclamation flows through: each deflation/preemption/
//!   reinflation is a typed step, and the session must be consumed by
//!   exactly one of `commit()` / `rollback()` (a leak rolls back and is
//!   counted; debug builds panic).
//! * [`migration::MigrationSession`] — the two-server extension:
//!   reserve capacity on a destination, plan an analytic pre-copy
//!   schedule from the guest's dirty-page churn, then commit the move
//!   or roll the reservation back under the same Drop-guard contract.

#![forbid(unsafe_code)]

pub mod backend;
pub mod burstable;
pub mod guest;
pub mod latency;
pub mod migration;
pub mod server;
pub mod session;
pub mod vm;

pub use backend::HvBackend;
pub use burstable::{BurstableParams, CreditModel};
pub use guest::{GuestConfig, GuestModel, MemoryMechanism};
pub use latency::LatencyModel;
pub use migration::{
    precopy_schedule, MigrationConfig, MigrationReport, MigrationSession, ParkedMigration,
    PrecopyPlan,
};
pub use server::{
    make_room_span, LocalController, PhysicalServer, ReclaimReport, ServerAggregates, VmFaults,
};
pub use session::{leaked_sessions, ReclaimSession, ReclaimStep, RollbackReport};
pub use vm::{Vm, VmPriority, VmResourceView};
