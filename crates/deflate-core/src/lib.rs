//! Cascade resource deflation — the core contribution of *Resource
//! Deflation: A New Approach For Transient Resource Reclamation*
//! (Sharma, Ali-Eldin, Shenoy; EuroSys '19).
//!
//! Resource deflation dynamically *shrinks* (and later re-expands) the
//! resources of low-priority transient VMs under resource pressure, instead
//! of preempting them outright. Reclamation is **multi-level**: a cascade
//! first asks the application to voluntarily relinquish resources, then
//! hot-unplugs free resources at the guest-OS level, and finally falls
//! through to hypervisor-level overcommitment for whatever remains
//! (paper §3.2, Fig. 3).
//!
//! This crate defines:
//!
//! * [`ResourceVector`] / [`ResourceKind`] — the four-dimensional
//!   (CPU, memory, disk-bandwidth, network-bandwidth) resource algebra;
//! * the three layer traits — [`ApplicationAgent`], [`GuestOs`],
//!   [`HypervisorControl`] — that a VM substrate implements;
//! * [`cascade::deflate_vm`] — the cascade controller itself, plus
//!   [`cascade::reinflate_vm`], the reverse cascade (§5);
//! * [`policy`] — the cluster-side proportional deflation policy with
//!   per-VM minimum sizes and the preemption-fallback decision.
//!
//! The hypervisor/guest substrate lives in the `hypervisor` crate;
//! application agents in `apps` and `spark`; cluster-wide placement in
//! `cluster`.
//!
//! # Examples
//!
//! ```
//! use deflate_core::{ResourceKind, ResourceVector};
//!
//! let spec = ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0);
//! let half = spec.scale(0.5);
//! assert_eq!(half.get(ResourceKind::Cpu), 2.0);
//! assert!(spec.dominates(&half));
//! ```

#![forbid(unsafe_code)]

pub mod cascade;
pub mod error;
pub mod ids;
pub mod layers;
pub mod policy;
pub mod resources;

pub use cascade::{
    deflate_vm, reinflate_vm, CascadeConfig, CascadeOutcome, LayerReport, RetryPolicy,
};
pub use error::DeflateError;
pub use ids::{ServerId, VmId};
pub use layers::{ApplicationAgent, GuestOs, HypervisorControl, ReclaimResult};
pub use policy::{proportional_reinflation, proportional_targets, DeflationPlan, VmDeflationState};
pub use resources::{ResourceKind, ResourceVector};
