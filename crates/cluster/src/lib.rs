//! Deflation-based cluster management (paper §5).
//!
//! The cluster manager allocates a mix of non-deflatable high-priority VMs
//! and deflatable low-priority VMs onto physical servers:
//!
//! * **Placement** uses deflation-aware multi-dimensional bin-packing: a
//!   server's availability is `free + deflatable` (Eq. 4) and the fitness
//!   of a VM for a server is the cosine similarity between the demand and
//!   availability vectors. Best-fit, first-fit and 2-choices policies are
//!   provided ([`placement`]).
//! * **Reclamation** deflates all low-priority VMs on a server
//!   proportionally to their deflatable range (the `hypervisor` crate's
//!   [`LocalController`](hypervisor::LocalController)), falling back to
//!   preemption only when minimum sizes make deflation insufficient.
//! * **Reinflation** returns freed resources proportionally when VMs exit.
//!
//! [`simulate`] drives all of this from synthetic Eucalyptus-style traces
//! ([`traces`]) over a 100-node cluster to measure preemption
//! probabilities and server overcommitment under increasing load —
//! reproducing Figs. 8c and 8d.
//!
//! The control plane is built to survive the datacenter misbehaving:
//! server crashes and agent faults ([`simkit::fault`]), manager↔server
//! network partitions with autonomous servers and anti-entropy
//! reconciliation ([`partition`]), and crashes of the manager itself —
//! while it is down every server runs autonomously and arrivals park in
//! a bounded admission queue; on restart
//! [`ClusterManager::recover_manager`](manager::ClusterManager::recover_manager)
//! rebuilds all state from a single inventory scan over per-server
//! reports, with no persisted snapshot. Every fault domain is empty by
//! default and byte-identical when off.

#![deny(unsafe_code)]

pub mod distress;
pub mod manager;
pub mod migration;
pub mod partition;
pub mod placement;
pub mod placement_index;
pub mod predictor;
pub mod pricing;
pub mod record;
pub mod simulate;
pub mod traces;

pub use distress::{DistressConfig, DistressEvent};
pub use manager::{
    ClusterManager, ClusterManagerConfig, ClusterStats, LaunchOutcome, ServerFailure,
};
pub use migration::MigrationPolicy;
pub use partition::{DivergenceEvent, DivergenceLog, Reachability, ReconcileOutcome};
pub use placement::{AvailabilityMode, PlacementPolicy};
pub use placement_index::{FitListCounters, PlacementIndex};
pub use predictor::{DemandPredictor, Ewma};
pub use pricing::{revenue, Rates, Revenue, TransientPricing};
pub use record::{ClusterRecord, MakeRoom};
pub use simulate::{
    run_cluster_replay, run_cluster_sim, ClusterSimConfig, ClusterSimResult, ShardingConfig,
};
pub use traces::{
    from_csv, to_csv, InstanceType, TraceConfig, TraceGenerator, TraceParseError, VmRequest,
};
