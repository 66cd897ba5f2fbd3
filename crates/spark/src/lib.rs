//! Spark execution substrate and the cascade deflation policy for Spark
//! (paper §4.1).
//!
//! The paper uses Spark as the representative data-parallel framework and
//! builds a *model-driven, online* self-deflation policy into the Spark
//! master: when the cluster manager deflates the VMs of a Spark
//! application, the master estimates the running time under
//!
//! * **VM-level deflation** — tasks on deflated VMs become stragglers and,
//!   because stages are bulk-synchronous, the whole job is gated by the
//!   most-deflated VM: `T_vm = T·[c + (1−c)/(1−max d)]` (Eq. 1);
//! * **self-deflation** — the master kills tasks and blacklists executors,
//!   which rebalances load (slowdown follows the *mean* deflation) but
//!   loses RDD partitions that must be recursively recomputed:
//!   `T_self = T·[c + (r·c + 1−c)/(1−mean d)]` (Eq. 3), with the
//!   recomputation fraction `r` estimated as the job's synchronous-time
//!   share (and forced to 1 when a shuffle is imminent);
//!
//! and picks whichever is smaller.
//!
//! This crate implements the substrate that policy needs, from scratch:
//!
//! * [`rdd`] — RDD lineage graphs with narrow/wide dependencies and
//!   caching;
//! * [`stage`] — the DAG scheduler's stage splitting (stages break at
//!   shuffle boundaries and at materialized/cached parents);
//! * [`exec`] — a bulk-synchronous execution simulator over a pool of
//!   (possibly deflated) worker VMs, with per-partition location tracking
//!   and recursive lineage-based recomputation of lost partitions;
//! * [`policy`] — Eqs. 1–3 and the mechanism-selection logic;
//! * [`training`] — synchronous data-parallel DNN training (BigDL-style
//!   CNN/RNN), where any task loss stalls the whole job and forces a
//!   restart from the last model checkpoint;
//! * [`workloads`] — the paper's four Spark workloads (Table 2): ALS,
//!   K-means, CNN and RNN training.

#![forbid(unsafe_code)]

pub mod exec;
pub mod policy;
pub mod rdd;
pub mod stage;
pub mod training;
pub mod workloads;

pub use exec::{BspSimulator, DeflationEvent, DeflationMode, RunResult, WorkerPool};
pub use policy::{
    choose_mechanism, choose_mechanism_with_r, DeflationDecision, PolicyInputs, REstimateKind,
};
pub use rdd::{DagBuilder, DepKind, Rdd, RddId};
pub use stage::{build_stages, Stage, StageId};
pub use training::{TrainingJob, TrainingParams, TrainingRun};
pub use workloads::{als, cnn, kmeans, pagerank, rnn, terasort, SparkWorkload};
