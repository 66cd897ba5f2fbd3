//! Application performance models and deflation agents.
//!
//! The paper evaluates deflation against real applications (Table 2):
//! memcached, SpecJBB (on a JVM), Linux kernel compilation, and web
//! servers, with the application-level reclamation mechanisms of Table 1:
//!
//! | Application | Mechanism |
//! |---|---|
//! | memcached (memory) | LRU object eviction to shrink the cache |
//! | JVM (memory) | trigger GC and reduce the maximum heap size |
//! | web servers (CPU) | shrink the worker thread pool |
//! | Spark/Hadoop (all) | reduce the number of tasks (see the `spark` crate) |
//!
//! This crate models each application analytically — throughput or
//! response time as a function of the VM's [`VmResourceView`] — and
//! implements the Table 1 mechanisms as [`ApplicationAgent`]s
//! that plug into cascade deflation. The models reproduce the performance
//! effects the evaluation hinges on: swap-vs-eviction for memcached,
//! GC-pressure-vs-swap for the JVM, and lock-holder preemption for CPU
//! overcommitment.
//!
//! [`ApplicationAgent`]: deflate_core::ApplicationAgent
//! [`VmResourceView`]: hypervisor::VmResourceView

#![forbid(unsafe_code)]

pub mod jvm;
pub mod kcompile;
pub mod memcached;
pub mod mpi;
pub mod utility;
pub mod webcluster;
pub mod webserver;

pub use jvm::{JvmAgent, JvmApp, JvmParams};
pub use kcompile::{KcompileApp, KcompileParams};
pub use memcached::{MemcachedAgent, MemcachedApp, MemcachedParams};
pub use mpi::{MpiApp, MpiParams};
pub use utility::{lhp_penalty, UtilityCurve};
pub use webcluster::{LbPolicy, WebCluster};
pub use webserver::{WebServerAgent, WebServerApp, WebServerParams};
