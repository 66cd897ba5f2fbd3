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
//! each elastic application is its own [`ApplicationAgent`]: it
//! implements its Table 1 mechanism over the VM state the cascade lends
//! it, so `vm.deflate(now, &target, &cfg, Some(&mut app))` runs the
//! application layer first. The models reproduce the performance
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
pub mod utility;
pub mod webserver;

pub use jvm::{JvmApp, JvmParams};
pub use kcompile::{KcompileApp, KcompileParams};
pub use memcached::{MemcachedApp, MemcachedParams};
pub use utility::{lhp_penalty, UtilityCurve};
pub use webserver::{WebServerApp, WebServerParams};
