//! Deterministic discrete-event simulation substrate.
//!
//! `simkit` provides the building blocks used by every other crate in this
//! workspace to simulate cluster behaviour:
//!
//! * [`SimTime`] / [`SimDuration`] — fixed-point simulated time (microsecond
//!   resolution) so runs are exactly reproducible across platforms.
//! * [`EventQueue`] and [`Scheduler`] — a stable-ordered future event list;
//!   ties are broken by insertion sequence so the simulation is deterministic.
//! * [`SimRng`] — a seeded PRNG with the distributions cluster simulations
//!   need (exponential, normal, log-normal, Zipf, Poisson processes),
//!   implemented from first principles to avoid external distribution crates.
//! * [`metrics`] — time-series, time-weighted gauges, counters and histograms
//!   with CSV export, used by the benchmark harness to print paper figures.
//! * [`MetricsRegistry`], [`Span`], [`Observability`] — the unified
//!   observability layer: metrics addressed by hierarchical dotted key,
//!   structured trace spans with per-layer payloads, and JSON/CSV run
//!   summaries ([`json::JsonValue`] is the dependency-free document model).
//!
//! # Examples
//!
//! ```
//! use simkit::{Scheduler, SimDuration, SimTime};
//!
//! #[derive(Debug, PartialEq)]
//! enum Ev {
//!     Tick(u32),
//! }
//!
//! let mut sched = Scheduler::new();
//! sched.after(SimDuration::from_secs(1), Ev::Tick(1));
//! sched.after(SimDuration::from_secs(2), Ev::Tick(2));
//!
//! let mut seen = Vec::new();
//! simkit::run(&mut sched, None, |_s, t, ev| {
//!     let Ev::Tick(n) = ev;
//!     seen.push((t, n));
//! });
//! assert_eq!(seen.len(), 2);
//! assert_eq!(seen[0].0, SimTime::from_secs(1));
//! ```

#![forbid(unsafe_code)]

pub mod event;
pub mod fault;
pub mod hash;
pub mod json;
pub mod metrics;
pub mod observe;
pub mod par;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::{run, run_until, EventQueue, Scheduler};
pub use fault::{AdmissionOverflow, FaultInjector, FaultPlan, ManagerPlan, PartitionPlan};
pub use hash::SeqHash;
pub use json::JsonValue;
pub use metrics::{Counter, Histogram, MetricsRegistry, TimeSeries, TimeWeightedGauge};
pub use observe::Observability;
pub use par::parallel_map_workers;
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use trace::{AttrValue, Rendered, Shape, Span, TraceEvent, TraceLog, TraceRecord};
