//! The benchmark's workloads: shipped-default cluster configurations at
//! the paper's Fig. 8c load density, each built from a workload seed.

use cluster::{
    ClusterManagerConfig, ClusterSimConfig, DistressConfig, MigrationPolicy, ShardingConfig,
    TraceConfig, TraceGenerator, VmRequest,
};
use deflate_core::ResourceVector;
use simkit::{AdmissionOverflow, FaultPlan, ManagerPlan, PartitionPlan, SimDuration, SimTime};

/// Offered load of every workload, in arrivals per server-hour: the
/// paper's Fig. 8c density (also the `BENCH_cluster.json` primary). With
/// the default 90-minute median log-normal lifetime and instance mix it
/// offers about 1.4x the fleet's CPU, so the fleet settles near 0.89
/// utilization with deflation doing the overcommitment.
pub const ARRIVALS_PER_SERVER_HOUR: f64 = 2.8;

/// A seed kept out of every tuning run, reserved for checking that a
/// later gain claim holds on inputs it was not tuned on.
pub const HELD_OUT_SEED: u64 = 1009;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 3000-server cell, BestFit: placement dominates the host cost.
    PaperFleet3k,
    /// 200 memory-bound servers with every opt-in mechanism on:
    /// distress, migration, server/agent faults, partitions, manager
    /// crashes.
    Chaos200,
    /// 10,000 servers in 8 cells on 2 worker threads.
    Sharded10k,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperFleet3k,
        Workload::Chaos200,
        Workload::Sharded10k,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperFleet3k => "paper-fleet-3k",
            Workload::Chaos200 => "chaos-200",
            Workload::Sharded10k => "sharded-10k",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Simulated horizon. The fleet fills for about eight hours at this
    /// density (the lifetime tail is heavy), so the single-cell horizon
    /// runs four saturated hours past that, where placement falls
    /// through to the availability tier; the sharded one stops at the
    /// end of the ramp to keep one replay to a few host seconds. The
    /// chaos horizon gives more than 1000 partition heals.
    pub fn horizon(self) -> SimDuration {
        match self {
            Workload::PaperFleet3k => SimDuration::from_hours(12),
            Workload::Chaos200 => SimDuration::from_hours(6 * 24),
            Workload::Sharded10k => SimDuration::from_hours(8),
        }
    }

    pub fn n_servers(self) -> usize {
        match self {
            Workload::PaperFleet3k => 3_000,
            Workload::Chaos200 => 200,
            Workload::Sharded10k => 10_000,
        }
    }

    /// The full simulator configuration for `seed`. The seed only moves
    /// the generated trace (and, through `trace.seed`, the sharded
    /// arrival routing); placement and fault seeds are fixed, so the
    /// program sees a different workload only through its requests.
    pub fn config(self, seed: u64) -> ClusterSimConfig {
        let n = self.n_servers();
        let mut manager = ClusterManagerConfig {
            n_servers: n,
            ..ClusterManagerConfig::default()
        };
        let mut sharding = ShardingConfig::default();
        match self {
            Workload::PaperFleet3k => {}
            Workload::Chaos200 => {
                manager.server_capacity = ResourceVector::new(16.0, 32_768.0, 400.0, 800.0);
                manager.distress = DistressConfig::guarded();
                manager.migration = MigrationPolicy {
                    defrag_interval: SimDuration::from_mins(30),
                    ..MigrationPolicy::enabled()
                };
                manager.faults = FaultPlan {
                    crash_warning: SimDuration::from_mins(5),
                    partitions: PartitionPlan {
                        prob: 0.02,
                        bucket: SimDuration::from_mins(30),
                        duration: SimDuration::from_mins(20),
                    },
                    manager: ManagerPlan {
                        prob: 0.02,
                        downtime: SimDuration::from_mins(10),
                        queue_cap: 64,
                        overflow: AdmissionOverflow::Defer,
                        ..ManagerPlan::none()
                    },
                    ..FaultPlan::chaos(7).scaled(2.0)
                };
            }
            Workload::Sharded10k => {
                sharding = ShardingConfig {
                    cells: 8,
                    threads: 2,
                    ..ShardingConfig::default()
                };
            }
        }
        ClusterSimConfig {
            manager,
            trace: TraceConfig {
                arrivals_per_hour: ARRIVALS_PER_SERVER_HOUR * n as f64,
                seed,
                ..TraceConfig::default()
            },
            horizon: self.horizon(),
            sharding,
        }
    }
}

/// The workload's request list: the only input the simulator receives.
pub fn generate(cfg: &ClusterSimConfig) -> Vec<VmRequest> {
    TraceGenerator::new(cfg.trace.clone()).generate_until(SimTime::ZERO + cfg.horizon)
}
