//! fig_migration: live-migration ablation (not a paper figure).
//!
//! The paper positions deflation *against* migration-based reclamation;
//! this experiment measures what migration adds when it is a rescue
//! mechanism layered on top of deflation rather than a competitor. On
//! the memory-balanced cluster of `fig_distress` it sweeps deflation
//! aggressiveness and compares three arms:
//!
//! * **deflation-only**: the guarded distress loop (emergency
//!   reinflation + breaker + floor) with migration disabled — the
//!   strongest single-server mechanism;
//! * **migration-only**: the unguarded consequence model plus distress
//!   rescue migrations — still-distressed guests escape to a server
//!   with real headroom, but nothing mitigates in place;
//! * **combined**: the guarded loop *and* distress rescue — in-place
//!   mitigation buys time, migration resolves what reinflation cannot.
//!
//! The combined arm must dominate: total goodput at least that of each
//! single mechanism, with nonzero migration traffic proving the rescue
//! path actually ran.

use cluster::{
    run_cluster_sim, ClusterManagerConfig, ClusterSimConfig, DistressConfig, MigrationPolicy,
    TraceConfig,
};
use deflate_core::ResourceVector;
use simkit::SimDuration;

use crate::{f1, RunCounters, Table};

/// Sweep configuration (shrunk in tests).
#[derive(Debug, Clone)]
pub struct FigMigrationConfig {
    /// Servers in the simulated cluster.
    pub n_servers: usize,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Arrival rate (VMs/hour).
    pub arrivals_per_hour: f64,
    /// Aggressiveness sweep, as in `fig_distress`: each VM's minimum
    /// size as a fraction of its spec, most conservative first.
    pub min_size_fractions: Vec<f64>,
    /// Trace seed.
    pub seed: u64,
}

impl Default for FigMigrationConfig {
    fn default() -> Self {
        FigMigrationConfig {
            n_servers: 20,
            horizon: SimDuration::from_hours(6),
            arrivals_per_hour: 150.0,
            min_size_fractions: vec![0.60, 0.45, 0.35, 0.25, 0.15],
            seed: 7,
        }
    }
}

/// The three ablation arms.
#[derive(Debug, Clone, Copy)]
enum Arm {
    DeflationOnly,
    MigrationOnly,
    Combined,
}

/// Memory-balanced server capacity (see `fig_distress`): the stock
/// CPU-bound shape never contends on memory, so neither distress nor
/// migration rescue would ever trigger.
fn balanced_capacity() -> ResourceVector {
    ResourceVector::new(16.0, 32_768.0, 400.0, 800.0)
}

fn sim_config(cfg: &FigMigrationConfig, min_size_fraction: f64, arm: Arm) -> ClusterSimConfig {
    let (distress, migration) = match arm {
        Arm::DeflationOnly => (DistressConfig::guarded(), MigrationPolicy::none()),
        Arm::MigrationOnly => (DistressConfig::unguarded(), MigrationPolicy::enabled()),
        Arm::Combined => (DistressConfig::guarded(), MigrationPolicy::enabled()),
    };
    ClusterSimConfig {
        sharding: Default::default(),
        manager: ClusterManagerConfig {
            n_servers: cfg.n_servers,
            server_capacity: balanced_capacity(),
            distress,
            migration,
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: cfg.arrivals_per_hour,
            lifetime_median_mins: 120.0,
            min_size_fraction,
            seed: cfg.seed,
            ..TraceConfig::default()
        },
        horizon: cfg.horizon,
    }
}

/// Billed CPU-hours, as in `fig_distress`: OOM-killed guests stop
/// earning until relaunched and thrashing guests earn at their slowed
/// rate.
fn goodput(r: &cluster::ClusterSimResult) -> f64 {
    r.high_pri_cpu_hours + r.low_pri_effective_cpu_hours
}

fn counter(r: &cluster::ClusterSimResult, key: &str) -> f64 {
    r.summary
        .get("counters")
        .and_then(|c| c.get(key))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

/// The sweep: one row per aggressiveness level, three arms side by side.
pub fn fig_migration_with(cfg: &FigMigrationConfig, counters: &mut RunCounters) -> Table {
    let mut t = Table::new(
        "fig_migration",
        "Goodput and guest OOM kills vs deflation aggressiveness: \
         deflation-only (guarded) vs migration-only (rescue) vs combined",
        vec![
            "min size frac",
            "goodput d (cpu-h)",
            "goodput m (cpu-h)",
            "goodput c (cpu-h)",
            "oom kills (d)",
            "oom kills (m)",
            "oom kills (c)",
            "migrations (c)",
            "migrated MB (c)",
        ],
    );
    let jobs: Vec<ClusterSimConfig> = cfg
        .min_size_fractions
        .iter()
        .flat_map(|&msf| {
            [
                sim_config(cfg, msf, Arm::DeflationOnly),
                sim_config(cfg, msf, Arm::MigrationOnly),
                sim_config(cfg, msf, Arm::Combined),
            ]
        })
        .collect();
    let results = crate::sweep::parallel_map(jobs, |c| run_cluster_sim(&c));
    for (i, &msf) in cfg.min_size_fractions.iter().enumerate() {
        let (d, m, c) = (&results[3 * i], &results[3 * i + 1], &results[3 * i + 2]);
        counters.record(&d.summary);
        counters.record(&m.summary);
        counters.record(&c.summary);
        t.row(vec![
            format!("{msf:.2}"),
            f1(goodput(d)),
            f1(goodput(m)),
            f1(goodput(c)),
            format!("{}", d.stats.oom_kills),
            format!("{}", m.stats.oom_kills),
            format!("{}", c.stats.oom_kills),
            format!("{}", c.stats.migrations),
            f1(counter(c, "cluster.migration_mb")),
        ]);
    }
    t.expect(
        "the combined arm dominates on sweep totals: goodput at least \
         that of deflation-only and of migration-only, no more OOM kills \
         than either single mechanism, and nonzero migration traffic \
         wherever deflation cuts below working sets",
    );
    t
}

/// The sweep at default scale.
pub fn run(counters: &mut RunCounters) -> Vec<Table> {
    vec![fig_migration_with(&FigMigrationConfig::default(), counters)]
}

/// The sweep at CI scale (finishes in seconds).
pub fn run_small(counters: &mut RunCounters) -> Vec<Table> {
    vec![fig_migration_with(&small_config(), counters)]
}

fn small_config() -> FigMigrationConfig {
    FigMigrationConfig {
        n_servers: 10,
        horizon: SimDuration::from_hours(4),
        arrivals_per_hour: 75.0,
        min_size_fractions: vec![0.60, 0.35, 0.15],
        ..FigMigrationConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_arm_dominates() {
        let t = fig_migration_with(&small_config(), &mut RunCounters::default());
        assert_eq!(t.rows.len(), 3);
        let (gp_d, gp_m, gp_c) = (t.column(1), t.column(2), t.column(3));
        // Sweep-total goodput: combining both mechanisms must not lose
        // to either one alone.
        let (sum_d, sum_m, sum_c) = (
            gp_d.iter().sum::<f64>(),
            gp_m.iter().sum::<f64>(),
            gp_c.iter().sum::<f64>(),
        );
        assert!(
            sum_c >= sum_d,
            "combined goodput {sum_c} < deflation-only {sum_d}"
        );
        assert!(
            sum_c >= sum_m,
            "combined goodput {sum_c} < migration-only {sum_m}"
        );
        // The rescue path must actually run: nonzero migrations and
        // bytes somewhere in the sweep.
        let migrations: f64 = t.column(7).iter().sum();
        let mb: f64 = t.column(8).iter().sum();
        assert!(migrations > 0.0, "no migrations anywhere in the sweep");
        assert!(mb > 0.0, "migrations shipped no bytes");
        // Kills: on sweep totals the combined arm never does worse than
        // either single mechanism. (Per-row counts can jitter by a kill
        // or two — migrations change packing, so marginal victims shift
        // between aggressiveness levels.)
        let (kd, km, kc) = (
            t.column(4).iter().sum::<f64>(),
            t.column(5).iter().sum::<f64>(),
            t.column(6).iter().sum::<f64>(),
        );
        assert!(kc <= kd, "combined kills {kc} > deflation-only {kd}");
        assert!(kc <= km, "combined kills {kc} > migration-only {km}");
        // The conservative end is distress-free for every arm.
        assert_eq!(t.cell(0, 4), 0.0);
        assert_eq!(t.cell(0, 5), 0.0);
        assert_eq!(t.cell(0, 6), 0.0);
    }
}
