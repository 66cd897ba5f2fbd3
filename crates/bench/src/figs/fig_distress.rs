//! fig_distress: guest-distress ablation (not a paper figure).
//!
//! The paper's cluster evaluation assumes deflation targets stay above
//! each guest's working set; this experiment measures what happens when
//! they do not. It sweeps deflation aggressiveness — the trace's
//! `min_size_fraction`, i.e. how deep below spec the cascade may cut —
//! on a memory-balanced cluster (the default instance mix is CPU-bound,
//! so memory would otherwise never contend) and compares two arms:
//!
//! * **unguarded** ([`DistressConfig::unguarded`]): consequences only —
//!   sustained hard distress fires the guest OOM killer, thrashing
//!   guests run slower;
//! * **guarded** ([`DistressConfig::guarded`]): the same consequences
//!   plus the full mitigation loop — emergency reinflation from healthy
//!   donors, the per-VM circuit breaker, and the working-set floor.
//!
//! The guarded curve must dominate: strictly fewer OOM kills wherever
//! unguarded deflation kills at all, no kills where it kills none, and
//! goodput within 2% of unguarded at zero-distress operating points.

use cluster::{
    run_cluster_sim, ClusterManagerConfig, ClusterSimConfig, DistressConfig, TraceConfig,
};
use deflate_core::ResourceVector;
use simkit::SimDuration;

use crate::{f1, f3, RunCounters, Table};

/// Sweep configuration (shrunk in tests).
#[derive(Debug, Clone)]
pub struct FigDistressConfig {
    /// Servers in the simulated cluster.
    pub n_servers: usize,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Arrival rate (VMs/hour).
    pub arrivals_per_hour: f64,
    /// Aggressiveness sweep: each VM's minimum size as a fraction of its
    /// spec, most conservative first. At 0.60 the minimum sits above the
    /// resident set and distress is unreachable; at 0.15 the cascade may
    /// cut deep below the working set.
    pub min_size_fractions: Vec<f64>,
    /// Trace seed.
    pub seed: u64,
}

impl Default for FigDistressConfig {
    fn default() -> Self {
        FigDistressConfig {
            n_servers: 20,
            horizon: SimDuration::from_hours(6),
            arrivals_per_hour: 150.0,
            min_size_fractions: vec![0.60, 0.45, 0.35, 0.25, 0.15],
            seed: 7,
        }
    }
}

/// Memory-balanced server capacity: the stock 16-CPU/64-GiB shape never
/// binds on memory with the default instance mix, so deflation would
/// only ever cut CPU and no guest could be memory-distressed.
fn balanced_capacity() -> ResourceVector {
    ResourceVector::new(16.0, 32_768.0, 400.0, 800.0)
}

fn sim_config(cfg: &FigDistressConfig, min_size_fraction: f64, guarded: bool) -> ClusterSimConfig {
    ClusterSimConfig {
        sharding: Default::default(),
        manager: ClusterManagerConfig {
            n_servers: cfg.n_servers,
            server_capacity: balanced_capacity(),
            distress: if guarded {
                DistressConfig::guarded()
            } else {
                DistressConfig::unguarded()
            },
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

/// Billed CPU-hours, as in `fig_faults`: OOM-killed guests stop earning
/// until relaunched and thrashing guests earn at their slowed rate, so
/// distress shows up here directly.
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

/// Fraction of low-priority sample time spent distressed.
fn p_distress(r: &cluster::ClusterSimResult) -> f64 {
    let sampled = counter(r, "distress.lowpri_sample_seconds");
    if sampled > 0.0 {
        counter(r, "cluster.distress_seconds") / sampled
    } else {
        0.0
    }
}

/// The sweep: one row per aggressiveness level, both arms side by side.
pub fn fig_distress_with(cfg: &FigDistressConfig, counters: &mut RunCounters) -> Table {
    let mut t = Table::new(
        "fig_distress",
        "Guest OOM kills, goodput and P[distress] vs deflation aggressiveness: \
         unguarded vs guarded (emergency reinflation + breaker + floor)",
        vec![
            "min size frac",
            "oom kills (u)",
            "oom kills (g)",
            "goodput u (cpu-h)",
            "goodput g (cpu-h)",
            "P[distress] u",
            "P[distress] g",
            "rescues (g)",
            "breaker trips (g)",
        ],
    );
    let jobs: Vec<ClusterSimConfig> = cfg
        .min_size_fractions
        .iter()
        .flat_map(|&msf| [sim_config(cfg, msf, false), sim_config(cfg, msf, true)])
        .collect();
    let results = crate::sweep::parallel_map(jobs, |c| run_cluster_sim(&c));
    for (i, &msf) in cfg.min_size_fractions.iter().enumerate() {
        let (u, g) = (&results[2 * i], &results[2 * i + 1]);
        counters.record(&u.summary);
        counters.record(&g.summary);
        t.row(vec![
            format!("{msf:.2}"),
            format!("{}", u.stats.oom_kills),
            format!("{}", g.stats.oom_kills),
            f1(goodput(u)),
            f1(goodput(g)),
            f3(p_distress(u)),
            f3(p_distress(g)),
            format!("{}", g.stats.emergency_reinflations),
            f1(counter(g, "cluster.breaker_trips")),
        ]);
    }
    t.expect(
        "the guarded loop dominates: strictly fewer OOM kills than \
         unguarded deflation at every level where unguarded kills at all \
         (and zero where it kills none), with goodput no worse than 2% \
         below unguarded at zero-distress operating points",
    );
    t
}

/// The sweep at default scale.
pub fn run(counters: &mut RunCounters) -> Vec<Table> {
    vec![fig_distress_with(&FigDistressConfig::default(), counters)]
}

/// The sweep at CI scale (finishes in seconds).
pub fn run_small(counters: &mut RunCounters) -> Vec<Table> {
    vec![fig_distress_with(&small_config(), counters)]
}

fn small_config() -> FigDistressConfig {
    FigDistressConfig {
        n_servers: 10,
        horizon: SimDuration::from_hours(4),
        arrivals_per_hour: 75.0,
        min_size_fractions: vec![0.60, 0.35, 0.15],
        ..FigDistressConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarded_loop_dominates() {
        let t = fig_distress_with(&small_config(), &mut RunCounters::default());
        assert_eq!(t.rows.len(), 3);
        let (kills_u, kills_g) = (t.column(1), t.column(2));
        // The sweep must actually reach distress somewhere, and the most
        // conservative level must be a zero-distress operating point.
        assert!(
            kills_u.iter().any(|&k| k > 0.0),
            "no unguarded kills anywhere: {kills_u:?}"
        );
        assert_eq!(kills_u[0], 0.0, "min 0.60 must be distress-free");
        for r in 0..t.rows.len() {
            let (ku, kg) = (kills_u[r], kills_g[r]);
            if ku > 0.0 {
                assert!(kg < ku, "row {r}: guarded kills {kg} !< unguarded {ku}");
            } else {
                assert_eq!(kg, 0.0, "row {r}: guarded kills where unguarded has none");
            }
            // At zero-distress points the guardrails must be (nearly)
            // free: goodput within 2% of the unguarded arm.
            if t.cell(r, 5) == 0.0 {
                let (gu, gg) = (t.cell(r, 3), t.cell(r, 4));
                assert!(
                    gg >= 0.98 * gu,
                    "row {r}: guarded goodput {gg} < 0.98 × unguarded {gu}"
                );
            }
        }
    }
}
