//! fig_partition: control-plane partition-tolerance sweep (not a paper
//! figure).
//!
//! The paper's manager assumes it can always reach its servers; this
//! experiment measures how the deflation control plane degrades when it
//! cannot. Manager↔server partitions open per the
//! [`simkit::PartitionPlan`] fault domain: the partitioned server runs
//! its VMs autonomously while the manager's view freezes, and on heal an
//! anti-entropy pass replays the divergence log.
//!
//! * **(a)** a partition-*rate* sweep at fixed outage duration — goodput
//!   (billed CPU-hours), preemption probability, windows opened/healed,
//!   mean divergence per heal, and mean outage length. Degradation
//!   should be graceful *and bounded*: a partitioned server's VMs keep
//!   running (and billing) autonomously, so goodput stays within a
//!   couple percent of the partition-free baseline even when a fifth of
//!   the buckets open windows — the partition tax surfaces as
//!   reconciliation load and delayed relaunch, not as a goodput cliff —
//!   and every window heals.
//! * **(b)** a partition-*duration* sweep at fixed rate — longer outages
//!   mean more autonomous activity, so the divergence replayed per heal
//!   should grow with the window length.
//!
//! A low background server-crash rate keeps both panels honest: some
//! crashes land behind open partitions and are only discovered — and
//! their high-priority VMs only relaunched — at heal time.

use cluster::{run_cluster_sim, ClusterManagerConfig, ClusterSimConfig, TraceConfig};
use simkit::{FaultPlan, PartitionPlan, SimDuration};

use crate::{f1, f3, RunCounters, Table};

/// Sweep configuration (shrunk in tests).
#[derive(Debug, Clone)]
pub struct FigPartitionConfig {
    /// Servers in the simulated cluster.
    pub n_servers: usize,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Arrival rate (VMs/hour).
    pub arrivals_per_hour: f64,
    /// Per-(server, bucket) partition-start probabilities for panel (a);
    /// `0.0` is the partition-free baseline.
    pub probs: Vec<f64>,
    /// Outage durations for panel (b).
    pub durations: Vec<SimDuration>,
    /// Fixed duration used by panel (a).
    pub fixed_duration: SimDuration,
    /// Fixed probability used by panel (b).
    pub fixed_prob: f64,
    /// Background whole-server crash rate (per hour), so some crashes
    /// land behind open partitions.
    pub crash_rate: f64,
    /// Fault-plan seed.
    pub seed: u64,
}

impl Default for FigPartitionConfig {
    fn default() -> Self {
        FigPartitionConfig {
            n_servers: 50,
            horizon: SimDuration::from_hours(24),
            arrivals_per_hour: 140.0,
            probs: vec![0.0, 0.02, 0.05, 0.1, 0.2],
            durations: vec![
                SimDuration::from_mins(5),
                SimDuration::from_mins(15),
                SimDuration::from_mins(30),
                SimDuration::from_mins(60),
            ],
            fixed_duration: SimDuration::from_mins(20),
            fixed_prob: 0.1,
            crash_rate: 0.5,
            seed: 7,
        }
    }
}

fn sim_config(cfg: &FigPartitionConfig, prob: f64, duration: SimDuration) -> ClusterSimConfig {
    ClusterSimConfig {
        sharding: Default::default(),
        manager: ClusterManagerConfig {
            n_servers: cfg.n_servers,
            faults: FaultPlan {
                seed: cfg.seed,
                server_crash_rate_per_hour: cfg.crash_rate,
                partitions: PartitionPlan {
                    prob,
                    bucket: SimDuration::from_mins(30),
                    duration,
                },
                ..FaultPlan::none()
            },
            ..ClusterManagerConfig::default()
        },
        trace: TraceConfig {
            arrivals_per_hour: cfg.arrivals_per_hour,
            ..TraceConfig::default()
        },
        horizon: cfg.horizon,
    }
}

/// Billed CPU-hours: high-priority (on-demand) plus effective
/// low-priority (RaaS billing) — what the provider actually sells.
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

fn histogram_mean(r: &cluster::ClusterSimResult, key: &str) -> f64 {
    r.summary
        .get("histograms")
        .and_then(|h| h.get(key))
        .and_then(|h| h.get("mean"))
        .and_then(|v| v.as_f64())
        .unwrap_or(0.0)
}

fn sweep_rows(
    t: &mut Table,
    labels: Vec<String>,
    jobs: Vec<ClusterSimConfig>,
    counters: &mut RunCounters,
) {
    let results = crate::sweep::parallel_map(jobs, |c| run_cluster_sim(&c));
    for (label, r) in labels.into_iter().zip(&results) {
        counters.record(&r.summary);
        let opened = counter(r, "cluster.partitions");
        let healed = counter(r, "cluster.partition_heals");
        let divergence = counter(r, "cluster.partition_divergence");
        t.row(vec![
            label,
            f1(goodput(r)),
            f3(r.preemption_probability),
            f1(opened),
            f1(healed),
            f1(if healed > 0.0 {
                divergence / healed
            } else {
                0.0
            }),
            f1(histogram_mean(r, "partition.window_s")),
            f1(counter(r, "fault.relaunch_rejected")),
        ]);
    }
}

const COLUMNS: [&str; 8] = [
    "sweep",
    "goodput (cpu-h)",
    "P[preempt]",
    "partitions",
    "heals",
    "divergence/heal",
    "mean outage (s)",
    "relaunch rejected",
];

/// Panel (a): goodput and reconciliation load vs partition rate.
pub fn fig_partition_a_with(cfg: &FigPartitionConfig, counters: &mut RunCounters) -> Table {
    let mut t = Table::new(
        "fig_partition_a",
        "Cluster goodput vs manager\u{2194}server partition rate (fixed outage length)",
        COLUMNS.to_vec(),
    );
    let labels = cfg.probs.iter().map(|p| f3(*p)).collect();
    let jobs = cfg
        .probs
        .iter()
        .map(|&p| sim_config(cfg, p, cfg.fixed_duration))
        .collect();
    sweep_rows(&mut t, labels, jobs, counters);
    t.expect(
        "degradation is graceful and bounded: autonomous operation \
         keeps partitioned servers' VMs running and billing, so goodput \
         stays within 2% of the partition-free baseline at every rate \
         (no cliff), the reconciliation load grows with the rate \
         instead, every opened window heals by run end, and the rate-0 \
         row matches the partition-free simulator byte-for-byte",
    );
    t
}

/// Panel (b): divergence per heal vs outage duration.
pub fn fig_partition_b_with(cfg: &FigPartitionConfig, counters: &mut RunCounters) -> Table {
    let mut t = Table::new(
        "fig_partition_b",
        "Reconciliation load vs partition duration (fixed rate)",
        COLUMNS.to_vec(),
    );
    let labels = cfg
        .durations
        .iter()
        .map(|d| format!("{:.0} min", d.as_secs_f64() / 60.0))
        .collect();
    let jobs = cfg
        .durations
        .iter()
        .map(|&d| sim_config(cfg, cfg.fixed_prob, d))
        .collect();
    sweep_rows(&mut t, labels, jobs, counters);
    t.expect(
        "longer outages accumulate more autonomous activity: the \
         divergence replayed per heal and the mean outage length grow \
         with the configured window duration, and every window still \
         heals by run end",
    );
    t
}

/// Both panels at default scale.
pub fn run(counters: &mut RunCounters) -> Vec<Table> {
    let cfg = FigPartitionConfig::default();
    vec![
        fig_partition_a_with(&cfg, counters),
        fig_partition_b_with(&cfg, counters),
    ]
}

/// Both panels at CI scale (finishes in seconds).
pub fn run_small(counters: &mut RunCounters) -> Vec<Table> {
    let cfg = small_cfg();
    vec![
        fig_partition_a_with(&cfg, counters),
        fig_partition_b_with(&cfg, counters),
    ]
}

fn small_cfg() -> FigPartitionConfig {
    FigPartitionConfig {
        n_servers: 15,
        horizon: SimDuration::from_hours(8),
        arrivals_per_hour: 42.0,
        probs: vec![0.0, 0.05, 0.2],
        durations: vec![SimDuration::from_mins(5), SimDuration::from_mins(40)],
        ..FigPartitionConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradation_is_graceful_and_everything_heals() {
        let t = fig_partition_a_with(&small_cfg(), &mut RunCounters::default());
        assert_eq!(t.rows.len(), 3);
        // Bounded degradation: partitions never kill VMs, so billed
        // CPU-hours stay within 2% of the partition-free baseline even
        // at the heaviest rate. The partition tax shows up in the
        // reconciliation columns, not as a goodput cliff.
        let good = t.column(1);
        for (row, g) in good.iter().enumerate().skip(1) {
            assert!(
                (good[0] - g) / good[0] < 0.02,
                "row {row}: goodput cliff under partitions: {good:?}"
            );
        }
        // The partition-free row really opens nothing.
        assert_eq!(t.cell(0, 3), 0.0, "no partitions at rate 0");
        assert_eq!(t.cell(0, 5), 0.0, "no divergence at rate 0");
        // Partitioned rows open windows, every one heals, and more
        // partitioned time means more windows.
        for row in 1..t.rows.len() {
            assert!(t.cell(row, 3) > 0.0, "row {row} should open windows");
            assert_eq!(
                t.cell(row, 3),
                t.cell(row, 4),
                "row {row}: every window must heal by run end"
            );
        }
        assert!(
            t.cell(2, 3) > t.cell(1, 3),
            "a higher rate opens more windows"
        );
    }

    #[test]
    fn divergence_grows_with_outage_length() {
        let t = fig_partition_b_with(&small_cfg(), &mut RunCounters::default());
        assert_eq!(t.rows.len(), 2);
        let (short, long) = (0, 1);
        assert!(
            t.cell(long, 6) > t.cell(short, 6),
            "mean outage must track the configured duration: {} vs {}",
            t.cell(long, 6),
            t.cell(short, 6)
        );
        assert!(
            t.cell(long, 5) >= t.cell(short, 5),
            "longer windows accumulate at least as much divergence per \
             heal: {} vs {}",
            t.cell(long, 5),
            t.cell(short, 5)
        );
        for row in [short, long] {
            assert_eq!(t.cell(row, 3), t.cell(row, 4), "row {row} heals fully");
        }
    }
}
