//! The §8 pricing discussion as an experiment: provider revenue under
//! the two transient-billing models, with and without deflation.
//!
//! The paper argues deflatable VMs "can allow providers to charge higher
//! prices for their surplus resources" and that the resource-as-a-service
//! model "fits well". This table quantifies both on the trace-driven
//! cluster: deflation admits more transient VM-hours (more revenue at
//! identical prices), and RaaS billing refunds deflated capacity unless
//! a premium prices the higher utility in.

use cluster::{
    revenue, run_cluster_sim, ClusterManagerConfig, ClusterSimConfig, Rates, TraceConfig,
    TransientPricing,
};
use simkit::SimDuration;

use crate::{f1, pct, RunCounters, Table};

/// Revenue table across load levels and billing models.
pub fn run(counters: &mut RunCounters) -> Table {
    run_with(40, SimDuration::from_hours(12), counters)
}

/// [`run`] with explicit scale (shrunk in tests).
pub fn run_with(n_servers: usize, horizon: SimDuration, counters: &mut RunCounters) -> Table {
    let mut t = Table::new(
        "pricing",
        "Provider revenue (USD) by reclamation and billing model",
        vec![
            "offered load",
            "preempt-only flat",
            "deflation flat",
            "deflation RaaS",
            "RaaS/flat",
        ],
    );
    let rates = Rates::default();
    // Scale the arrival rate to the cluster size (≈ per-16-CPU-server).
    let per_server_rate = [0.8, 1.6, 2.4, 3.2];
    for mult in per_server_rate {
        let rate = mult * n_servers as f64;
        let mut results = Vec::new();
        for deflation in [false, true] {
            let cfg = ClusterSimConfig {
                sharding: Default::default(),
                manager: ClusterManagerConfig {
                    n_servers,
                    deflation_enabled: deflation,
                    ..ClusterManagerConfig::default()
                },
                trace: TraceConfig {
                    arrivals_per_hour: rate,
                    ..TraceConfig::default()
                },
                horizon,
            };
            let r = run_cluster_sim(&cfg);
            counters.record(&r.summary);
            results.push(r);
        }
        let pre_flat = revenue(&results[0], &rates, TransientPricing::FlatDiscount).total();
        let defl_flat = revenue(&results[1], &rates, TransientPricing::FlatDiscount).total();
        let defl_raas = revenue(&results[1], &rates, TransientPricing::ResourceAsAService).total();
        t.row(vec![
            pct(results[1].offered_utilization),
            f1(pre_flat),
            f1(defl_flat),
            f1(defl_raas),
            format!("{:.2}", defl_raas / defl_flat),
        ]);
    }
    t.expect(
        "deflation earns more than preemption-only at every load (more \
         admitted transient VM-hours); RaaS with a 25% premium lands \
         near flat billing while only charging for delivered resources",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deflation_revenue_dominates() {
        let t = run_with(12, SimDuration::from_hours(6), &mut RunCounters::default());
        for r in 1..t.rows.len() {
            // Under pressure, deflation out-earns preemption-only.
            assert!(
                t.cell(r, 2) >= t.cell(r, 1) * 0.99,
                "row {r}: deflation {} vs preempt {}",
                t.cell(r, 2),
                t.cell(r, 1)
            );
        }
        // RaaS/flat ratio stays in a sane band.
        for r in 0..t.rows.len() {
            let ratio = t.cell(r, 4);
            assert!((0.5..=1.6).contains(&ratio), "row {r}: ratio {ratio}");
        }
    }
}
