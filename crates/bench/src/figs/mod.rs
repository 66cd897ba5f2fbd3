//! One module per paper figure; each `run()` rebuilds that figure's data.

pub mod ablations;
pub mod fig1;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig_distress;
pub mod fig_failover;
pub mod fig_faults;
pub mod fig_migration;
pub mod fig_partition;
pub mod pricing_exp;

use crate::Table;

/// One resilience experiment the `fig` binary rebuilds.
pub struct Figure {
    /// The `fig` argument; `fig_<name>` labels the run summary and
    /// names its file (`fig_<name>_summary.json`).
    pub name: &'static str,
    /// The full-size run.
    pub run: fn() -> Vec<Table>,
    /// The CI-sized run (`--small`).
    pub run_small: fn() -> Vec<Table>,
}

/// The experiments behind `fig <name> [--small] [--out DIR]`.
pub static FIGURES: [Figure; 5] = [
    Figure {
        name: "faults",
        run: fig_faults::run,
        run_small: fig_faults::run_small,
    },
    Figure {
        name: "distress",
        run: fig_distress::run,
        run_small: fig_distress::run_small,
    },
    Figure {
        name: "migration",
        run: fig_migration::run,
        run_small: fig_migration::run_small,
    },
    Figure {
        name: "partition",
        run: fig_partition::run,
        run_small: fig_partition::run_small,
    },
    Figure {
        name: "failover",
        run: fig_failover::run,
        run_small: fig_failover::run_small,
    },
];

/// Looks an experiment up by name.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Runs every experiment, in paper order.
///
/// Each figure module is independent (every simulation is seeded), so
/// the modules run concurrently on the sweep runner; the result is
/// flattened in paper order regardless of completion order.
pub fn run_all() -> Vec<Table> {
    type Job = Box<dyn FnOnce() -> Vec<Table> + Send>;
    let mut jobs: Vec<Job> = vec![
        Box::new(|| vec![fig1::run()]),
        Box::new(fig5::run),
        Box::new(|| vec![fig6::run()]),
        Box::new(fig7::run),
        Box::new(fig8::run),
        Box::new(ablations::run),
    ];
    jobs.extend(FIGURES.iter().map(|f| -> Job { Box::new(f.run) }));
    jobs.push(Box::new(|| vec![pricing_exp::run()]));
    crate::sweep::parallel_map(jobs, |job| job())
        .into_iter()
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_figure_resolves_by_name() {
        for f in &FIGURES {
            assert!(std::ptr::eq(figure(f.name).expect("registered"), f));
        }
        assert!(figure("fig_faults").is_none(), "names carry no prefix");
        assert!(figure("fig8").is_none(), "paper figures have own binaries");
    }
}
