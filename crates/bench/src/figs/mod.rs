//! One module per experiment; [`FIGURES`] lists them all, and each
//! entry's run rebuilds that experiment's tables.

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

use crate::{RunCounters, Table};

/// What one experiment run produces: its tables and the counters of the
/// cluster simulations behind them.
#[derive(Debug, Default)]
pub struct FigureRun {
    /// The tables, in the experiment's order.
    pub tables: Vec<Table>,
    /// The simulations' counters, for [`crate::run_summary`].
    pub counters: RunCounters,
}

/// A table builder: records its simulations' counters into the argument.
type Builder = fn(&mut RunCounters) -> Vec<Table>;

/// One experiment the `fig` binary rebuilds.
pub struct Figure {
    /// The `fig` argument; `fig_<name>` labels the run summary and
    /// names its file (`fig_<name>_summary.json`).
    pub name: &'static str,
    /// The full-size run.
    full: Builder,
    /// The CI-sized run (`--small`), if the experiment has one.
    small: Option<Builder>,
}

impl Figure {
    /// Runs the experiment, CI-sized if `small`; `None` if it has no
    /// CI-sized variant.
    pub fn run(&self, small: bool) -> Option<FigureRun> {
        let build = if small { self.small? } else { self.full };
        let mut counters = RunCounters::default();
        let tables = build(&mut counters);
        Some(FigureRun { tables, counters })
    }
}

/// Every experiment, in paper order: the paper's figures, the
/// ablations, the five resilience experiments, and §8 pricing.
pub static FIGURES: [Figure; 12] = [
    Figure {
        name: "fig1",
        full: |_| vec![fig1::run()],
        small: None,
    },
    Figure {
        name: "fig5",
        full: |_| fig5::run(),
        small: None,
    },
    Figure {
        name: "fig6",
        full: |_| vec![fig6::run()],
        small: None,
    },
    Figure {
        name: "fig7",
        full: |_| fig7::run(),
        small: None,
    },
    Figure {
        name: "fig8",
        full: fig8::run,
        small: None,
    },
    Figure {
        name: "ablations",
        full: ablations::run,
        small: None,
    },
    Figure {
        name: "faults",
        full: fig_faults::run,
        small: Some(fig_faults::run_small),
    },
    Figure {
        name: "distress",
        full: fig_distress::run,
        small: Some(fig_distress::run_small),
    },
    Figure {
        name: "migration",
        full: fig_migration::run,
        small: Some(fig_migration::run_small),
    },
    Figure {
        name: "partition",
        full: fig_partition::run,
        small: Some(fig_partition::run_small),
    },
    Figure {
        name: "failover",
        full: fig_failover::run,
        small: Some(fig_failover::run_small),
    },
    Figure {
        name: "pricing",
        full: |c| vec![pricing_exp::run(c)],
        small: None,
    },
];

/// Looks an experiment up by name.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// Runs every experiment at full size.
///
/// Each experiment is independent (every simulation is seeded), so they
/// run concurrently on the sweep runner; tables and counters are merged
/// in registry order regardless of completion order.
pub fn run_all() -> FigureRun {
    let runs = crate::sweep::parallel_map(FIGURES.iter().collect(), |f: &Figure| {
        f.run(false).expect("every experiment has a full-size run")
    });
    let mut all = FigureRun::default();
    for run in runs {
        all.tables.extend(run.tables);
        all.counters.merge(&run.counters);
    }
    all
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
        assert!(
            figure("all").is_none(),
            "`all` is the driver's, not an entry"
        );
    }
}
