//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6) from the models in this workspace.
//!
//! Each `figs::*` module exposes a `run()` function returning one or more
//! [`Table`]s; the `src/bin/fig*` binaries print them, and
//! `src/bin/all_experiments` runs the full suite (the data behind
//! `EXPERIMENTS.md`).

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

pub mod figs;
pub mod sweep;

/// One section of every figure binary's run summary that hoists
/// counters out of the cluster simulations the figure ran.
struct CounterSection {
    /// Section name in the run summary.
    name: &'static str,
    /// Counters reported even when no simulation recorded them (they
    /// print as zero).
    keys: &'static [&'static str],
    /// Any other counter whose name starts with one of these joins the
    /// section once a simulation records it.
    prefixes: &'static [&'static str],
}

impl CounterSection {
    fn holds(&self, key: &str) -> bool {
        self.keys.contains(&key) || self.prefixes.iter().any(|p| key.starts_with(p))
    }
}

/// The run-summary counter sections, in output order: faults and
/// resilience, guest distress, live migration, control-plane failover.
const COUNTER_SECTIONS: [CounterSection; 4] = [
    CounterSection {
        name: "faults",
        keys: &[
            "cluster.server_crashes",
            "cluster.unresponsive_vms",
            "cascade.retries",
        ],
        prefixes: &["fault."],
    },
    CounterSection {
        name: "distress",
        keys: &[
            "cluster.oom_kills",
            "cluster.emergency_reinflations",
            "cluster.breaker_trips",
            "cluster.distress_seconds",
        ],
        prefixes: &["distress."],
    },
    CounterSection {
        name: "migration",
        keys: &[
            "cluster.migrations",
            "cluster.migrations_started",
            "cluster.migrations_aborted",
            "cluster.migration_mb",
            "cluster.drains",
        ],
        prefixes: &["migration.", "cluster.defrag"],
    },
    CounterSection {
        name: "failover",
        keys: &[
            "fault.manager_crashes",
            "cluster.recovery_scans",
            "cluster.recovery_inventory_servers",
            "cluster.recovery_divergence",
            "cluster.admission_queue_parked",
            "cluster.admission_queue_overflow",
        ],
        prefixes: &["cluster.admission_queue_", "cluster.recovery_"],
    },
];

/// Process-wide accumulator of every counter some [`COUNTER_SECTIONS`]
/// row holds, scraped from cluster-simulation run summaries; printed by
/// [`run_summary`].
static SIM_COUNTERS: Mutex<BTreeMap<String, f64>> = Mutex::new(BTreeMap::new());

/// Folds the counters of one cluster-sim run summary that belong to any
/// [`COUNTER_SECTIONS`] row into the accumulator behind every fig
/// binary's run summary. Figures that run `run_cluster_sim` call this
/// once per result so fault, distress, migration and failover activity
/// is visible without each figure printing its own columns.
pub fn record_sim_summary(doc: &simkit::JsonValue) {
    let Some(counters) = doc.get("counters").and_then(|c| c.as_object()) else {
        return;
    };
    let mut acc = SIM_COUNTERS.lock().expect("sim counter accumulator");
    for (k, v) in counters {
        let Some(n) = v.as_f64() else { continue };
        if COUNTER_SECTIONS.iter().any(|sec| sec.holds(k)) {
            *acc.entry(k.clone()).or_insert(0.0) += n;
        }
    }
}

/// A printable result table (one per figure/series group).
#[derive(Debug, Clone)]
pub struct Table {
    /// Short id, e.g. `"fig5a"`.
    pub id: &'static str,
    /// What the paper's figure shows.
    pub title: String,
    /// Column names; the first column is the x-axis.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<String>>,
    /// One-line comparison against the paper's claim.
    pub expectation: String,
}

impl Table {
    /// Creates an empty table.
    pub fn new(id: &'static str, title: impl Into<String>, columns: Vec<&str>) -> Self {
        Table {
            id,
            title: title.into(),
            columns: columns.into_iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            expectation: String::new(),
        }
    }

    /// Appends a row (stringifying each cell).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "row width must match columns"
        );
        self.rows.push(cells);
    }

    /// Sets the paper-expectation note.
    pub fn expect(&mut self, note: impl Into<String>) {
        self.expectation = note.into();
    }

    /// Renders as GitHub-flavoured markdown.
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        writeln!(out, "### {} — {}\n", self.id, self.title).expect("write to String");
        writeln!(out, "| {} |", self.columns.join(" | ")).expect("write to String");
        writeln!(
            out,
            "|{}|",
            self.columns
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        )
        .expect("write to String");
        for row in &self.rows {
            writeln!(out, "| {} |", row.join(" | ")).expect("write to String");
        }
        if !self.expectation.is_empty() {
            writeln!(out, "\n*Paper check:* {}", self.expectation).expect("write to String");
        }
        out
    }

    /// Renders as tab-separated values (for plotting).
    pub fn to_tsv(&self) -> String {
        let mut out = String::new();
        writeln!(out, "{}", self.columns.join("\t")).expect("write to String");
        for row in &self.rows {
            writeln!(out, "{}", row.join("\t")).expect("write to String");
        }
        out
    }

    /// Prints the markdown rendering to stdout.
    pub fn print(&self) {
        println!("{}", self.to_markdown());
    }

    /// Looks up a cell as f64 (for tests); row/col are 0-based, col 0 is
    /// the x column.
    pub fn cell(&self, row: usize, col: usize) -> f64 {
        self.rows[row][col]
            .trim_end_matches('%')
            .parse()
            .unwrap_or_else(|_| {
                panic!("cell ({row},{col}) = {:?} not numeric", self.rows[row][col])
            })
    }

    /// Column values as f64.
    pub fn column(&self, col: usize) -> Vec<f64> {
        (0..self.rows.len()).map(|r| self.cell(r, col)).collect()
    }
}

/// Builds the machine-readable observability report for one figure run:
/// a JSON document with per-table row/column counts, aggregate counters,
/// and the wall-clock time the experiment took. Every `fig*` binary
/// prints this after its tables so harnesses can scrape results without
/// parsing markdown.
pub fn run_summary(run: &str, tables: &[Table], wall_time_s: f64) -> simkit::JsonValue {
    let mut obs = simkit::Observability::new();
    for t in tables {
        obs.metrics.incr("bench.tables");
        obs.metrics.add("bench.rows", t.rows.len() as u64);
        obs.metrics
            .observe("bench.rows_per_table", t.rows.len() as f64);
    }
    obs.metrics.observe("bench.wall_time_s", wall_time_s);
    let mut doc = obs.run_summary(run);
    let mut tables_json = simkit::JsonValue::object();
    for t in tables {
        tables_json.set(
            t.id,
            simkit::JsonValue::object()
                .with("title", t.title.as_str())
                .with("columns", t.columns.len())
                .with("rows", t.rows.len())
                .with("checked", !t.expectation.is_empty()),
        );
    }
    doc.set("tables", tables_json);
    let acc = SIM_COUNTERS.lock().expect("sim counter accumulator");
    for sec in &COUNTER_SECTIONS {
        let mut section = simkit::JsonValue::object();
        for key in sec.keys {
            section.set(key, 0.0);
        }
        for (k, v) in acc.iter().filter(|(k, _)| sec.holds(k)) {
            section.set(k, *v);
        }
        doc.set(sec.name, section);
    }
    doc
}

/// Prints a figure run end-to-end: the markdown tables followed by the
/// machine-readable run summary (fenced by a marker line for scraping).
pub fn print_run(run: &str, runner: impl FnOnce() -> Vec<Table>) {
    let start = std::time::Instant::now();
    let tables = runner();
    let wall = start.elapsed().as_secs_f64();
    for t in &tables {
        t.print();
    }
    println!("--- run summary ({run}) ---");
    println!("{}", run_summary(run, &tables, wall).to_pretty());
}

/// Formats a float with 3 decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 1 decimal.
pub fn f1(x: f64) -> String {
    format!("{x:.1}")
}

/// Formats a fraction as a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.0}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new("figX", "demo", vec!["x", "y"]);
        t.row(vec!["1".into(), "2.500".into()]);
        t.row(vec!["50%".into(), "3.000".into()]);
        t.expect("y grows");
        t
    }

    #[test]
    fn markdown_rendering() {
        let md = sample().to_markdown();
        assert!(md.contains("### figX — demo"));
        assert!(md.contains("| x | y |"));
        assert!(md.contains("| 1 | 2.500 |"));
        assert!(md.contains("*Paper check:* y grows"));
    }

    #[test]
    fn tsv_rendering() {
        let tsv = sample().to_tsv();
        assert_eq!(tsv.lines().count(), 3);
        assert!(tsv.starts_with("x\ty\n"));
    }

    #[test]
    fn cell_parsing_handles_percent() {
        let t = sample();
        assert_eq!(t.cell(0, 1), 2.5);
        assert_eq!(t.cell(1, 0), 50.0);
        assert_eq!(t.column(1), vec![2.5, 3.0]);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_checked() {
        let mut t = Table::new("f", "t", vec!["a", "b"]);
        t.row(vec!["1".into()]);
    }

    fn section(name: &str) -> &'static CounterSection {
        COUNTER_SECTIONS
            .iter()
            .find(|sec| sec.name == name)
            .expect("known section")
    }

    #[test]
    fn run_summary_is_machine_readable() {
        let doc = run_summary("figX", &[sample(), sample()], 0.25);
        let text = doc.to_pretty();
        let parsed = simkit::JsonValue::parse(&text).expect("summary parses");
        assert_eq!(parsed.get("run").and_then(|v| v.as_str()), Some("figX"));
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("bench.tables"))
                .and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            parsed
                .get("counters")
                .and_then(|c| c.get("bench.rows"))
                .and_then(|v| v.as_f64()),
            Some(4.0)
        );
        let t = parsed.get("tables").and_then(|t| t.get("figX")).unwrap();
        assert_eq!(t.get("rows").and_then(|v| v.as_f64()), Some(2.0));
        assert_eq!(t.get("checked").and_then(|v| v.as_bool()), Some(true));
    }

    #[test]
    fn run_summary_reports_fault_counters() {
        // The resilience counters are always present (zero by default)…
        let doc = run_summary("figY", &[sample()], 0.1);
        let faults = doc.get("faults").expect("faults section");
        for key in section("faults").keys {
            assert!(
                faults.get(key).and_then(|v| v.as_f64()).is_some(),
                "{key} missing"
            );
        }
        // …and fold in whatever the simulations recorded. (The
        // accumulator is process-wide, so assert lower bounds: other
        // tests may run simulations concurrently.)
        let sim = simkit::JsonValue::object().with(
            "counters",
            simkit::JsonValue::object()
                .with("cluster.server_crashes", 2.0)
                .with("fault.injected.agent_down", 5.0)
                .with("cluster.launched", 100.0),
        );
        record_sim_summary(&sim);
        let doc = run_summary("figY", &[sample()], 0.1);
        let faults = doc.get("faults").expect("faults section");
        let get = |k: &str| faults.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(get("cluster.server_crashes") >= 2.0);
        assert!(get("fault.injected.agent_down") >= 5.0);
        // Non-fault counters are not hoisted into the faults section.
        assert!(faults.get("cluster.launched").is_none());
    }

    #[test]
    fn run_summary_reports_distress_counters() {
        // The distress counters are always present (zero by default)…
        let doc = run_summary("figZ", &[sample()], 0.1);
        let distress = doc.get("distress").expect("distress section");
        for key in section("distress").keys {
            assert!(
                distress.get(key).and_then(|v| v.as_f64()).is_some(),
                "{key} missing"
            );
        }
        // …and fold in whatever the simulations recorded (lower bounds:
        // the accumulator is process-wide).
        let sim = simkit::JsonValue::object().with(
            "counters",
            simkit::JsonValue::object()
                .with("cluster.oom_kills", 3.0)
                .with("distress.hard_samples", 9.0)
                .with("cluster.launched", 100.0),
        );
        record_sim_summary(&sim);
        let doc = run_summary("figZ", &[sample()], 0.1);
        let distress = doc.get("distress").expect("distress section");
        let get = |k: &str| distress.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(get("cluster.oom_kills") >= 3.0);
        assert!(get("distress.hard_samples") >= 9.0);
        // Non-distress counters are not hoisted into the section.
        assert!(distress.get("cluster.launched").is_none());
    }

    #[test]
    fn run_summary_reports_migration_counters() {
        // The migration counters are always present (zero by default)…
        let doc = run_summary("figM", &[sample()], 0.1);
        let migration = doc.get("migration").expect("migration section");
        for key in section("migration").keys {
            assert!(
                migration.get(key).and_then(|v| v.as_f64()).is_some(),
                "{key} missing"
            );
        }
        // …and fold in whatever the simulations recorded (lower bounds:
        // the accumulator is process-wide).
        let sim = simkit::JsonValue::object().with(
            "counters",
            simkit::JsonValue::object()
                .with("cluster.migrations", 4.0)
                .with("migration.downtime_s", 1.5)
                .with("cluster.defrag_rounds", 2.0)
                .with("cluster.launched", 100.0),
        );
        record_sim_summary(&sim);
        let doc = run_summary("figM", &[sample()], 0.1);
        let migration = doc.get("migration").expect("migration section");
        let get = |k: &str| migration.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(get("cluster.migrations") >= 4.0);
        assert!(get("migration.downtime_s") >= 1.5);
        assert!(get("cluster.defrag_rounds") >= 2.0);
        // Non-migration counters are not hoisted into the section.
        assert!(migration.get("cluster.launched").is_none());
    }

    #[test]
    fn run_summary_reports_failover_counters() {
        // The failover counters are always present (zero by default)…
        let doc = run_summary("figF", &[sample()], 0.1);
        let failover = doc.get("failover").expect("failover section");
        for key in section("failover").keys {
            assert!(
                failover.get(key).and_then(|v| v.as_f64()).is_some(),
                "{key} missing"
            );
        }
        // …and fold in whatever the simulations recorded (lower bounds:
        // the accumulator is process-wide).
        let sim = simkit::JsonValue::object().with(
            "counters",
            simkit::JsonValue::object()
                .with("fault.manager_crashes", 2.0)
                .with("cluster.admission_queue_deferred", 7.0)
                .with("cluster.recovery_divergence", 11.0)
                .with("cluster.launched", 100.0),
        );
        record_sim_summary(&sim);
        let doc = run_summary("figF", &[sample()], 0.1);
        let failover = doc.get("failover").expect("failover section");
        let get = |k: &str| failover.get(k).and_then(|v| v.as_f64()).unwrap_or(0.0);
        assert!(get("fault.manager_crashes") >= 2.0);
        assert!(get("cluster.admission_queue_deferred") >= 7.0);
        assert!(get("cluster.recovery_divergence") >= 11.0);
        // Non-failover counters are not hoisted into the section.
        assert!(failover.get("cluster.launched").is_none());
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(pct(0.5), "50%");
    }
}
