//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation (§6) from the models in this workspace, plus the
//! ablations, fault sweeps and §8 pricing experiment this repository adds.
//!
//! Each `figs::*` module builds one or more [`Table`]s; the
//! [`figs::FIGURES`] registry lists every experiment, and the `fig`
//! binary runs one of them, or all of them (the data behind
//! `EXPERIMENTS.md` and `results/`).

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;

pub mod figs;
pub mod sweep;

/// One section of every `fig` run summary that hoists
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

/// The counters hoisted out of the cluster simulations one figure run
/// did: every counter some [`COUNTER_SECTIONS`] row holds, summed per
/// key. A figure run returns them next to its tables, and
/// [`run_summary`] prints them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunCounters(BTreeMap<String, f64>);

impl RunCounters {
    /// Folds in the counters of one cluster-sim run summary that belong
    /// to any [`COUNTER_SECTIONS`] row, so fault, distress, migration and
    /// failover activity is visible without each figure printing its own
    /// columns.
    pub(crate) fn record(&mut self, doc: &simkit::JsonValue) {
        let Some(counters) = doc.get("counters").and_then(|c| c.as_object()) else {
            return;
        };
        for (k, v) in counters {
            let Some(n) = v.as_f64() else { continue };
            if COUNTER_SECTIONS.iter().any(|sec| sec.holds(k)) {
                *self.0.entry(k.clone()).or_insert(0.0) += n;
            }
        }
    }

    /// Adds another run's counters to these.
    pub(crate) fn merge(&mut self, other: &RunCounters) {
        for (k, v) in &other.0 {
            *self.0.entry(k.clone()).or_insert(0.0) += v;
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
/// a JSON document with per-table row/column counts, the run's
/// simulation `counters` by section, and the wall-clock time the
/// experiment took. The `fig` binary prints this after its tables so
/// harnesses can scrape results without parsing markdown.
pub fn run_summary(
    run: &str,
    tables: &[Table],
    counters: &RunCounters,
    wall_time_s: f64,
) -> simkit::JsonValue {
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
    for sec in &COUNTER_SECTIONS {
        let mut section = simkit::JsonValue::object();
        for key in sec.keys {
            section.set(key, 0.0);
        }
        for (k, v) in counters.0.iter().filter(|(k, _)| sec.holds(k)) {
            section.set(k, *v);
        }
        doc.set(sec.name, section);
    }
    doc
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
        let doc = run_summary("figX", &[sample(), sample()], &RunCounters::default(), 0.25);
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

    /// Records one cluster-sim summary carrying `recorded` (plus a
    /// counter no section holds) twice, and checks that the `name`
    /// section of the run summary holds exactly its always-present keys
    /// at zero and twice each recorded value.
    fn assert_section_counts(name: &str, recorded: &[(&str, f64)]) {
        let mut sim_counters = simkit::JsonValue::object().with("cluster.launched", 100.0);
        for &(k, v) in recorded {
            sim_counters.set(k, v);
        }
        let sim = simkit::JsonValue::object().with("counters", sim_counters);
        let mut counters = RunCounters::default();
        counters.record(&sim);
        counters.record(&sim);
        let doc = run_summary("figY", &[sample()], &counters, 0.1);
        let got: BTreeMap<&str, f64> = doc
            .get(name)
            .and_then(|sec| sec.as_object())
            .expect("section present")
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_f64().expect("numeric counter")))
            .collect();
        let mut want: BTreeMap<&str, f64> = section(name).keys.iter().map(|&k| (k, 0.0)).collect();
        for &(k, v) in recorded {
            want.insert(k, 2.0 * v);
        }
        assert_eq!(got, want);
    }

    #[test]
    fn run_summary_reports_fault_counters() {
        assert_section_counts(
            "faults",
            &[
                ("cluster.server_crashes", 2.0),
                ("fault.injected.agent_down", 5.0),
            ],
        );
    }

    #[test]
    fn run_summary_reports_distress_counters() {
        assert_section_counts(
            "distress",
            &[("cluster.oom_kills", 3.0), ("distress.hard_samples", 9.0)],
        );
    }

    #[test]
    fn run_summary_reports_migration_counters() {
        assert_section_counts(
            "migration",
            &[
                ("cluster.migrations", 4.0),
                ("migration.downtime_s", 1.5),
                ("cluster.defrag_rounds", 2.0),
            ],
        );
    }

    #[test]
    fn run_summary_reports_failover_counters() {
        assert_section_counts(
            "failover",
            &[
                ("fault.manager_crashes", 2.0),
                ("cluster.admission_queue_deferred", 7.0),
                ("cluster.recovery_divergence", 11.0),
            ],
        );
    }

    #[test]
    fn merge_adds_per_key() {
        let sim = |k: &str, v: f64| {
            simkit::JsonValue::object().with("counters", simkit::JsonValue::object().with(k, v))
        };
        let (mut a, mut b) = (RunCounters::default(), RunCounters::default());
        a.record(&sim("cluster.oom_kills", 3.0));
        b.record(&sim("cluster.oom_kills", 4.0));
        b.record(&sim("cluster.drains", 1.0));
        a.merge(&b);
        let mut want = RunCounters::default();
        want.record(&sim("cluster.oom_kills", 7.0));
        want.record(&sim("cluster.drains", 1.0));
        assert_eq!(a, want);
    }

    /// Parses the `### <id>` tables under "Raw results" in
    /// EXPERIMENTS.md into rows of cells, keyed by id.
    fn doc_tables(doc: &str) -> BTreeMap<String, Vec<Vec<String>>> {
        let raw = doc.split_once("\n## Raw results\n").expect("Raw results").1;
        let mut tables = BTreeMap::new();
        let mut lines = raw.lines();
        while let Some(line) = lines.next() {
            let Some(heading) = line.strip_prefix("### ") else {
                continue;
            };
            let id = heading.split(" — ").next().expect("id").to_string();
            let rows = lines
                .by_ref()
                .skip_while(|l| l.trim().is_empty())
                .take_while(|l| l.starts_with('|'))
                .filter(|l| !l.starts_with("|---"))
                .map(|l| {
                    l.trim_matches('|')
                        .split('|')
                        .map(|c| c.trim().to_string())
                        .collect()
                })
                .collect();
            tables.insert(id, rows);
        }
        tables
    }

    #[test]
    fn experiments_doc_matches_results() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let doc = std::fs::read_to_string(root.join("EXPERIMENTS.md")).expect("EXPERIMENTS.md");
        let documented = doc_tables(&doc);
        let mut committed = BTreeMap::new();
        for entry in std::fs::read_dir(root.join("results")).expect("results/") {
            let path = entry.expect("results/ entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).expect("name");
            let Some(id) = name.strip_suffix(".tsv") else {
                continue;
            };
            let tsv = std::fs::read_to_string(&path).expect("TSV");
            let rows: Vec<Vec<String>> = tsv
                .lines()
                .map(|l| l.split('\t').map(String::from).collect())
                .collect();
            committed.insert(id.to_string(), rows);
        }
        for (id, rows) in &committed {
            let doc_rows = documented
                .get(id)
                .unwrap_or_else(|| panic!("results/{id}.tsv has no section in EXPERIMENTS.md"));
            assert_eq!(doc_rows.len(), rows.len(), "{id}: row count");
            for (r, (d, t)) in doc_rows.iter().zip(rows).enumerate() {
                assert_eq!(d, t, "{id} row {r}: EXPERIMENTS.md vs results/{id}.tsv");
            }
        }
        for id in documented.keys() {
            assert!(
                committed.contains_key(id),
                "{id} is documented but not in results/"
            );
        }
    }

    #[test]
    fn formatters() {
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f1(1.26), "1.3");
        assert_eq!(pct(0.5), "50%");
    }
}
