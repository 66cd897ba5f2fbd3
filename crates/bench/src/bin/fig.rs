//! Rebuilds one experiment from the `bench::figs::FIGURES` registry, or
//! all of them, prints the tables and then the machine-readable run
//! summary:
//!
//! ```text
//! cargo run --release -p bench --bin fig -- <name|all> [--small] [--out DIR]
//! ```
//!
//! * `<name>`: a paper figure (`fig1`, `fig5`, `fig6`, `fig7`, `fig8`),
//!   `ablations`, a resilience experiment — `faults` (seeded chaos plan:
//!   agent crashes, message loss, hotplug stalls, server crashes),
//!   `distress` (guest OOM/thrash vs deflation aggressiveness, guard off
//!   vs on), `migration` (deflation-only vs migration-only vs combined),
//!   `partition` (manager↔server partition rate and duration) or
//!   `failover` (manager crash rate, downtime and admission-queue
//!   policy) — or `pricing` (§8 revenue by billing model);
//! * `all`: every experiment, run concurrently (the data behind
//!   `results/`);
//! * `--small`: the CI-sized configuration (the resilience experiments
//!   only);
//! * `--out DIR`: also write one TSV per table plus the run summary as
//!   `fig_<name>_summary.json` under `DIR`.

#![forbid(unsafe_code)]

use std::fs;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

use bench::figs::{figure, run_all, FIGURES};

fn usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("usage: fig <{}|all> [--small] [--out DIR]", names.join("|"));
    exit(2);
}

fn write(path: &Path, contents: &str) {
    if let Err(e) = fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        exit(1);
    }
}

fn main() {
    let mut name: Option<String> = None;
    let mut small = false;
    let mut out_dir: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => small = true,
            "--out" => match args.next() {
                Some(dir) => out_dir = Some(dir),
                None => {
                    eprintln!("--out needs a directory");
                    exit(2);
                }
            },
            n if name.is_none() && !n.starts_with("--") => {
                if n != "all" && figure(n).is_none() {
                    eprintln!("unknown experiment {n}");
                    usage();
                }
                name = Some(arg);
            }
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    let Some(name) = name else { usage() };

    let start = Instant::now();
    let run = match figure(&name) {
        Some(fig) => fig.run(small),
        None if !small => Some(run_all()),
        None => None,
    };
    let Some(run) = run else {
        eprintln!("{name} has no CI-sized (--small) variant");
        usage();
    };
    let wall = start.elapsed().as_secs_f64();
    for t in &run.tables {
        t.print();
    }
    let label = format!("fig_{name}");
    let summary = bench::run_summary(&label, &run.tables, &run.counters, wall).to_pretty();
    println!("--- run summary ({label}) ---");
    println!("{summary}");
    if let Some(dir) = out_dir {
        let dir = Path::new(&dir);
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            exit(1);
        }
        for t in &run.tables {
            write(&dir.join(format!("{}.tsv", t.id)), &t.to_tsv());
        }
        let file = format!("{label}_summary.json");
        write(&dir.join(&file), &summary);
        eprintln!("TSV series and {file} written to {}", dir.display());
    }
}
