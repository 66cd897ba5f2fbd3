//! Rebuilds one resilience experiment from the `bench::figs::FIGURES`
//! registry, prints its tables and then its machine-readable run
//! summary:
//!
//! ```text
//! cargo run --release -p bench --bin fig -- <name> [--small] [--out DIR]
//! ```
//!
//! * `<name>`: `faults` (seeded chaos plan: agent crashes, message loss,
//!   hotplug stalls, server crashes), `distress` (guest OOM/thrash vs
//!   deflation aggressiveness, guard off vs on), `migration`
//!   (deflation-only vs migration-only vs combined), `partition`
//!   (manager↔server partition rate and duration) or `failover`
//!   (manager crash rate, downtime and admission-queue policy);
//! * `--small`: the CI-sized configuration;
//! * `--out DIR`: also write one TSV per table plus the run summary as
//!   `fig_<name>_summary.json` under `DIR`.

use std::fs;
use std::path::Path;
use std::process::exit;
use std::time::Instant;

use bench::figs::{figure, Figure, FIGURES};

fn usage() -> ! {
    let names: Vec<&str> = FIGURES.iter().map(|f| f.name).collect();
    eprintln!("usage: fig <{}> [--small] [--out DIR]", names.join("|"));
    exit(2);
}

fn write(path: &Path, contents: &str) {
    if let Err(e) = fs::write(path, contents) {
        eprintln!("cannot write {}: {e}", path.display());
        exit(1);
    }
}

fn main() {
    let mut fig: Option<&Figure> = None;
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
            name if fig.is_none() && !name.starts_with("--") => match figure(name) {
                Some(f) => fig = Some(f),
                None => {
                    eprintln!("unknown experiment {name}");
                    usage();
                }
            },
            other => {
                eprintln!("unknown argument {other}");
                usage();
            }
        }
    }
    let Some(fig) = fig else { usage() };

    let start = Instant::now();
    let tables = if small {
        (fig.run_small)()
    } else {
        (fig.run)()
    };
    let wall = start.elapsed().as_secs_f64();
    for t in &tables {
        t.print();
    }
    let label = format!("fig_{}", fig.name);
    let summary = bench::run_summary(&label, &tables, wall).to_pretty();
    println!("--- run summary ({label}) ---");
    println!("{summary}");
    if let Some(dir) = out_dir {
        let dir = Path::new(&dir);
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            exit(1);
        }
        for t in &tables {
            write(&dir.join(format!("{}.tsv", t.id)), &t.to_tsv());
        }
        let file = format!("{label}_summary.json");
        write(&dir.join(&file), &summary);
        eprintln!("TSV series and {file} written to {}", dir.display());
    }
}
