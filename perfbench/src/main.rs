//! The repository's benchmark: three shipped-config workloads of the
//! trace-driven cluster simulator. See `README.md` for the metric map.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --workload <name> --record <a>-<b>   # print expected outputs
//! ```
//!
//! `--trace 0` measures end-to-end host cost and model outputs from
//! untraced replays; `--trace 1` runs the traced pass that produces the
//! per-layer numbers. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

mod companion;
mod driver;
mod e2e;
mod outputs;
mod samples;
mod traced;
mod workload;

use simkit::JsonValue;

use workload::Workload;

/// One run's result line.
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64, &'static str)>,
}

impl Report {
    pub fn new(attempted: u64, failed: u64) -> Report {
        Report {
            attempted,
            failed,
            metrics: Vec::new(),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn to_json(&self) -> JsonValue {
        let mut metrics = JsonValue::object();
        for (name, value, unit) in &self.metrics {
            metrics.set(
                name,
                JsonValue::object()
                    .with("value", *value)
                    .with("unit", *unit),
            );
        }
        JsonValue::object()
            .with("correct", self.failed == 0 && self.attempted > 0)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    companion: Option<companion::Variant>,
    record: Option<(u64, u64)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut companion = None;
    let mut record = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, not {v}")),
                }
            }
            "--companion" => {
                let v = value()?;
                companion = Some(companion::Variant::parse(v).ok_or(format!("bad variant {v}"))?);
            }
            "--record" => {
                let v = value()?;
                let (a, b) = v.split_once('-').ok_or("--record takes <a>-<b>")?;
                let a = a.parse().map_err(|e| format!("--record: {e}"))?;
                let b = b.parse().map_err(|e| format!("--record: {e}"))?;
                record = Some((a, b));
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if record.is_none() && seed.is_none() {
        return Err("--seed is required".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace,
        companion,
        record,
    })
}

/// Prints the stored-outputs document for seeds `a..=b` and the
/// held-out seed.
fn record(w: Workload, a: u64, b: u64) {
    let mut seeds = JsonValue::object();
    let held_out = Some(workload::HELD_OUT_SEED).filter(|s| !(a..=b).contains(s));
    for seed in (a..=b).chain(held_out) {
        let cfg = w.config(seed);
        let (res, _) = e2e::replay(&cfg, workload::generate(&cfg));
        let res = res.unwrap_or_else(|| panic!("{} seed {seed}: replay panicked", w.name()));
        seeds.set(&seed.to_string(), outputs::Outputs::of(&res).to_json());
        eprintln!("recorded {} seed {seed}", w.name());
    }
    let doc = JsonValue::object()
        .with("workload", w.name())
        .with("seeds", seeds);
    println!("{}", doc.to_pretty());
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some((a, b)) = args.record {
        record(args.workload, a, b);
        return;
    }
    if let Some(v) = args.companion {
        println!("{}", companion::run(args.workload, args.seed, v));
        return;
    }
    let report = if args.trace {
        traced::run(args.workload, args.seed)
    } else {
        e2e::run(args.workload, args.seed, args.seconds)
    };
    println!("{}", report.to_json());
}
