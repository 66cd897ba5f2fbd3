//! A minimal, dependency-free stand-in for the `criterion` crate.
//!
//! The build environment has no access to crates.io, so this crate
//! provides the subset of the criterion API the workspace's benches use:
//! [`Criterion::bench_function`], [`Bencher::iter`], and the
//! [`criterion_group!`] / [`criterion_main!`] macros. Timing is a simple
//! calibrated wall-clock loop (median-free); results print one line per
//! benchmark. Good enough to compare orders of magnitude, not a
//! statistical harness.
//!
//! Like real criterion, `cargo bench -- --test` (or setting
//! `CRITERION_CHECK=1`) runs every benchmark body exactly once in
//! check-only mode — no calibration, no measurement window — so CI can
//! verify benches still compile and run without paying bench time.

#![forbid(unsafe_code)]

use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Target measurement time per benchmark.
const TARGET: Duration = Duration::from_millis(200);

/// Whether the process runs in check-only mode (`-- --test` on the
/// command line, as real criterion accepts, or `CRITERION_CHECK` in the
/// environment).
fn check_only() -> bool {
    static CHECK: OnceLock<bool> = OnceLock::new();
    *CHECK.get_or_init(|| {
        std::env::args().any(|a| a == "--test") || std::env::var_os("CRITERION_CHECK").is_some()
    })
}

/// One benchmark's measurement context.
pub struct Bencher {
    /// (iterations, elapsed) of the measured batch.
    result: Option<(u64, Duration)>,
}

impl Bencher {
    /// Times `f`, choosing an iteration count that fills the target
    /// measurement window. In check-only mode, runs `f` exactly once.
    pub fn iter<O>(&mut self, mut f: impl FnMut() -> O) {
        if check_only() {
            let start = Instant::now();
            black_box(f());
            self.result = Some((1, start.elapsed()));
            return;
        }
        // Calibrate: run once to estimate per-iteration cost.
        let start = Instant::now();
        black_box(f());
        let once = start.elapsed().max(Duration::from_nanos(1));
        let iters = (TARGET.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u64;

        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        self.result = Some((iters, start.elapsed()));
    }
}

/// The benchmark driver.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Runs one named benchmark and prints its per-iteration time (or a
    /// check-only marker when measurement is disabled).
    pub fn bench_function(
        &mut self,
        name: impl AsRef<str>,
        mut f: impl FnMut(&mut Bencher),
    ) -> &mut Self {
        let mut b = Bencher { result: None };
        f(&mut b);
        match b.result {
            Some(_) if check_only() => {
                println!("bench {:<40} ok (check-only)", name.as_ref());
            }
            Some((iters, elapsed)) => {
                let per_iter = elapsed.as_nanos() as f64 / iters as f64;
                println!(
                    "bench {:<40} {:>12.1} ns/iter ({} iters)",
                    name.as_ref(),
                    per_iter,
                    iters
                );
            }
            None => println!("bench {:<40} (no measurement)", name.as_ref()),
        }
        self
    }
}

/// Defines a function running a group of benchmarks.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Defines `main` running the given benchmark groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_measures() {
        let mut c = Criterion::default();
        let mut ran = 0u64;
        c.bench_function("smoke", |b| b.iter(|| ran += 1));
        assert!(ran > 0);
    }
}
