//! Small statistics helpers: per-call timing samples and medians.

use std::time::Instant;

/// Per-call durations of one public entry point, in nanoseconds.
#[derive(Default)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Times `f` and records its duration.
    #[inline]
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.push(t.elapsed().as_nanos() as u64);
        out
    }

    pub fn calls(&self) -> usize {
        self.ns.len()
    }

    pub fn total_s(&self) -> f64 {
        self.ns.iter().sum::<u64>() as f64 * 1e-9
    }

    pub fn mean_ns(&self) -> f64 {
        if self.ns.is_empty() {
            0.0
        } else {
            self.ns.iter().sum::<u64>() as f64 / self.ns.len() as f64
        }
    }

    /// Nearest-rank quantile `q` in nanoseconds, reported only when at
    /// least `min_calls` calls were made (0 otherwise): a p99 over fewer
    /// than 1000 calls has under ten samples beyond it.
    pub fn quantile_ns(&mut self, q: f64, min_calls: usize) -> f64 {
        if self.ns.is_empty() || self.ns.len() < min_calls {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let rank = ((q * self.ns.len() as f64).ceil() as usize).clamp(1, self.ns.len());
        self.ns[rank - 1] as f64
    }

    pub fn p50(&mut self) -> f64 {
        self.quantile_ns(0.5, 1)
    }

    pub fn p99(&mut self) -> f64 {
        self.quantile_ns(0.99, 1000)
    }
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
