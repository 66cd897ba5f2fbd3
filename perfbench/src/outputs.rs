//! The simulated model outputs a run must reproduce exactly, the
//! expected values stored with the benchmark, and their comparison.

use cluster::{ClusterSimResult, ClusterStats};
use simkit::JsonValue;

use crate::workload::Workload;

/// Everything a replay's result is checked against: every
/// [`ClusterStats`] field, the event count, the two headline model
/// outputs, and a hash of the full run summary (which covers every
/// counter, gauge and histogram the simulator records).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs {
    pub events: u64,
    pub launched: u64,
    pub launched_low: u64,
    pub rejected: u64,
    pub preempted: u64,
    pub deflations: u64,
    pub reinflations: u64,
    pub highpri_alloc_latency_secs: f64,
    pub highpri_launches: u64,
    pub unresponsive_vms: u64,
    pub server_crashes: u64,
    pub oom_kills: u64,
    pub emergency_reinflations: u64,
    pub migrations: u64,
    pub manager_crashes: u64,
    pub preemption_prob: f64,
    pub mean_utilization: f64,
    pub summary_hash: u64,
}

/// The integer fields, by name, in storage order.
const U64_FIELDS: [&str; 14] = [
    "events",
    "launched",
    "launched_low",
    "rejected",
    "preempted",
    "deflations",
    "reinflations",
    "highpri_launches",
    "unresponsive_vms",
    "server_crashes",
    "oom_kills",
    "emergency_reinflations",
    "migrations",
    "manager_crashes",
];

/// The float fields, by name, in storage order.
const F64_FIELDS: [&str; 3] = [
    "highpri_alloc_latency_secs",
    "preemption_prob",
    "mean_utilization",
];

/// FNV-1a over the summary text: stable across platforms and builds.
pub fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

impl Outputs {
    pub fn of(r: &ClusterSimResult) -> Outputs {
        let s: &ClusterStats = &r.stats;
        Outputs {
            events: r.events,
            launched: s.launched,
            launched_low: s.launched_low,
            rejected: s.rejected,
            preempted: s.preempted,
            deflations: s.deflations,
            reinflations: s.reinflations,
            highpri_alloc_latency_secs: s.highpri_alloc_latency_secs,
            highpri_launches: s.highpri_launches,
            unresponsive_vms: s.unresponsive_vms,
            server_crashes: s.server_crashes,
            oom_kills: s.oom_kills,
            emergency_reinflations: s.emergency_reinflations,
            migrations: s.migrations,
            manager_crashes: s.manager_crashes,
            preemption_prob: r.preemption_probability,
            mean_utilization: r.mean_utilization,
            summary_hash: fnv1a(&r.summary.to_string()),
        }
    }

    fn u64s(&self) -> [u64; 14] {
        [
            self.events,
            self.launched,
            self.launched_low,
            self.rejected,
            self.preempted,
            self.deflations,
            self.reinflations,
            self.highpri_launches,
            self.unresponsive_vms,
            self.server_crashes,
            self.oom_kills,
            self.emergency_reinflations,
            self.migrations,
            self.manager_crashes,
        ]
    }

    fn f64s(&self) -> [f64; 3] {
        [
            self.highpri_alloc_latency_secs,
            self.preemption_prob,
            self.mean_utilization,
        ]
    }

    /// One stored record. Floats are written in Rust's shortest
    /// round-trip form, so parsing gives back the identical bits.
    pub fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object();
        for (k, v) in U64_FIELDS.iter().zip(self.u64s()) {
            o.set(k, v);
        }
        for (k, v) in F64_FIELDS.iter().zip(self.f64s()) {
            o.set(k, v);
        }
        o.with("summary_hash", format!("{:016x}", self.summary_hash))
    }

    pub fn from_json(doc: &JsonValue) -> Result<Outputs, String> {
        let u = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_f64)
                .map(|x| x as u64)
                .ok_or_else(|| format!("missing field {k}"))
        };
        let f = |k: &str| {
            doc.get(k)
                .and_then(JsonValue::as_f64)
                .ok_or_else(|| format!("missing field {k}"))
        };
        let hash = doc
            .get("summary_hash")
            .and_then(JsonValue::as_str)
            .and_then(|h| u64::from_str_radix(h, 16).ok())
            .ok_or("missing or malformed summary_hash")?;
        Ok(Outputs {
            events: u("events")?,
            launched: u("launched")?,
            launched_low: u("launched_low")?,
            rejected: u("rejected")?,
            preempted: u("preempted")?,
            deflations: u("deflations")?,
            reinflations: u("reinflations")?,
            highpri_alloc_latency_secs: f("highpri_alloc_latency_secs")?,
            highpri_launches: u("highpri_launches")?,
            unresponsive_vms: u("unresponsive_vms")?,
            server_crashes: u("server_crashes")?,
            oom_kills: u("oom_kills")?,
            emergency_reinflations: u("emergency_reinflations")?,
            migrations: u("migrations")?,
            manager_crashes: u("manager_crashes")?,
            preemption_prob: f("preemption_prob")?,
            mean_utilization: f("mean_utilization")?,
            summary_hash: hash,
        })
    }

    /// Every field that differs from `expected`, as `name: got vs
    /// expected`. Floats compare bit for bit: a speed-only change must
    /// leave every model output exactly equal.
    pub fn diff(&self, expected: &Outputs) -> Vec<String> {
        let mut out = Vec::new();
        for ((k, a), b) in U64_FIELDS.iter().zip(self.u64s()).zip(expected.u64s()) {
            if a != b {
                out.push(format!("{k}: {a} vs {b}"));
            }
        }
        for ((k, a), b) in F64_FIELDS.iter().zip(self.f64s()).zip(expected.f64s()) {
            if a.to_bits() != b.to_bits() {
                out.push(format!("{k}: {a} vs {b}"));
            }
        }
        if self.summary_hash != expected.summary_hash {
            out.push(format!(
                "summary_hash: {:016x} vs {:016x}",
                self.summary_hash, expected.summary_hash
            ));
        }
        out
    }

    /// Launched over offered: `launched / (launched + rejected)`.
    pub fn admit_ratio(&self) -> f64 {
        self.launched as f64 / (self.launched + self.rejected).max(1) as f64
    }

    /// Mean high-priority allocation latency in simulated seconds.
    pub fn highpri_alloc_mean_s(&self) -> f64 {
        if self.highpri_launches == 0 {
            0.0
        } else {
            self.highpri_alloc_latency_secs / self.highpri_launches as f64
        }
    }
}

/// The stored expected outputs of one workload, keyed by seed.
pub struct ExpectedTable {
    doc: JsonValue,
}

impl ExpectedTable {
    /// The table compiled into the benchmark for `w`.
    pub fn builtin(w: Workload) -> ExpectedTable {
        let text = match w {
            Workload::PaperFleet3k => include_str!("../expected/paper-fleet-3k.json"),
            Workload::Chaos200 => include_str!("../expected/chaos-200.json"),
            Workload::Sharded10k => include_str!("../expected/sharded-10k.json"),
        };
        let doc = JsonValue::parse(text).expect("stored expected outputs are valid JSON");
        ExpectedTable { doc }
    }

    /// The expected outputs for `seed`, or `None` when none are stored.
    pub fn get(&self, seed: u64) -> Option<Result<Outputs, String>> {
        self.doc
            .get("seeds")
            .and_then(|s| s.get(&seed.to_string()))
            .map(Outputs::from_json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::{check, replay};
    use crate::workload::{generate, HELD_OUT_SEED};
    use simkit::SimDuration;

    /// A workload cut to one simulated hour, so tests stay quick.
    fn short(w: Workload, seed: u64) -> cluster::ClusterSimConfig {
        let mut cfg = w.config(seed);
        cfg.horizon = SimDuration::from_hours(1);
        cfg
    }

    fn table_of(seed: u64, o: &Outputs) -> ExpectedTable {
        ExpectedTable {
            doc: JsonValue::object().with(
                "seeds",
                JsonValue::object().with(&seed.to_string(), o.to_json()),
            ),
        }
    }

    fn fails(w: Workload, seed: u64, got: &Outputs, n: usize, t: &ExpectedTable) -> bool {
        !check(w, seed, got, n, t).is_empty()
    }

    #[test]
    fn a_wrong_expected_value_is_caught() {
        let w = Workload::PaperFleet3k;
        let cfg = short(w, 3);
        let reqs = generate(&cfg);
        let n = reqs.len();
        let got = Outputs::of(&replay(&cfg, reqs).0.expect("replay runs"));
        assert!(!fails(w, 3, &got, n, &table_of(3, &got)));

        let mut wrong = got.clone();
        wrong.launched += 1;
        assert!(fails(w, 3, &got, n, &table_of(3, &wrong)));
        let mut wrong = got.clone();
        wrong.mean_utilization = f64::from_bits(got.mean_utilization.to_bits() + 1);
        assert!(fails(w, 3, &got, n, &table_of(3, &wrong)));
        let mut wrong = got.clone();
        wrong.summary_hash ^= 1;
        assert!(fails(w, 3, &got, n, &table_of(3, &wrong)));
    }

    #[test]
    fn stored_records_round_trip_exactly() {
        let o = Outputs {
            highpri_alloc_latency_secs: 0.1 + 0.2,
            preemption_prob: 1.0 / 3.0,
            mean_utilization: 0.891_234_567_890_123_4,
            summary_hash: u64::MAX - 7,
            launched: 123_456_789,
            ..Outputs::default()
        };
        let text = o.to_json().to_string();
        let back = Outputs::from_json(&JsonValue::parse(&text).unwrap()).unwrap();
        assert!(back.diff(&o).is_empty(), "{:?}", back.diff(&o));
    }

    #[test]
    fn every_workload_stores_the_held_out_seed() {
        for w in Workload::ALL {
            let t = ExpectedTable::builtin(w);
            let rec = t.get(HELD_OUT_SEED).expect("held-out seed stored");
            assert!(rec.is_ok(), "{}: {:?}", w.name(), rec.err());
        }
    }

    /// The benchmark hands the simulator a pre-generated request list;
    /// that must be the same simulation as generating on the fly.
    #[test]
    fn replay_of_the_generated_trace_reproduces_the_simulation() {
        for w in Workload::ALL {
            let cfg = short(w, 11);
            let sim = Outputs::of(&cluster::run_cluster_sim(&cfg));
            let rep = Outputs::of(&replay(&cfg, generate(&cfg)).0.expect("replay runs"));
            assert!(rep.events > 0);
            assert!(
                rep.diff(&sim).is_empty(),
                "{}: {:?}",
                w.name(),
                rep.diff(&sim)
            );
        }
    }
}
