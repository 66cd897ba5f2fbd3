//! Cross-crate validation of the Spark deflation policy: the decisions
//! the policy makes (from its Eq. 1/3 estimates) must agree with what the
//! execution simulator actually measures.

use spark::policy::ChosenMechanism;
use spark::workloads::{all_workloads, fig6_event};
use spark::{DeflationEvent, DeflationMode};

/// For every workload, the cascade policy's pick must be (close to) the
/// empirically better mechanism — the paper's "minimize the expected
/// running time" claim, validated against the simulator rather than the
/// model that made the decision.
#[test]
fn policy_decisions_have_low_regret() {
    for w in all_workloads() {
        for frac in [0.25, 0.5] {
            let ev = fig6_event(w.workers(), frac);
            let cascade = w.run(DeflationMode::Cascade, Some(&ev), 21);
            let vm = w.run(DeflationMode::VmLevel, Some(&ev), 21);
            let selfd = w.run(DeflationMode::SelfDeflation, Some(&ev), 21);
            let best = vm.normalized.min(selfd.normalized);
            let regret = cascade.normalized / best - 1.0;
            assert!(
                regret < 0.12,
                "{} @ {frac}: cascade {:.3} vs best {:.3} (regret {:.1}%)",
                w.name(),
                cascade.normalized,
                best,
                regret * 100.0
            );
        }
    }
}

#[test]
fn expected_mechanisms_chosen() {
    let expected = [
        ("ALS", ChosenMechanism::VmLevel),
        ("K-means", ChosenMechanism::SelfDeflation),
        ("CNN", ChosenMechanism::VmLevel),
        ("RNN", ChosenMechanism::VmLevel),
    ];
    for w in all_workloads() {
        let ev = fig6_event(w.workers(), 0.5);
        let r = w.run(DeflationMode::Cascade, Some(&ev), 7);
        let want = expected
            .iter()
            .find(|(n, _)| *n == w.name())
            .expect("known workload")
            .1;
        assert_eq!(
            r.decision.expect("cascade decides").chosen,
            want,
            "{}",
            w.name()
        );
    }
}

/// Deflation is strictly better than preemption for every workload and
/// deflation level — the paper's headline Spark result.
#[test]
fn cascade_always_beats_preemption() {
    for w in all_workloads() {
        for frac in [0.125, 0.25, 0.5] {
            let ev = fig6_event(w.workers(), frac);
            let cascade = w.run(DeflationMode::Cascade, Some(&ev), 5);
            let pre = w.run(DeflationMode::Preemption, Some(&ev), 5);
            assert!(
                cascade.normalized <= pre.normalized + 1e-9,
                "{} @ {frac}: cascade {:.3} preempt {:.3}",
                w.name(),
                cascade.normalized,
                pre.normalized
            );
        }
    }
}

/// Overheads shrink as the deflation arrives later (Eq. 1's `c` term).
#[test]
fn later_deflation_costs_less() {
    let w = all_workloads().remove(0); // ALS
    let mut prev = f64::INFINITY;
    for c in [0.2, 0.5, 0.8] {
        let ev = DeflationEvent::uniform(8, 0.5, c);
        let r = w.run(DeflationMode::VmLevel, Some(&ev), 9);
        assert!(
            r.normalized <= prev + 0.05,
            "c={c}: {} after {prev}",
            r.normalized
        );
        prev = r.normalized;
    }
}

/// Runs are reproducible for a fixed seed and differ across seeds only
/// through partition-loss randomness (self-deflation).
#[test]
fn runs_are_deterministic_per_seed() {
    let w = all_workloads().remove(0);
    let ev = fig6_event(8, 0.5);
    let a = w.run(DeflationMode::SelfDeflation, Some(&ev), 33);
    let b = w.run(DeflationMode::SelfDeflation, Some(&ev), 33);
    assert_eq!(a.normalized.to_bits(), b.normalized.to_bits());
    assert_eq!(a.recomputed_tasks, b.recomputed_tasks);
}

/// The deflation fractions a *real* cascade produces (via the hypervisor
/// substrate) can drive the Spark policy end-to-end.
#[test]
fn hypervisor_outcomes_feed_policy() {
    use deflate_core::{CascadeConfig, ResourceVector, VmId};
    use hypervisor::{Vm, VmPriority};
    use simkit::SimTime;

    // Deflate 8 worker VMs through the real cascade and collect the
    // achieved per-VM deflation fractions.
    let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
    let mut fractions = Vec::new();
    for i in 0..8 {
        let mut vm = Vm::new(VmId(i), spec, VmPriority::Low);
        vm.set_usage(6_000.0, 2.0);
        // Staggered targets, as a bin-packing manager would assign.
        let f = 0.4 + 0.02 * i as f64;
        let _ = vm.deflate(
            SimTime::ZERO,
            &spec.scale(f),
            &CascadeConfig::VM_LEVEL,
            None,
        );
        fractions.push(vm.max_deflation());
    }
    assert!(fractions.iter().all(|f| *f > 0.3));

    let ev = DeflationEvent {
        at_progress: 0.5,
        fractions,
    };
    let w = all_workloads().remove(0);
    let r = w.run(DeflationMode::Cascade, Some(&ev), 13);
    assert!(r.decision.is_some());
    assert!(r.normalized > 1.0 && r.normalized < 3.0);
}
