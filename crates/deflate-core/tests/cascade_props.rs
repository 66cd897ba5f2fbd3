//! Property-based tests of the cascade deflation controller: for *any*
//! layer behaviors (arbitrary partial compliance at the application and
//! OS layers), any of the eight layer configurations, and with or without
//! a deadline, the controller's accounting must hold:
//!
//! 1. `total_reclaimed <= target` elementwise;
//! 2. `shortfall = target - total_reclaimed` elementwise;
//! 3. `total_reclaimed` is the *de-duplicated* sum of the layer
//!    contributions, `max(app, os) + hypervisor` (the app and OS layers
//!    drain the same in-guest pool, so their overlap is counted once);
//! 4. `latency` is the sum of the engaged layers' latencies.

use deflate_core::{
    cascade, ApplicationAgent, CascadeConfig, GuestOs, HypervisorControl, ReclaimResult,
    ResourceKind, ResourceVector,
};
use proptest::prelude::*;
use simkit::{SimDuration, SimTime};

/// The state of a fake VM: its free pool and what each layer took.
struct Pool {
    free: ResourceVector,
    unplugged: ResourceVector,
    over: ResourceVector,
}

impl Pool {
    fn new(free: ResourceVector) -> Self {
        Pool {
            free,
            unplugged: ResourceVector::ZERO,
            over: ResourceVector::ZERO,
        }
    }
}

/// An application agent that relinquishes an arbitrary fraction of any
/// request.
struct FracAgent {
    frac: f64,
    latency_ms: u64,
}

impl ApplicationAgent<Pool> for FracAgent {
    fn self_deflate(
        &mut self,
        _vm: &mut Pool,
        _now: SimTime,
        target: &ResourceVector,
    ) -> ReclaimResult {
        ReclaimResult::new(
            target.scale(self.frac),
            SimDuration::from_millis(self.latency_ms),
        )
    }
    fn reinflate(&mut self, _vm: &mut Pool, _now: SimTime, _a: &ResourceVector) {}
}

/// A guest OS with an arbitrary unplug success fraction over the pool.
struct FracOs {
    success: f64,
    latency_ms: u64,
}

impl GuestOs<Pool> for FracOs {
    fn unpluggable(&self, vm: &Pool) -> ResourceVector {
        vm.free
    }
    fn try_unplug(
        &mut self,
        vm: &mut Pool,
        _now: SimTime,
        target: &ResourceVector,
        budget: Option<SimDuration>,
    ) -> ReclaimResult {
        if budget == Some(SimDuration::ZERO) {
            return ReclaimResult::NOTHING;
        }
        let got = target.scale(self.success);
        vm.unplugged += got;
        vm.free = vm.free.saturating_sub(&got);
        ReclaimResult::new(got, SimDuration::from_millis(self.latency_ms))
    }
    fn hot_plug(
        &mut self,
        vm: &mut Pool,
        _now: SimTime,
        amount: &ResourceVector,
    ) -> ResourceVector {
        let give = amount.min(&vm.unplugged);
        vm.unplugged -= give;
        give
    }
}

/// A hypervisor that reclaims in full unless its time budget is exhausted.
struct FullHv {
    latency_ms: u64,
}

impl HypervisorControl<Pool> for FullHv {
    fn overcommit(
        &mut self,
        vm: &mut Pool,
        _now: SimTime,
        amount: &ResourceVector,
        budget: Option<SimDuration>,
    ) -> ReclaimResult {
        if budget == Some(SimDuration::ZERO) {
            return ReclaimResult::NOTHING;
        }
        vm.over += *amount;
        ReclaimResult::new(*amount, SimDuration::from_millis(self.latency_ms))
    }
    fn release(&mut self, vm: &mut Pool, _now: SimTime, amount: &ResourceVector) -> ResourceVector {
        let give = amount.min(&vm.over);
        vm.over -= give;
        give
    }
    fn overcommitted(&self, vm: &Pool) -> ResourceVector {
        vm.over
    }
}

fn arb_vector() -> impl Strategy<Value = ResourceVector> {
    (
        0.0f64..32.0,
        0.0f64..131_072.0,
        0.0f64..1_000.0,
        0.0f64..5_000.0,
    )
        .prop_map(|(c, m, d, n)| ResourceVector::new(c, m, d, n))
}

/// All eight layer on/off combinations.
fn all_configs() -> [CascadeConfig; 8] {
    let mut out = [CascadeConfig::FULL; 8];
    for (i, cfg) in out.iter_mut().enumerate() {
        cfg.use_app = i & 1 != 0;
        cfg.use_os = i & 2 != 0;
        cfg.use_hypervisor = i & 4 != 0;
        cfg.deadline = None;
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The four accounting invariants, across all eight configurations and
    /// with or without a deadline.
    #[test]
    fn cascade_accounting_holds(
        target in arb_vector(),
        free in arb_vector(),
        app_frac in 0.0f64..1.0,
        os_success in 0.0f64..1.0,
        app_ms in 0u64..2_000,
        os_ms in 0u64..2_000,
        hv_ms in 0u64..2_000,
        deadline_ms in 0u64..6_000,
        use_deadline in any::<bool>(),
    ) {
        for cfg in all_configs() {
            let cfg = if use_deadline {
                cfg.with_deadline(SimDuration::from_millis(deadline_ms))
            } else {
                cfg
            };
            let mut agent = FracAgent { frac: app_frac, latency_ms: app_ms };
            let mut vm = Pool::new(free);
            let mut os = FracOs {
                success: os_success,
                latency_ms: os_ms,
            };
            let mut hv = FullHv { latency_ms: hv_ms };
            let out = cascade::deflate_vm(
                SimTime::ZERO,
                &target,
                &mut vm,
                Some(&mut agent),
                &mut os,
                &mut hv,
                &cfg,
            );

            // (1) Nothing exceeds the target, per layer or in total.
            let cap = target.scale(1.0 + 1e-9);
            prop_assert!(cap.dominates(&out.app.reclaimed), "{cfg:?}");
            prop_assert!(cap.dominates(&out.os.reclaimed), "{cfg:?}");
            prop_assert!(cap.dominates(&out.hypervisor.reclaimed), "{cfg:?}");
            prop_assert!(cap.dominates(&out.total_reclaimed), "{cfg:?}");

            // (2) shortfall = target - total, elementwise and non-negative.
            let back = out.total_reclaimed + out.shortfall;
            prop_assert!(back.approx_eq(&target, 1e-6), "{cfg:?}");
            for k in ResourceKind::ALL {
                prop_assert!(out.shortfall.get(k) >= 0.0, "{cfg:?}");
            }

            // (3) total is the de-duplicated layer sum: the app and OS
            // layers drain the same in-guest pool (overlap counted once),
            // the hypervisor's share is disjoint.
            let dedup = out.app.reclaimed.max(&out.os.reclaimed) + out.hypervisor.reclaimed;
            prop_assert!(
                dedup.approx_eq(&out.total_reclaimed, 1e-6),
                "{cfg:?}: dedup {} vs total {}",
                dedup,
                out.total_reclaimed
            );

            // (4) End-to-end latency is the sum of the layer latencies.
            prop_assert_eq!(
                out.latency,
                out.app.latency + out.os.latency + out.hypervisor.latency
            );

            // Disabled layers must not report activity.
            if !cfg.use_app {
                prop_assert!(out.app.reclaimed.is_zero());
                prop_assert_eq!(out.app.latency, SimDuration::ZERO);
            }
            if !cfg.use_os {
                prop_assert!(out.os.reclaimed.is_zero());
            }
            if !cfg.use_hypervisor {
                prop_assert!(out.hypervisor.reclaimed.is_zero());
            }

            // With the hypervisor engaged and no deadline, the target is
            // always met (layer of last resort).
            if cfg.use_hypervisor && !use_deadline {
                prop_assert!(out.met_target(), "{cfg:?}: shortfall {}", out.shortfall);
            }
        }
    }

    /// An agent that relinquishes everything leaves nothing for the
    /// hypervisor to overcommit, in any configuration that asks the app.
    #[test]
    fn full_relinquish_never_overcommits(
        target in arb_vector(),
        free in arb_vector(),
    ) {
        for mut cfg in all_configs() {
            cfg.use_app = true;
            let mut agent = FracAgent { frac: 1.0, latency_ms: 5 };
            let mut vm = Pool::new(free);
            let mut os = FracOs {
                success: 1.0,
                latency_ms: 5,
            };
            let mut hv = FullHv { latency_ms: 5 };
            let out = cascade::deflate_vm(
                SimTime::ZERO,
                &target,
                &mut vm,
                Some(&mut agent),
                &mut os,
                &mut hv,
                &cfg,
            );
            prop_assert!(out.hypervisor.requested.is_zero(), "{cfg:?}");
            prop_assert!(hv.overcommitted(&vm).is_zero(), "{cfg:?}");
            prop_assert!(out.total_reclaimed.approx_eq(&target, 1e-6), "{cfg:?}");
            prop_assert!(out.met_target(), "{cfg:?}");
        }
    }

    /// Reinflation after deflation returns exactly what was reclaimed,
    /// for any split between the OS and hypervisor layers.
    #[test]
    fn reinflate_inverts_deflate(
        target in arb_vector(),
        free in arb_vector(),
        os_success in 0.0f64..1.0,
    ) {
        let mut vm = Pool::new(free);
        let mut os = FracOs {
            success: os_success,
            latency_ms: 1,
        };
        let mut hv = FullHv { latency_ms: 1 };
        let out = cascade::deflate_vm(
            SimTime::ZERO,
            &target,
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &CascadeConfig::VM_LEVEL,
        );
        prop_assert!(out.met_target());

        let got = cascade::reinflate_vm(SimTime::ZERO, &target, &mut vm, None, &mut os, &mut hv);
        prop_assert!(got.approx_eq(&target, 1e-6), "got {} want {}", got, target);
        prop_assert!(hv.overcommitted(&vm).is_zero());
        for k in ResourceKind::ALL {
            prop_assert!(vm.unplugged.get(k) < 1e-6);
        }
    }

    /// Disabling layers can only shift work downward, never change the
    /// total under a full-compliance hypervisor.
    #[test]
    fn layer_config_shifts_but_conserves(
        target in arb_vector(),
        free in arb_vector(),
    ) {
        for cfg in [CascadeConfig::HYPERVISOR_ONLY, CascadeConfig::VM_LEVEL] {
            let mut vm = Pool::new(free);
            let mut os = FracOs {
                success: 1.0,
                latency_ms: 1,
            };
            let mut hv = FullHv { latency_ms: 1 };
            let out = cascade::deflate_vm(
                SimTime::ZERO,
                &target,
                &mut vm,
                None,
                &mut os,
                &mut hv,
                &cfg,
            );
            prop_assert!(out.met_target());
            prop_assert!(out.total_reclaimed.approx_eq(&target, 1e-6));
        }
    }
}
