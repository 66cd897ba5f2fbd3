//! Cluster-side deflation policies (paper §5, "How much to deflate VMs
//! by?").
//!
//! When a new VM must be placed on a server with insufficient free
//! resources, the cluster manager deflates *all* low-priority VMs on that
//! server proportionally to their remaining deflatable range
//! (`current − min`). Minimum sizes are optional (default 0) and mark the
//! point past which a VM is preempted rather than deflated further.

use crate::ids::VmId;
use crate::resources::{ResourceKind, ResourceVector};

/// Per-VM state the proportional policy needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VmDeflationState {
    /// The VM.
    pub id: VmId,
    /// Its current (possibly already deflated) allocation.
    pub current: ResourceVector,
    /// Its minimum size `m_i`; deflation below this is not feasible/safe
    /// and the VM must be preempted instead. Defaults to zero.
    pub min: ResourceVector,
}

impl VmDeflationState {
    /// Creates state with a zero minimum (the paper's default).
    pub fn new(id: VmId, current: ResourceVector) -> Self {
        VmDeflationState {
            id,
            current,
            min: ResourceVector::ZERO,
        }
    }

    /// Creates state with an explicit minimum size.
    pub fn with_min(id: VmId, current: ResourceVector, min: ResourceVector) -> Self {
        VmDeflationState { id, current, min }
    }

    /// How much this VM can still give up.
    pub fn deflatable(&self) -> ResourceVector {
        self.current.saturating_sub(&self.min)
    }
}

/// The output of the proportional policy: per-VM deflation targets plus
/// how much of the demand they cover.
#[derive(Debug, Clone, PartialEq)]
pub struct DeflationPlan {
    /// Target reclamation vector per VM, in input order.
    pub targets: Vec<(VmId, ResourceVector)>,
    /// Σ targets — the demand that deflation can satisfy.
    pub satisfied: ResourceVector,
    /// Demand that deflation *cannot* satisfy (all VMs at minimum);
    /// non-zero means preemption is needed.
    pub shortfall: ResourceVector,
}

impl DeflationPlan {
    /// Returns `true` when deflation alone covers the demand.
    pub fn feasible(&self) -> bool {
        self.shortfall.is_zero()
    }
}

/// Computes proportional deflation targets `x_i` with `Σ x_i = demand`
/// (per resource dimension), each `x_i` proportional to the VM's remaining
/// deflatable range and capped by it.
///
/// When the aggregate deflatable pool cannot cover the demand in some
/// dimension, every VM is assigned its full deflatable amount there and
/// the remainder is reported as [`DeflationPlan::shortfall`].
pub fn proportional_targets(demand: &ResourceVector, vms: &[VmDeflationState]) -> DeflationPlan {
    let mut targets: Vec<(VmId, ResourceVector)> =
        vms.iter().map(|vm| (vm.id, ResourceVector::ZERO)).collect();
    let mut satisfied = ResourceVector::ZERO;
    let mut shortfall = ResourceVector::ZERO;

    for kind in ResourceKind::ALL {
        let d = demand.get(kind);
        if d <= 0.0 {
            continue;
        }
        let deflatable: Vec<f64> = vms.iter().map(|vm| vm.deflatable().get(kind)).collect();
        let pool: f64 = deflatable.iter().sum();
        if pool <= 0.0 {
            shortfall.set(kind, d);
            continue;
        }
        // β = fraction of each VM's deflatable range to take, ≤ 1.
        let beta = (d / pool).min(1.0);
        let mut got = 0.0;
        for (i, amt) in deflatable.iter().enumerate() {
            let x = amt * beta;
            if x > 0.0 {
                let cur = targets[i].1.get(kind);
                targets[i].1.set(kind, cur + x);
            }
            got += x;
        }
        satisfied.set(kind, got.min(d));
        if got + 1e-9 < d {
            shortfall.set(kind, d - got);
        }
    }

    DeflationPlan {
        targets,
        satisfied,
        shortfall,
    }
}

/// Computes proportional *reinflation* amounts when `freed` resources
/// become available on a server: each deflated VM gets back a share
/// proportional to its deficit (`spec − current`), capped by that deficit.
/// The shares replace `out`'s contents, one per VM in `vms` order, so a
/// caller that keeps `out` across calls allocates nothing.
///
/// This mirrors the paper's "Just as with deflation, we reinflate VMs
/// proportionally."
pub fn proportional_reinflation(
    freed: &ResourceVector,
    vms: &[(VmId, ResourceVector, ResourceVector)], // (id, current, spec)
    out: &mut Vec<(VmId, ResourceVector)>,
) {
    out.clear();
    out.extend(vms.iter().map(|(id, _, _)| (*id, ResourceVector::ZERO)));
    for kind in ResourceKind::ALL {
        let f = freed.get(kind);
        if f <= 0.0 {
            continue;
        }
        let deficit = |(_, cur, spec): &(VmId, ResourceVector, ResourceVector)| {
            (spec.get(kind) - cur.get(kind)).max(0.0)
        };
        let pool: f64 = vms.iter().map(deficit).sum();
        if pool <= 0.0 {
            continue;
        }
        let beta = (f / pool).min(1.0);
        for (vm, share) in vms.iter().zip(out.iter_mut()) {
            let x = deficit(vm) * beta;
            if x > 0.0 {
                let cur = share.1.get(kind);
                share.1.set(kind, cur + x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vm(id: u64, cur: ResourceVector) -> VmDeflationState {
        VmDeflationState::new(VmId(id), cur)
    }

    #[test]
    fn splits_proportionally_to_size() {
        // Two VMs, one twice the size of the other; demand 3 CPUs.
        let vms = [
            vm(1, ResourceVector::cpu(4.0)),
            vm(2, ResourceVector::cpu(2.0)),
        ];
        let plan = proportional_targets(&ResourceVector::cpu(3.0), &vms);
        assert!(plan.feasible());
        assert!((plan.targets[0].1.get(ResourceKind::Cpu) - 2.0).abs() < 1e-9);
        assert!((plan.targets[1].1.get(ResourceKind::Cpu) - 1.0).abs() < 1e-9);
        assert!(plan.satisfied.approx_eq(&ResourceVector::cpu(3.0), 1e-9));
    }

    #[test]
    fn respects_minimum_sizes() {
        let vms = [
            VmDeflationState::with_min(
                VmId(1),
                ResourceVector::cpu(4.0),
                ResourceVector::cpu(3.0), // Only 1 CPU deflatable.
            ),
            vm(2, ResourceVector::cpu(4.0)),
        ];
        let plan = proportional_targets(&ResourceVector::cpu(5.0), &vms);
        assert!(plan.feasible());
        let x1 = plan.targets[0].1.get(ResourceKind::Cpu);
        let x2 = plan.targets[1].1.get(ResourceKind::Cpu);
        assert!(x1 <= 1.0 + 1e-9, "x1={x1} exceeds deflatable range");
        assert!((x1 + x2 - 5.0).abs() < 1e-9);
        // Proportional to deflatable ranges 1.0 and 4.0.
        assert!((x1 - 1.0).abs() < 1e-9);
        assert!((x2 - 4.0).abs() < 1e-9);
    }

    #[test]
    fn reports_shortfall_when_infeasible() {
        let vms = [vm(1, ResourceVector::cpu(2.0))];
        let plan = proportional_targets(&ResourceVector::cpu(5.0), &vms);
        assert!(!plan.feasible());
        assert!((plan.shortfall.get(ResourceKind::Cpu) - 3.0).abs() < 1e-9);
        assert!((plan.targets[0].1.get(ResourceKind::Cpu) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_vm_set_is_pure_shortfall() {
        let plan = proportional_targets(&ResourceVector::cpu(1.0), &[]);
        assert!(!plan.feasible());
        assert_eq!(plan.shortfall, ResourceVector::cpu(1.0));
        assert!(plan.targets.is_empty());
    }

    #[test]
    fn multi_dimensional_demand() {
        let demand = ResourceVector::new(2.0, 4_096.0, 0.0, 0.0);
        let vms = [
            vm(1, ResourceVector::new(4.0, 8_192.0, 100.0, 100.0)),
            vm(2, ResourceVector::new(4.0, 8_192.0, 100.0, 100.0)),
        ];
        let plan = proportional_targets(&demand, &vms);
        assert!(plan.feasible());
        for (_, t) in &plan.targets {
            assert!((t.get(ResourceKind::Cpu) - 1.0).abs() < 1e-9);
            assert!((t.get(ResourceKind::Memory) - 2_048.0).abs() < 1e-9);
            assert_eq!(t.get(ResourceKind::DiskBw), 0.0);
        }
    }

    #[test]
    fn zero_demand_means_zero_targets() {
        let vms = [vm(1, ResourceVector::cpu(4.0))];
        let plan = proportional_targets(&ResourceVector::ZERO, &vms);
        assert!(plan.feasible());
        assert!(plan.targets[0].1.is_zero());
        assert!(plan.satisfied.is_zero());
    }

    #[test]
    fn reinflation_proportional_to_deficit() {
        let spec = ResourceVector::cpu(4.0);
        let vms = [
            (VmId(1), ResourceVector::cpu(2.0), spec), // Deficit 2.
            (VmId(2), ResourceVector::cpu(3.0), spec), // Deficit 1.
        ];
        let mut shares = Vec::new();
        proportional_reinflation(&ResourceVector::cpu(1.5), &vms, &mut shares);
        assert!((shares[0].1.get(ResourceKind::Cpu) - 1.0).abs() < 1e-9);
        assert!((shares[1].1.get(ResourceKind::Cpu) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn reinflation_capped_by_deficit() {
        let spec = ResourceVector::cpu(4.0);
        let vms = [(VmId(1), ResourceVector::cpu(3.0), spec)]; // Deficit 1.
        let mut shares = vec![(VmId(9), spec)];
        proportional_reinflation(&ResourceVector::cpu(10.0), &vms, &mut shares);
        assert_eq!(shares.len(), 1, "earlier contents are replaced");
        assert!((shares[0].1.get(ResourceKind::Cpu) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn reinflation_ignores_undeflated_vms() {
        let spec = ResourceVector::cpu(4.0);
        let vms = [(VmId(1), spec, spec)];
        let mut shares = Vec::new();
        proportional_reinflation(&ResourceVector::cpu(2.0), &vms, &mut shares);
        assert!(shares[0].1.is_zero());
    }
}
