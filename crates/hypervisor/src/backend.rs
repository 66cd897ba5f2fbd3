//! Hypervisor-level overcommitment mechanisms (paper §3.2.3, §5).
//!
//! The paper's prototype runs KVM VMs inside cgroups and reclaims:
//!
//! * CPU by adjusting `cpu.shares`,
//! * memory by lowering `memory.limit_in_bytes` (host-swapping whatever no
//!   longer fits, via an incremental control loop),
//! * disk/network bandwidth through libvirt throttling.
//!
//! This backend reproduces the same semantics over the
//! [`VmState`] its VM lends it: overcommitment always succeeds (it
//! is the layer of last resort), is transparent to the guest, and its
//! latency is dominated by the memory that must be written to the host
//! swap device.

use deflate_core::{HypervisorControl, ReclaimResult, ResourceKind, ResourceVector};
use simkit::{SimDuration, SimTime};

use crate::guest::VmState;
use crate::latency::LatencyModel;

/// The hypervisor layer of one VM: its latency model. Implements
/// [`HypervisorControl`] over the [`VmState`] the caller lends it.
#[derive(Debug)]
pub struct HvBackend {
    latency: LatencyModel,
}

impl HvBackend {
    /// Creates a backend.
    pub fn new(latency: LatencyModel) -> Self {
        HvBackend { latency }
    }
}

impl HypervisorControl<VmState> for HvBackend {
    fn overcommit(
        &mut self,
        st: &mut VmState,
        _now: SimTime,
        amount: &ResourceVector,
        budget: Option<SimDuration>,
    ) -> ReclaimResult {
        // Clamp to what is still reclaimable: cannot overcommit below zero
        // effective allocation.
        let effective = st.effective();
        let mut want = amount.min(&effective);

        // CPU shares and I/O throttles are cheap cgroup writes.
        let mut latency = SimDuration::ZERO;
        if want.get(ResourceKind::Cpu) > 0.0 {
            latency += self.latency.cpu_shares;
        }
        if want.get(ResourceKind::DiskBw) > 0.0 || want.get(ResourceKind::NetBw) > 0.0 {
            latency += self.latency.io_throttle;
        }

        // Memory: lowering the limit forces `swap_delta` of used pages to
        // the host swap device; free pages are dropped at the fast path
        // rate. Both respect the remaining latency budget.
        let want_mem = want.get(ResourceKind::Memory);
        if want_mem > 0.0 {
            let old_swapped = st.swapped_mb;
            let new_effective_mem = st.effective_memory_mb() - want_mem;
            let new_swapped = (st.usage.memory_mb - new_effective_mem.max(0.0)).max(0.0);
            let pressure_delta = (new_swapped - old_swapped).max(0.0);
            // Black-box reclamation also swaps *application* pages it
            // cannot tell apart from free ones (§3.1). Reclaim that
            // exceeds the guest's free pool must hit used pages (half of
            // it, by the host LRU's cold-page bias); even reclaim covered
            // by free pages mis-targets a sliver, because the host cannot
            // see the guest's free list perfectly.
            let visible_mem = st.visible_memory_mb().max(1.0);
            let ratio = (st.usage.memory_mb / visible_mem).clamp(0.0, 1.0);
            let reclaimable_free = st.free_memory_mb();
            let nonpressure = (want_mem - pressure_delta).max(0.0);
            let from_free = nonpressure.min(reclaimable_free);
            let beyond_free = (nonpressure - reclaimable_free).max(0.0);
            let blind_delta = (0.15 * from_free + 0.5 * beyond_free) * ratio;
            st.blind_swapped_mb += blind_delta;
            let swap_delta = pressure_delta + blind_delta;
            let free_delta = (want_mem - swap_delta).max(0.0);
            let mem_budget = budget.map(|b| {
                if b > latency {
                    b - latency
                } else {
                    SimDuration::ZERO
                }
            });
            let full_latency = self.latency.memory_overcommit(swap_delta, free_delta);
            match mem_budget {
                Some(b) if full_latency > b => {
                    // Partial reclamation: scale the reclaimed memory by the
                    // fraction of the required time that fits in the budget.
                    let frac = if full_latency.is_zero() {
                        0.0
                    } else {
                        b.ratio(full_latency)
                    };
                    want.set(ResourceKind::Memory, want_mem * frac);
                    latency += b;
                }
                _ => {
                    latency += full_latency;
                }
            }
        }

        st.overcommitted += want;
        st.recompute_swap();
        ReclaimResult::new(want, latency)
    }

    fn release(
        &mut self,
        st: &mut VmState,
        _now: SimTime,
        amount: &ResourceVector,
    ) -> ResourceVector {
        let give = amount.min(&st.overcommitted);
        st.overcommitted = st.overcommitted.saturating_sub(&give);
        // Swapped pages fault back in lazily; the bookkeeping cost is
        // charged to application performance, not the controller. Blindly
        // swapped pages are re-admitted as the limit rises.
        st.blind_swapped_mb = (st.blind_swapped_mb - give.get(ResourceKind::Memory)).max(0.0);
        st.recompute_swap();
        give
    }

    fn overcommitted(&self, st: &VmState) -> ResourceVector {
        st.overcommitted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 200.0, 1_000.0)
    }

    fn backend_with_usage(mem_used: f64) -> (HvBackend, VmState) {
        let mut st = VmState::new(spec());
        st.usage.memory_mb = mem_used;
        (HvBackend::new(LatencyModel::default()), st)
    }

    #[test]
    fn overcommit_reclaims_in_full_without_budget() {
        let (mut hv, mut st) = backend_with_usage(4_096.0);
        let req = ResourceVector::new(2.0, 8_192.0, 100.0, 500.0);
        let r = hv.overcommit(&mut st, SimTime::ZERO, &req, None);
        assert!(r.reclaimed.approx_eq(&req, 1e-9));
        assert!(hv.overcommitted(&st).approx_eq(&req, 1e-9));
        assert!(r.latency > SimDuration::ZERO);
    }

    #[test]
    fn memory_latency_depends_on_swap() {
        // Reclaiming free memory is fast…
        let (mut idle, mut st_idle) = backend_with_usage(0.0);
        let fast = idle
            .overcommit(
                &mut st_idle,
                SimTime::ZERO,
                &ResourceVector::memory(8_192.0),
                None,
            )
            .latency;
        // …reclaiming used memory must swap and is much slower.
        let (mut busy, mut st_busy) = backend_with_usage(16_000.0);
        let slow = busy
            .overcommit(
                &mut st_busy,
                SimTime::ZERO,
                &ResourceVector::memory(8_192.0),
                None,
            )
            .latency;
        assert!(
            slow.as_secs_f64() > 3.0 * fast.as_secs_f64(),
            "slow {slow} fast {fast}"
        );
        assert!(st_busy.swapped_mb > 7_000.0);
    }

    #[test]
    fn budget_causes_partial_memory_reclaim() {
        let (mut hv, mut st) = backend_with_usage(16_000.0);
        let r = hv.overcommit(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            Some(SimDuration::from_secs(2)),
        );
        let got = r.reclaimed.get(ResourceKind::Memory);
        assert!(got > 0.0 && got < 8_192.0, "got {got}");
        assert!(r.latency <= SimDuration::from_secs(2));
    }

    #[test]
    fn cannot_overcommit_below_zero() {
        let (mut hv, mut st) = backend_with_usage(0.0);
        let r = hv.overcommit(&mut st, SimTime::ZERO, &ResourceVector::cpu(10.0), None);
        assert_eq!(r.reclaimed.get(ResourceKind::Cpu), 4.0);
        let again = hv.overcommit(&mut st, SimTime::ZERO, &ResourceVector::cpu(1.0), None);
        assert!(again.reclaimed.is_zero());
    }

    #[test]
    fn release_caps_and_clears_swap() {
        let (mut hv, mut st) = backend_with_usage(16_000.0);
        hv.overcommit(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::memory(8_192.0),
            None,
        );
        assert!(st.swapped_mb > 0.0);
        let released = hv.release(&mut st, SimTime::ZERO, &ResourceVector::memory(20_000.0));
        assert!((released.get(ResourceKind::Memory) - 8_192.0).abs() < 1e-6);
        assert!(hv.overcommitted(&st).is_zero());
        assert_eq!(st.total_swapped_mb(), 0.0);
    }

    #[test]
    fn io_throttle_is_cheap() {
        let (mut hv, mut st) = backend_with_usage(0.0);
        let r = hv.overcommit(
            &mut st,
            SimTime::ZERO,
            &ResourceVector::new(0.0, 0.0, 100.0, 500.0),
            None,
        );
        assert!(r.latency < SimDuration::from_millis(100));
    }
}
