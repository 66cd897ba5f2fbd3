//! The cascade deflation controller (paper §3.2, Fig. 3) and the reverse
//! cascade used for reinflation (§5).
//!
//! Reclamation starts at the highest layer (the application) and cascades
//! down to the guest OS and the hypervisor; each layer is best-effort and
//! whatever it fails to reclaim *falls through* to the next layer. The
//! hypervisor is the layer of last resort and reclaims any remainder
//! through overcommitment.
//!
//! The controller is deliberately mechanism-agnostic: it only talks to the
//! three layer traits from [`crate::layers`], so the same control flow
//! drives the simulated substrate in this workspace and could drive a
//! libvirt-backed implementation unchanged. The VM's state is owned by
//! the caller and lent to each layer in turn, as one `&mut S` threaded
//! through the calls; no layer holds a handle to it.

use simkit::{SimDuration, SimTime, Span};

use crate::layers::{ApplicationAgent, GuestOs, HypervisorControl};
use crate::resources::{ResourceKind, ResourceVector};

/// How a layer that falls short of its request is retried.
///
/// A layer's first call always runs; while it has reclaimed less than it
/// was asked for and attempts remain, the cascade waits `backoff` (then
/// `backoff × multiplier`, then `backoff × multiplier²`, …) and asks the
/// layer again for the *remainder*. Waits and retries are charged against
/// the cascade deadline: a retry whose backoff would not fit the
/// remaining budget is skipped and the shortfall falls through to the
/// next layer, exactly like a timeout.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per layer (first try included). 1 = no retries.
    pub max_attempts: u32,
    /// Wait before the first retry.
    pub backoff: SimDuration,
    /// Growth factor applied to the wait between successive retries.
    pub multiplier: f64,
    /// Backoff jitter fraction in `[0, 1]`: each wait is scaled by a
    /// deterministic factor in `[1 − jitter, 1 + jitter]`, hashed from
    /// `(jitter_seed, entity, attempt)` — so a fleet of VMs retrying the
    /// same failure desynchronizes instead of stampeding in lockstep.
    /// `0.0` (the default) disables jitter entirely: no hash is drawn
    /// and the wait sequence is byte-identical to the pre-jitter policy.
    pub jitter: f64,
    /// Seed for the jitter hash.
    pub jitter_seed: u64,
    /// Identity of the retrying entity (e.g. the VM id), so co-located
    /// retriers draw different factors from the same seed.
    pub entity: u64,
}

/// Domain salt for backoff-jitter draws ("retry_ji").
const SALT_RETRY_JITTER: u64 = 0x7265_7472_795f_6a69;

impl RetryPolicy {
    /// No retries: each layer is asked exactly once (the pre-fault-model
    /// behaviour; the default everywhere).
    pub const NONE: RetryPolicy = RetryPolicy {
        max_attempts: 1,
        backoff: SimDuration::ZERO,
        multiplier: 2.0,
        jitter: 0.0,
        jitter_seed: 0,
        entity: 0,
    };

    /// `n` total attempts with the given initial backoff, doubling.
    pub const fn attempts(n: u32, backoff: SimDuration) -> RetryPolicy {
        RetryPolicy {
            max_attempts: n,
            backoff,
            multiplier: 2.0,
            jitter: 0.0,
            jitter_seed: 0,
            entity: 0,
        }
    }

    /// Enables deterministic backoff jitter: waits scale by a factor in
    /// `[1 − frac, 1 + frac]` hashed from `(seed, entity, attempt)`.
    pub const fn with_jitter(mut self, frac: f64, seed: u64) -> RetryPolicy {
        self.jitter = frac;
        self.jitter_seed = seed;
        self
    }

    /// Stamps the retrying entity's identity (e.g. the VM id) so its
    /// jitter draws are independent of every other retrier's.
    pub const fn for_entity(mut self, entity: u64) -> RetryPolicy {
        self.entity = entity;
        self
    }

    /// The wait before the retry following `completed` attempts:
    /// `backoff × multiplier^(completed − 1)`, jitter-scaled when
    /// enabled. With `jitter == 0` no hash is drawn and the result is
    /// exactly the un-jittered wait.
    fn wait_after(&self, completed: u32) -> SimDuration {
        let base = self
            .backoff
            .mul_f64(self.multiplier.powi(completed.saturating_sub(1) as i32));
        if self.jitter <= 0.0 {
            return base;
        }
        let bits = simkit::fault::decide(
            self.jitter_seed,
            SALT_RETRY_JITTER,
            self.entity,
            completed as u64,
        );
        // 53 uniform bits → u in [0, 1) → factor in [1 − j, 1 + j).
        let u = (bits >> 11) as f64 / (1u64 << 53) as f64;
        let factor = 1.0 + self.jitter.min(1.0) * (2.0 * u - 1.0);
        base.mul_f64(factor.max(0.0))
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy::NONE
    }
}

/// Which layers participate in a deflation, and the optional deadline.
///
/// The paper evaluates hypervisor-only, OS-only, hypervisor+OS, and the
/// full three-layer cascade (Fig. 5); the two booleans select among them.
#[derive(Debug, Clone, Copy)]
pub struct CascadeConfig {
    /// Ask the application agent to self-deflate first.
    pub use_app: bool,
    /// Use guest-OS hot-unplug.
    pub use_os: bool,
    /// Fall through to hypervisor overcommitment for the remainder.
    pub use_hypervisor: bool,
    /// Overall deadline; when a layer would exceed it, the cascade skips
    /// ahead (paper §5: "If a deflation operation times out, we proceed to
    /// the next level").
    pub deadline: Option<SimDuration>,
    /// Per-layer retry with exponential backoff under the remaining
    /// deadline budget.
    pub retry: RetryPolicy,
    /// Honor each VM's working-set floor: policy-driven deflation refuses
    /// to cut memory below the application's reported minimum footprint
    /// (`Vm::memory_floor_mb` in the `hypervisor` crate). Off by default —
    /// the floor only binds where a distress-aware control loop sets it.
    pub working_set_floor: bool,
}

impl Default for CascadeConfig {
    fn default() -> Self {
        CascadeConfig::FULL
    }
}

impl CascadeConfig {
    /// The full three-layer cascade.
    pub const FULL: CascadeConfig = CascadeConfig {
        use_app: true,
        use_os: true,
        use_hypervisor: true,
        deadline: None,
        retry: RetryPolicy::NONE,
        working_set_floor: false,
    };

    /// Hypervisor-level overcommitment only (black-box VM overcommitment,
    /// what VM-level cluster managers do today).
    pub const HYPERVISOR_ONLY: CascadeConfig = CascadeConfig {
        use_app: false,
        use_os: false,
        use_hypervisor: true,
        deadline: None,
        retry: RetryPolicy::NONE,
        working_set_floor: false,
    };

    /// Guest-OS hot-unplug only (no fall-through; may miss the target).
    pub const OS_ONLY: CascadeConfig = CascadeConfig {
        use_app: false,
        use_os: true,
        use_hypervisor: false,
        deadline: None,
        retry: RetryPolicy::NONE,
        working_set_floor: false,
    };

    /// Hypervisor + OS ("VM-level deflation" in the paper's terminology,
    /// i.e. the cascade without application participation).
    pub const VM_LEVEL: CascadeConfig = CascadeConfig {
        use_app: false,
        use_os: true,
        use_hypervisor: true,
        deadline: None,
        retry: RetryPolicy::NONE,
        working_set_floor: false,
    };

    /// Returns this configuration with a deadline attached.
    pub fn with_deadline(mut self, deadline: SimDuration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns this configuration with a retry policy attached.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Returns this configuration with working-set floors honored.
    pub fn with_working_set_floor(mut self, on: bool) -> Self {
        self.working_set_floor = on;
        self
    }
}

/// What one layer contributed to a cascade.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerReport {
    /// What the cascade asked this layer for.
    pub requested: ResourceVector,
    /// What the layer reclaimed.
    pub reclaimed: ResourceVector,
    /// Time the layer's mechanism took (including retry backoff waits).
    pub latency: SimDuration,
    /// How many times the layer was asked (0 = never engaged, 1 = no
    /// retries).
    pub attempts: u32,
}

/// The result of one cascade deflation.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[must_use = "a CascadeOutcome carries the reclaimed amount the caller must account for"]
pub struct CascadeOutcome {
    /// Application-layer contribution (voluntarily relinquished).
    pub app: LayerReport,
    /// Guest-OS layer contribution (hot-unplugged).
    pub os: LayerReport,
    /// Hypervisor layer contribution (overcommitted).
    pub hypervisor: LayerReport,
    /// Total resources reclaimed and returned to the server.
    pub total_reclaimed: ResourceVector,
    /// End-to-end latency (layers run sequentially, as in the paper's
    /// per-VM controller; cross-VM deflations are concurrent).
    pub latency: SimDuration,
    /// Target minus total reclaimed (zero when the target was met).
    pub shortfall: ResourceVector,
    /// Total retries across layers (Σ per-layer `attempts − 1`).
    pub retries: u32,
    /// Upper layers (app, OS) that engaged but still fell short of their
    /// request after all retries, forcing the cascade to escalate to a
    /// lower layer.
    pub escalations: u32,
}

/// Appends one attribute per resource kind: `<prefix>.cpu`,
/// `<prefix>.memory`, ...
fn vector_attrs(mut span: Span, prefix: &str, v: &ResourceVector) -> Span {
    for kind in ResourceKind::ALL {
        span = span.with_attr(&format!("{prefix}.{}", kind.name()), v.get(kind));
    }
    span
}

impl LayerReport {
    /// Whether the layer was engaged at all (asked for something, gave
    /// something, or spent time trying).
    pub fn engaged(&self) -> bool {
        !self.requested.is_zero() || !self.reclaimed.is_zero() || !self.latency.is_zero()
    }

    /// Builds the per-layer child span (`cascade.layer`) carrying this
    /// report's requested/reclaimed/latency payload.
    pub fn to_span(&self, layer: &str, at: SimTime) -> Span {
        let span = Span::new("cascade.layer", at)
            .with_duration(self.latency)
            .with_attr("layer", layer)
            .with_attr("attempts", u64::from(self.attempts));
        let span = vector_attrs(span, "requested", &self.requested);
        vector_attrs(span, "reclaimed", &self.reclaimed)
    }
}

impl CascadeOutcome {
    /// Returns `true` when the full target was reclaimed.
    pub fn met_target(&self) -> bool {
        self.shortfall.is_zero()
    }

    /// Builds a structured `cascade.deflate` trace span for this outcome,
    /// with one `cascade.layer` child per engaged layer. `at` is when the
    /// cascade started; callers attach context (VM id, server) with
    /// [`Span::with_attr`].
    pub fn to_span(&self, at: SimTime) -> Span {
        let mut span = Span::new("cascade.deflate", at)
            .with_duration(self.latency)
            .with_attr("met_target", self.met_target())
            .with_attr("retries", u64::from(self.retries))
            .with_attr("escalations", u64::from(self.escalations));
        span = vector_attrs(span, "total_reclaimed", &self.total_reclaimed);
        span = vector_attrs(span, "shortfall", &self.shortfall);
        let mut t = at;
        for (name, report) in [
            ("app", &self.app),
            ("os", &self.os),
            ("hypervisor", &self.hypervisor),
        ] {
            if report.engaged() {
                span = span.with_child(report.to_span(name, t));
            }
            t = t.saturating_add(report.latency);
        }
        span
    }
}

fn remaining_budget(deadline: Option<SimDuration>, spent: SimDuration) -> Option<SimDuration> {
    deadline.map(|d| d.saturating_since_zero(spent))
}

/// Retries a layer that fell short of `requested` until it converges, the
/// attempt budget runs out, or the next backoff would blow the remaining
/// deadline. Each retry asks only for the remainder; backoff waits count
/// toward both the layer's latency and the cascade's spent time.
fn run_retries(
    now: SimTime,
    requested: &ResourceVector,
    report: &mut LayerReport,
    spent: &mut SimDuration,
    deadline: Option<SimDuration>,
    retry: &RetryPolicy,
    attempt: &mut dyn FnMut(
        SimTime,
        &ResourceVector,
        Option<SimDuration>,
    ) -> crate::layers::ReclaimResult,
) {
    loop {
        let remainder = requested.saturating_sub(&report.reclaimed);
        if remainder.is_zero() || report.attempts >= retry.max_attempts {
            return;
        }
        let wait = retry.wait_after(report.attempts);
        if let Some(d) = deadline {
            // A retry only runs if the backoff leaves budget to act in.
            if *spent + wait >= d {
                return;
            }
        }
        *spent += wait;
        report.latency += wait;
        let budget = remaining_budget(deadline, *spent);
        let res = attempt(now.saturating_add(*spent), &remainder, budget);
        report.attempts += 1;
        report.latency += res.latency;
        *spent += res.latency;
        report.reclaimed += res.reclaimed.min(&remainder);
    }
}

// Small extension trait to keep the budget arithmetic readable.
trait SaturatingSince {
    fn saturating_since_zero(self, spent: SimDuration) -> SimDuration;
}

impl SaturatingSince for SimDuration {
    fn saturating_since_zero(self, spent: SimDuration) -> SimDuration {
        if spent >= self {
            SimDuration::ZERO
        } else {
            self - spent
        }
    }
}

/// Runs cascade deflation against one VM (paper Fig. 3).
///
/// `target` is the reclamation vector the cluster manager assigned to this
/// VM, and `vm` is that VM's state, which every layer reads and changes
/// in turn. The function drives the three layers in order and returns a
/// [`CascadeOutcome`] describing who reclaimed what and how long it took.
///
/// The guest-OS unplug target follows the pseudo-code exactly:
/// `min(target, max(app_relinquished, unpluggable))` — resources the
/// application just freed are unpluggable even if the OS's own free pool is
/// smaller.
///
/// # Accounting
///
/// The application and guest-OS layers operate on the *same* resource
/// pool: what the application relinquishes becomes unpluggable, and the
/// OS unplugs from it. Their joint contribution is therefore the
/// elementwise `max(app_reclaimed, os_reclaimed)`, never the sum. The
/// hypervisor is asked only for `target - max(app_reclaimed,
/// os_reclaimed)`, and
///
/// ```text
/// total_reclaimed = max(app_reclaimed, os_reclaimed) + hv_reclaimed
/// shortfall       = target - total_reclaimed   (elementwise, >= 0)
/// ```
///
/// so `total_reclaimed <= target` holds elementwise and an application
/// that relinquishes the full target leaves nothing for the hypervisor to
/// overcommit.
///
/// # Examples
///
/// See the crate-level example and the `hypervisor` crate, which provides
/// the substrate implementing the three traits.
pub fn deflate_vm<S: ?Sized>(
    now: SimTime,
    target: &ResourceVector,
    vm: &mut S,
    app: Option<&mut dyn ApplicationAgent<S>>,
    os: &mut dyn GuestOs<S>,
    hv: &mut dyn HypervisorControl<S>,
    cfg: &CascadeConfig,
) -> CascadeOutcome {
    let mut outcome = CascadeOutcome::default();
    let mut spent = SimDuration::ZERO;

    // Layer 1: application self-deflation (best-effort, may decline).
    let mut app_r = ResourceVector::ZERO;
    if cfg.use_app {
        if let Some(agent) = app {
            let res = agent.self_deflate(vm, now, target);
            outcome.app = LayerReport {
                requested: *target,
                // An agent cannot relinquish more than asked.
                reclaimed: res.reclaimed.min(target),
                latency: res.latency,
                attempts: 1,
            };
            spent += res.latency;
            run_retries(
                now,
                target,
                &mut outcome.app,
                &mut spent,
                cfg.deadline,
                &cfg.retry,
                &mut |at, remainder, _budget| agent.self_deflate(vm, at, remainder),
            );
            app_r = outcome.app.reclaimed;
        }
    }

    // Layer 2: guest-OS hot-unplug.
    //
    // `unplug_target = min(target, max(app_r, unpluggable))`: the
    // application's relinquished resources are free inside the guest, so
    // they are unpluggable even when the OS free pool alone is smaller.
    let mut unplug_r = ResourceVector::ZERO;
    if cfg.use_os {
        let budget = remaining_budget(cfg.deadline, spent);
        if budget != Some(SimDuration::ZERO) {
            let unplug_target = app_r.max(&os.unpluggable(vm)).min(target);
            if !unplug_target.is_zero() {
                let res = os.try_unplug(vm, now, &unplug_target, budget);
                outcome.os = LayerReport {
                    requested: unplug_target,
                    reclaimed: res.reclaimed.min(&unplug_target),
                    latency: res.latency,
                    attempts: 1,
                };
                spent += res.latency;
                run_retries(
                    now,
                    &unplug_target,
                    &mut outcome.os,
                    &mut spent,
                    cfg.deadline,
                    &cfg.retry,
                    &mut |at, remainder, budget| os.try_unplug(vm, at, remainder, budget),
                );
                unplug_r = outcome.os.reclaimed;
            }
        }
    }

    // What the upper two layers jointly reclaimed. The application frees
    // resources *inside* the guest and the OS then unplugs from that same
    // pool, so the two contributions overlap: the credited amount is the
    // elementwise max, not the sum. (Resources the application freed but
    // the OS could not unplug are still idle inside the guest, so
    // overcommitting them is safe and they count as reclaimed.)
    let credited = app_r.max(&unplug_r);

    // Layer 3: hypervisor overcommitment picks up the slack.
    //
    // Only what the upper layers failed to reclaim needs overcommitment;
    // asking for `target - unplug_r` here would double-reclaim whatever
    // the application already relinquished.
    let mut hv_r = ResourceVector::ZERO;
    if cfg.use_hypervisor {
        let remainder = target.saturating_sub(&credited);
        if !remainder.is_zero() {
            let budget = remaining_budget(cfg.deadline, spent);
            let res = hv.overcommit(vm, now, &remainder, budget);
            outcome.hypervisor = LayerReport {
                requested: remainder,
                reclaimed: res.reclaimed.min(&remainder),
                latency: res.latency,
                attempts: 1,
            };
            spent += res.latency;
            run_retries(
                now,
                &remainder,
                &mut outcome.hypervisor,
                &mut spent,
                cfg.deadline,
                &cfg.retry,
                &mut |at, rem, budget| hv.overcommit(vm, at, rem, budget),
            );
            hv_r = outcome.hypervisor.reclaimed;
        }
    }

    outcome.total_reclaimed = credited + hv_r;
    outcome.latency = spent;
    outcome.shortfall = target.saturating_sub(&outcome.total_reclaimed);
    outcome.retries = outcome.app.attempts.saturating_sub(1)
        + outcome.os.attempts.saturating_sub(1)
        + outcome.hypervisor.attempts.saturating_sub(1);
    // An upper layer that engaged and still fell short of its own request
    // pushed work down the cascade.
    for r in [outcome.app, outcome.os] {
        if r.engaged() && !r.reclaimed.dominates(&r.requested) {
            outcome.escalations += 1;
        }
    }
    outcome
}

/// The reverse cascade: returns `amount` of resources to a deflated VM
/// (paper §5, "Cascade deflation can be used 'in reverse'").
///
/// Hypervisor-level overcommitment is released first (cheapest and it
/// un-throttles the VM immediately), the remainder is hot-plugged back into
/// the guest, and finally the application agent is informed of the total so
/// it can re-expand (grow heap, re-admit tasks, ...).
///
/// Returns the amount actually re-inflated, which may be less than
/// requested if the VM was not deflated that far.
pub fn reinflate_vm<S: ?Sized>(
    now: SimTime,
    amount: &ResourceVector,
    vm: &mut S,
    app: Option<&mut dyn ApplicationAgent<S>>,
    os: &mut dyn GuestOs<S>,
    hv: &mut dyn HypervisorControl<S>,
) -> ResourceVector {
    let released = hv.release(vm, now, amount);
    let remainder = amount.saturating_sub(&released);
    let plugged = if remainder.is_zero() {
        ResourceVector::ZERO
    } else {
        os.hot_plug(vm, now, &remainder)
    };
    let total = released + plugged;
    if !total.is_zero() {
        if let Some(agent) = app {
            agent.reinflate(vm, now, &total);
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{InelasticAgent, ReclaimResult};
    use crate::resources::ResourceKind;

    /// The state of a fake VM: its free pool and what each layer took.
    struct FakeVm {
        free: ResourceVector,
        unplugged: ResourceVector,
        over: ResourceVector,
    }

    impl FakeVm {
        fn new(free: ResourceVector) -> Self {
            FakeVm {
                free,
                unplugged: ResourceVector::ZERO,
                over: ResourceVector::ZERO,
            }
        }
    }

    /// A scriptable fake guest OS.
    struct FakeOs {
        /// Fraction of the unplug request that succeeds (busy-resource model).
        success_fraction: f64,
        latency: SimDuration,
    }

    impl FakeOs {
        fn new() -> Self {
            FakeOs {
                success_fraction: 1.0,
                latency: SimDuration::from_secs(1),
            }
        }
    }

    impl GuestOs<FakeVm> for FakeOs {
        fn unpluggable(&self, vm: &FakeVm) -> ResourceVector {
            vm.free
        }

        fn try_unplug(
            &mut self,
            vm: &mut FakeVm,
            _now: SimTime,
            target: &ResourceVector,
            budget: Option<SimDuration>,
        ) -> ReclaimResult {
            if budget == Some(SimDuration::ZERO) {
                return ReclaimResult::NOTHING;
            }
            let got = target.scale(self.success_fraction);
            vm.unplugged += got;
            vm.free = vm.free.saturating_sub(&got);
            ReclaimResult::new(got, self.latency)
        }

        fn hot_plug(
            &mut self,
            vm: &mut FakeVm,
            _now: SimTime,
            amount: &ResourceVector,
        ) -> ResourceVector {
            let give = amount.min(&vm.unplugged);
            vm.unplugged -= give;
            vm.free += give;
            give
        }
    }

    /// A fake hypervisor that always reclaims in full.
    struct FakeHv {
        latency: SimDuration,
    }

    impl FakeHv {
        fn new() -> Self {
            FakeHv {
                latency: SimDuration::from_secs(10),
            }
        }
    }

    impl HypervisorControl<FakeVm> for FakeHv {
        fn overcommit(
            &mut self,
            vm: &mut FakeVm,
            _now: SimTime,
            amount: &ResourceVector,
            budget: Option<SimDuration>,
        ) -> ReclaimResult {
            if budget == Some(SimDuration::ZERO) {
                return ReclaimResult::NOTHING;
            }
            vm.over += *amount;
            ReclaimResult::new(*amount, self.latency)
        }

        fn release(
            &mut self,
            vm: &mut FakeVm,
            _now: SimTime,
            amount: &ResourceVector,
        ) -> ResourceVector {
            let give = amount.min(&vm.over);
            vm.over -= give;
            give
        }

        fn overcommitted(&self, vm: &FakeVm) -> ResourceVector {
            vm.over
        }
    }

    /// An agent that relinquishes a fixed fraction of any request.
    struct FractionAgent(f64);

    impl ApplicationAgent<FakeVm> for FractionAgent {
        fn self_deflate(
            &mut self,
            _vm: &mut FakeVm,
            _now: SimTime,
            target: &ResourceVector,
        ) -> ReclaimResult {
            ReclaimResult::new(target.scale(self.0), SimDuration::from_millis(100))
        }

        fn reinflate(&mut self, _vm: &mut FakeVm, _now: SimTime, _available: &ResourceVector) {}
    }

    fn target() -> ResourceVector {
        ResourceVector::new(2.0, 8_192.0, 50.0, 100.0)
    }

    #[test]
    fn full_cascade_meets_target() {
        let mut vm = FakeVm::new(ResourceVector::new(1.0, 4_096.0, 50.0, 100.0));
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let mut agent = FractionAgent(0.5);
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            Some(&mut agent),
            &mut os,
            &mut hv,
            &CascadeConfig::FULL,
        );
        assert!(out.met_target(), "shortfall: {}", out.shortfall);
        assert!(out.total_reclaimed.approx_eq(&target(), 1e-9));
        // App relinquished half; OS unplugged max(app, free) ∧ target.
        assert_eq!(out.app.reclaimed, target().scale(0.5));
        // OS unplug target: max(half-target, free) elementwise, min target.
        let expected_unplug = target()
            .scale(0.5)
            .max(&ResourceVector::new(1.0, 4_096.0, 50.0, 100.0))
            .min(&target());
        assert!(out.os.reclaimed.approx_eq(&expected_unplug, 1e-9));
        // Hypervisor picked up exactly the slack.
        let slack = target().saturating_sub(&out.os.reclaimed);
        assert!(out.hypervisor.reclaimed.approx_eq(&slack, 1e-9));
        // Latency is the sum of layer latencies.
        assert_eq!(
            out.latency,
            SimDuration::from_millis(100) + SimDuration::from_secs(1) + SimDuration::from_secs(10)
        );
    }

    #[test]
    fn hypervisor_only_reclaims_everything_at_hv() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &CascadeConfig::HYPERVISOR_ONLY,
        );
        assert!(out.met_target());
        assert!(out.os.reclaimed.is_zero());
        assert!(out.hypervisor.reclaimed.approx_eq(&target(), 1e-9));
        assert!(hv.overcommitted(&vm).approx_eq(&target(), 1e-9));
    }

    #[test]
    fn os_only_can_fall_short() {
        // Free pool smaller than target and no hypervisor fall-through.
        let free = ResourceVector::new(1.0, 2_048.0, 0.0, 0.0);
        let mut vm = FakeVm::new(free);
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &CascadeConfig::OS_ONLY,
        );
        assert!(!out.met_target());
        assert!(out.os.reclaimed.approx_eq(&free, 1e-9));
        assert_eq!(out.shortfall.get(ResourceKind::Memory), 8_192.0 - 2_048.0);
        assert!(out.hypervisor.reclaimed.is_zero());
    }

    #[test]
    fn partial_unplug_falls_through() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        os.success_fraction = 0.25; // Busy resources: only 25 % unplugs.
        let mut hv = FakeHv::new();
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &CascadeConfig::VM_LEVEL,
        );
        assert!(out.met_target());
        assert!(out.os.reclaimed.approx_eq(&target().scale(0.25), 1e-9));
        assert!(out
            .hypervisor
            .reclaimed
            .approx_eq(&target().scale(0.75), 1e-9));
    }

    #[test]
    fn inelastic_agent_pushes_everything_down() {
        let mut vm = FakeVm::new(ResourceVector::ZERO); // Nothing free either.
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let mut agent = InelasticAgent;
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            Some(&mut agent),
            &mut os,
            &mut hv,
            &CascadeConfig::FULL,
        );
        assert!(out.met_target());
        assert!(out.app.reclaimed.is_zero());
        assert!(out.os.reclaimed.is_zero());
        assert!(out.hypervisor.reclaimed.approx_eq(&target(), 1e-9));
    }

    #[test]
    fn deadline_skips_exhausted_layers() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        os.latency = SimDuration::from_secs(5);
        let mut hv = FakeHv::new();
        let mut agent = FractionAgent(0.5);
        // Deadline shorter than the app layer's latency: OS and HV get a
        // zero budget and reclaim nothing, so only the app's half counts.
        let cfg = CascadeConfig::FULL.with_deadline(SimDuration::from_millis(50));
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            Some(&mut agent),
            &mut os,
            &mut hv,
            &cfg,
        );
        assert!(out.os.reclaimed.is_zero());
        assert!(out.hypervisor.reclaimed.is_zero());
        assert!(out.total_reclaimed.approx_eq(&target().scale(0.5), 1e-9));
        assert!(!out.met_target());
    }

    #[test]
    fn full_app_relinquish_means_no_hv_overcommit() {
        // Regression: with the app layer on and the OS layer off, an agent
        // relinquishing the entire target used to be ignored by the
        // accounting — the hypervisor was asked for the full target again
        // (double reclamation) and `total_reclaimed` omitted the app share.
        let cfg = CascadeConfig {
            use_app: true,
            use_os: false,
            use_hypervisor: true,
            deadline: None,
            retry: RetryPolicy::NONE,
            working_set_floor: false,
        };
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let mut agent = FractionAgent(1.0);
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            Some(&mut agent),
            &mut os,
            &mut hv,
            &cfg,
        );
        // Nothing falls through: the hypervisor is never asked.
        assert!(out.hypervisor.requested.is_zero());
        assert!(out.hypervisor.reclaimed.is_zero());
        assert!(hv.overcommitted(&vm).is_zero());
        // And the app's contribution is credited in full.
        assert!(out.total_reclaimed.approx_eq(&target(), 1e-9));
        assert!(out.shortfall.is_zero());
        assert!(out.met_target());
    }

    #[test]
    fn agent_cannot_overshoot_target() {
        struct Overeager;
        impl ApplicationAgent<FakeVm> for Overeager {
            fn self_deflate(
                &mut self,
                _vm: &mut FakeVm,
                _n: SimTime,
                t: &ResourceVector,
            ) -> ReclaimResult {
                ReclaimResult::new(t.scale(10.0), SimDuration::ZERO)
            }
            fn reinflate(&mut self, _vm: &mut FakeVm, _n: SimTime, _a: &ResourceVector) {}
        }
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let mut agent = Overeager;
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            Some(&mut agent),
            &mut os,
            &mut hv,
            &CascadeConfig::FULL,
        );
        assert!(out.app.reclaimed.approx_eq(&target(), 1e-9));
        assert!(out.total_reclaimed.approx_eq(&target(), 1e-9));
    }

    #[test]
    fn reinflate_releases_hv_first_then_plugs() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        os.success_fraction = 0.5;
        let mut hv = FakeHv::new();
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &CascadeConfig::VM_LEVEL,
        );
        assert!(out.met_target());
        let overcommitted_before = hv.overcommitted(&vm);
        assert!(!overcommitted_before.is_zero());

        // Reinflate the full target: hypervisor share released, rest plugged.
        let got = reinflate_vm(SimTime::ZERO, &target(), &mut vm, None, &mut os, &mut hv);
        assert!(got.approx_eq(&target(), 1e-9));
        assert!(hv.overcommitted(&vm).is_zero());
        assert!(vm.unplugged.is_zero());
    }

    #[test]
    fn reinflate_caps_at_deflated_amount() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        // Deflate only half the target.
        let half = target().scale(0.5);
        let out = deflate_vm(
            SimTime::ZERO,
            &half,
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &CascadeConfig::VM_LEVEL,
        );
        assert!(out.met_target());
        // Ask for twice as much back; get only the deflated half.
        let got = reinflate_vm(SimTime::ZERO, &target(), &mut vm, None, &mut os, &mut hv);
        assert!(got.approx_eq(&half, 1e-9), "got {got}");
    }

    #[test]
    fn outcome_span_carries_layer_payloads() {
        let mut vm = FakeVm::new(ResourceVector::new(1.0, 4_096.0, 50.0, 100.0));
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let mut agent = FractionAgent(0.5);
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            Some(&mut agent),
            &mut os,
            &mut hv,
            &CascadeConfig::FULL,
        );
        let span = out.to_span(SimTime::from_secs(3)).with_attr("vm", "vm-9");
        assert_eq!(span.kind, "cascade.deflate");
        assert_eq!(span.at, SimTime::from_secs(3));
        assert_eq!(span.duration, out.latency);
        assert_eq!(
            span.attr("met_target").and_then(|v| v.as_bool()),
            Some(true)
        );
        assert_eq!(
            span.attr("total_reclaimed.cpu").and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(span.children.len(), 3);
        let layers: Vec<&str> = span
            .children
            .iter()
            .filter_map(|c| c.attr("layer").and_then(|v| v.as_str()))
            .collect();
        assert_eq!(layers, vec!["app", "os", "hypervisor"]);
        let app = &span.children[0];
        assert_eq!(
            app.attr("requested.cpu").and_then(|v| v.as_f64()),
            Some(2.0)
        );
        assert_eq!(
            app.attr("reclaimed.cpu").and_then(|v| v.as_f64()),
            Some(1.0)
        );
        assert_eq!(app.duration, SimDuration::from_millis(100));
        // Children start when their layer ran, sequentially.
        assert_eq!(
            span.children[1].at,
            SimTime::from_secs(3) + SimDuration::from_millis(100)
        );
    }

    #[test]
    fn outcome_span_skips_idle_layers() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &CascadeConfig::HYPERVISOR_ONLY,
        );
        let span = out.to_span(SimTime::ZERO);
        assert_eq!(span.children.len(), 1);
        assert_eq!(
            span.children[0].attr("layer").and_then(|v| v.as_str()),
            Some("hypervisor")
        );
    }

    #[test]
    fn retries_converge_on_flaky_layer() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        os.success_fraction = 0.5; // Every attempt unplugs half the remainder.
        let mut hv = FakeHv::new();
        let cfg = CascadeConfig::OS_ONLY
            .with_retry(RetryPolicy::attempts(3, SimDuration::from_millis(10)));
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &cfg,
        );
        assert_eq!(out.os.attempts, 3);
        assert_eq!(out.retries, 2);
        // 1/2 + 1/4 + 1/8 of the target across the three attempts.
        assert!(out.total_reclaimed.approx_eq(&target().scale(0.875), 1e-9));
        // Three 1 s unplugs plus the 10 ms and 20 ms backoff waits.
        assert_eq!(
            out.latency,
            SimDuration::from_secs(3) + SimDuration::from_millis(30)
        );
        assert_eq!(out.escalations, 1);
        assert!(!out.met_target());
    }

    #[test]
    fn retry_stops_once_target_met() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let cfg =
            CascadeConfig::VM_LEVEL.with_retry(RetryPolicy::attempts(5, SimDuration::from_secs(1)));
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &cfg,
        );
        // The OS reclaimed everything on the first try: no retries burned.
        assert_eq!(out.os.attempts, 1);
        assert_eq!(out.retries, 0);
        assert_eq!(out.escalations, 0);
        assert!(out.met_target());
    }

    #[test]
    fn retry_backoff_respects_deadline_budget() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        os.success_fraction = 0.5;
        os.latency = SimDuration::from_secs(2);
        let mut hv = FakeHv::new();
        // 3 s deadline: the first unplug spends 2 s, so a 2 s backoff can
        // never fit — the cascade escalates to the hypervisor instead of
        // burning the deadline on retries.
        let cfg = CascadeConfig::VM_LEVEL
            .with_deadline(SimDuration::from_secs(3))
            .with_retry(RetryPolicy::attempts(5, SimDuration::from_secs(2)));
        let out = deflate_vm(
            SimTime::ZERO,
            &target(),
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &cfg,
        );
        assert_eq!(out.os.attempts, 1, "backoff would blow the deadline");
        assert!(out.met_target(), "hypervisor picks up the slack");
        assert_eq!(out.escalations, 1);
    }

    #[test]
    fn zero_jitter_waits_are_byte_identical() {
        // A zero jitter fraction must not change a single wait, no
        // matter how the seed/entity knobs are set: the jittered policy
        // is strictly opt-in.
        let plain = RetryPolicy::attempts(5, SimDuration::from_millis(100));
        let knobbed = plain.with_jitter(0.0, 99).for_entity(42);
        for completed in 1..6 {
            assert_eq!(plain.wait_after(completed), knobbed.wait_after(completed));
        }
    }

    #[test]
    fn jitter_is_bounded_deterministic_and_per_entity() {
        let base = RetryPolicy::attempts(6, SimDuration::from_millis(100));
        let a = base.with_jitter(0.5, 7).for_entity(3);
        let b = base.with_jitter(0.5, 7).for_entity(4);
        let mut diverged = false;
        for completed in 1..6 {
            let plain = base.wait_after(completed).as_secs_f64();
            let wa = a.wait_after(completed).as_secs_f64();
            // Factor stays inside [1 − j, 1 + j].
            assert!(wa >= plain * 0.5 - 1e-9 && wa <= plain * 1.5 + 1e-9);
            // Same policy, same attempt → same wait.
            assert_eq!(a.wait_after(completed), a.wait_after(completed));
            if a.wait_after(completed) != b.wait_after(completed) {
                diverged = true;
            }
        }
        assert!(diverged, "different entities must draw different factors");
    }

    #[test]
    fn zero_target_is_a_noop() {
        let mut vm = FakeVm::new(target());
        let mut os = FakeOs::new();
        let mut hv = FakeHv::new();
        let out = deflate_vm(
            SimTime::ZERO,
            &ResourceVector::ZERO,
            &mut vm,
            None,
            &mut os,
            &mut hv,
            &CascadeConfig::FULL,
        );
        assert!(out.met_target());
        assert!(out.total_reclaimed.is_zero());
        assert_eq!(out.latency, SimDuration::ZERO);
    }
}
