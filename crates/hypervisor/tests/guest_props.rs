//! Property tests for `VmState` swap accounting: under arbitrary
//! sequences of unplug / hot-plug / overcommit / balloon / usage / page
//! cache / blind-swap updates, the memory bookkeeping never goes
//! negative, never swaps more than the application's RSS, and always
//! drops page cache before resorting to pressure swap.

use deflate_core::{GuestOs, ResourceKind, ResourceVector};
use hypervisor::guest::{GuestConfig, GuestModel, MemoryMechanism, VmState};
use hypervisor::LatencyModel;
use proptest::prelude::*;
use simkit::SimTime;

const SPEC_MEM: f64 = 16_384.0;

fn spec() -> ResourceVector {
    ResourceVector::new(4.0, SPEC_MEM, 200.0, 1_000.0)
}

/// One randomized mutation of the guest state. `a` and `b` are raw
/// amounts in [0, 1], scaled per operation.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: u8,
    a: f64,
}

fn apply(g: &mut GuestModel, st: &mut VmState, op: Op) {
    match op.kind % 6 {
        0 => {
            // Application RSS moves anywhere in [0, 1.2 × spec] — the
            // overshoot exercises the OOM / forced-swap regime.
            st.usage.memory_mb = op.a * SPEC_MEM * 1.2;
            st.recompute_swap();
        }
        1 => {
            // OS-level unplug (memory + sometimes a vCPU).
            let target = ResourceVector::new((op.a * 4.0).floor(), op.a * SPEC_MEM, 0.0, 0.0);
            g.try_unplug(st, SimTime::ZERO, &target, None);
        }
        2 => {
            // Hot-plug back a chunk of whatever was taken.
            let amount = ResourceVector::new(4.0, op.a * SPEC_MEM, 0.0, 0.0);
            g.hot_plug(st, SimTime::ZERO, &amount);
        }
        3 => {
            // Hypervisor overcommitment moves within [0, visible].
            let visible = st.visible_memory_mb();
            st.overcommitted = st.overcommitted.with(ResourceKind::Memory, op.a * visible);
            st.recompute_swap();
        }
        4 => {
            // I/O grows the page cache; recompute clamps it to room.
            st.page_cache_mb += op.a * 4_096.0;
            st.recompute_swap();
        }
        _ => {
            // Black-box host reclamation blindly swaps app pages.
            st.blind_swapped_mb += op.a * 4_096.0;
            st.recompute_swap();
        }
    }
}

fn assert_swap_invariants(st: &VmState) {
    assert!(st.swapped_mb >= 0.0, "negative swap: {}", st.swapped_mb);
    assert!(
        st.blind_swapped_mb >= 0.0,
        "negative blind swap: {}",
        st.blind_swapped_mb
    );
    assert!(
        st.page_cache_mb >= 0.0,
        "negative page cache: {}",
        st.page_cache_mb
    );
    assert!(
        st.ballooned_mb >= 0.0,
        "negative balloon: {}",
        st.ballooned_mb
    );
    // Never more on the swap device than the application has resident.
    assert!(
        st.swapped_mb + st.blind_swapped_mb <= st.usage.memory_mb + 1e-6,
        "swapped {} + blind {} > RSS {}",
        st.swapped_mb,
        st.blind_swapped_mb,
        st.usage.memory_mb
    );
    // Page cache drops before pressure swap: any pressure swap implies
    // the cache was squeezed to zero, and the cache never exceeds the
    // room left after the app's RSS.
    if st.swapped_mb > 1e-9 {
        assert!(
            st.page_cache_mb <= 1e-6,
            "pressure swap {} with page cache {} remaining",
            st.swapped_mb,
            st.page_cache_mb
        );
    }
    let room = (st.effective_memory_mb() - st.usage.memory_mb).max(0.0);
    assert!(
        st.page_cache_mb <= room + 1e-6,
        "page cache {} exceeds room {}",
        st.page_cache_mb,
        room
    );
    // Pressure swap is exactly the RSS overflow past effective memory.
    let overflow = (st.usage.memory_mb - st.effective_memory_mb()).max(0.0);
    assert!(
        (st.swapped_mb - overflow).abs() < 1e-6,
        "swap {} != overflow {}",
        st.swapped_mb,
        overflow
    );
}

fn run_sequence(raw: &[(u8, f64)], force_unplug: bool, balloon: bool) {
    let cfg = GuestConfig {
        force_unplug,
        memory_mechanism: if balloon {
            MemoryMechanism::Balloon
        } else {
            MemoryMechanism::Hotplug
        },
        ..GuestConfig::default()
    };
    let mut g = GuestModel::new(cfg, LatencyModel::default());
    let mut st = VmState::new(spec());
    for &(kind, a) in raw {
        apply(&mut g, &mut st, Op { kind, a });
        assert_swap_invariants(&st);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn swap_invariants_hold_under_random_sequences(
        ops in prop::collection::vec((0u8..6, 0.0f64..1.0), 1..60),
        mode in 0u8..4,
    ) {
        run_sequence(&ops, mode & 1 != 0, mode & 2 != 0);
    }
}

#[test]
fn forced_unplug_can_oom_but_never_negative() {
    // Deterministic regression: force-unplug past the app's RSS, then
    // plug back — accounting stays sane through the OOM regime.
    let cfg = GuestConfig {
        force_unplug: true,
        ..GuestConfig::default()
    };
    let mut g = GuestModel::new(cfg, LatencyModel::default());
    let mut st = VmState::new(spec());
    st.usage.memory_mb = 12_000.0;
    st.recompute_swap();
    g.try_unplug(
        &mut st,
        SimTime::ZERO,
        &ResourceVector::memory(15_000.0),
        None,
    );
    assert_swap_invariants(&st);
    assert!(st.is_oom());
    g.hot_plug(&mut st, SimTime::ZERO, &ResourceVector::memory(15_000.0));
    assert_swap_invariants(&st);
    assert!(!st.is_oom());
}
