//! Deflation-aware VM placement (paper §5, "Bin-packing based VM
//! placement").
//!
//! A server's availability is `A_j = Free_j + Deflatable_j` (Eq. 4) and a
//! VM's fitness for it is the cosine similarity between the demand vector
//! and the availability vector. Three policies are implemented, as in the
//! paper's Fig. 8d: best-fit (highest fitness), first-fit (first server
//! that fits), and 2-choices (two random candidates, keep the fitter).
//!
//! Selection is two-tier: servers whose *free* resources already cover
//! the demand are strictly preferred (placing there disrupts nobody);
//! only when none exists does the reclaimable availability of the given
//! [`AvailabilityMode`] come into play.
//!
//! The cluster manager answers every query from the
//! [`PlacementIndex`](crate::PlacementIndex). The two full scans here are
//! its oracles, one per query type: [`choose_server_with`] for placement
//! and [`best_headroom_with`] for migration destinations. Debug builds
//! cross-check every indexed answer against them (same tie-breaking,
//! same RNG draws, same chosen server).

use deflate_core::ResourceVector;
use hypervisor::PhysicalServer;
use simkit::SimRng;

/// Which reclaimable resources count toward a server's availability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AvailabilityMode {
    /// The paper's Eq. 4: `free + deflatable`.
    Deflation,
    /// A preemption-only manager: `free + preemptible` (low-priority VMs
    /// can be killed to make room).
    PreemptionOnly,
}

/// The mode's availability vector, derived from an already-computed free
/// vector so the free tier and the availability tier of one scan share a
/// single per-server `free()` evaluation.
#[inline]
pub(crate) fn avail_from_free(
    server: &PhysicalServer,
    free: &ResourceVector,
    mode: AvailabilityMode,
) -> ResourceVector {
    match mode {
        AvailabilityMode::Deflation => *free + server.deflatable(),
        AvailabilityMode::PreemptionOnly => *free + server.preemptible(),
    }
}

/// BestFit's ranking key for a candidate vector: (cosine fitness,
/// availability magnitude).
#[inline]
pub(crate) fn score(avail: &ResourceVector, demand: &ResourceVector) -> (f64, f64) {
    (avail.cosine_similarity(demand), avail.norm())
}

/// BestFit's exact comparison: cosine values within float fuzz are ties,
/// broken by availability magnitude. Not a total order (the fuzz makes it
/// intransitive), so the winner depends on scan order — every placement
/// path must evaluate candidates in ascending server index to agree.
#[inline]
pub(crate) fn better(new: (f64, f64), best: (f64, f64)) -> bool {
    if (new.0 - best.0).abs() < 1e-9 {
        new.1 > best.1 + 1e-9
    } else {
        new.0 > best.0
    }
}

/// Draws the 2-choices candidate pair: two *distinct* indices when
/// `n >= 2` (sampling the same server twice would silently degenerate to
/// one choice), the single index twice when `n == 1`. Always consumes
/// exactly two RNG draws for `n >= 2` so naive and indexed placement stay
/// on identical RNG streams.
///
/// # Panics
/// Panics when `n == 0`.
pub(crate) fn draw_pair(rng: &mut SimRng, n: usize) -> (usize, usize) {
    let a = rng.index(n);
    if n < 2 {
        return (a, a);
    }
    // Sample b uniformly from the n-1 indices != a.
    let mut b = rng.index(n - 1);
    if b >= a {
        b += 1;
    }
    (a, b)
}

/// A VM placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Highest cosine fitness among all servers that fit.
    BestFit,
    /// First server (by index) whose availability dominates the demand.
    FirstFit,
    /// Pick two random servers, use the fitter (power of two choices).
    TwoChoices,
}

impl PlacementPolicy {
    /// All policies, for sweeps.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::BestFit,
        PlacementPolicy::FirstFit,
        PlacementPolicy::TwoChoices,
    ];

    /// Short name for tables.
    pub fn name(self) -> &'static str {
        match self {
            PlacementPolicy::BestFit => "best-fit",
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::TwoChoices => "2-choices",
        }
    }
}

/// Picks a server for `demand` under `policy` and `mode`; returns its
/// index, or `None` when no server fits even after full reclamation. The
/// naive full-scan oracle of
/// [`PlacementIndex::choose`](crate::PlacementIndex::choose).
///
/// One fused pass evaluates both tiers. Per candidate the free vector is
/// computed once; the mode availability is derived from it only while the
/// free tier is still empty (a free-tier hit makes the availability tier
/// unreachable, so the work is skipped).
pub fn choose_server_with(
    policy: PlacementPolicy,
    servers: &[PhysicalServer],
    demand: &ResourceVector,
    mode: AvailabilityMode,
    rng: &mut SimRng,
) -> Option<usize> {
    match policy {
        PlacementPolicy::FirstFit => {
            let mut fallback = None;
            for (i, s) in servers.iter().enumerate() {
                if !s.placeable() {
                    continue;
                }
                let free = s.free();
                if free.dominates(demand) {
                    return Some(i);
                }
                if fallback.is_none() && avail_from_free(s, &free, mode).dominates(demand) {
                    fallback = Some(i);
                }
            }
            fallback
        }
        PlacementPolicy::BestFit => {
            let mut best_free: Option<(usize, (f64, f64))> = None;
            let mut best_avail: Option<(usize, (f64, f64))> = None;
            for (i, s) in servers.iter().enumerate() {
                if !s.placeable() {
                    continue;
                }
                let free = s.free();
                if free.dominates(demand) {
                    let sc = score(&free, demand);
                    if best_free.map_or(true, |(_, bs)| better(sc, bs)) {
                        best_free = Some((i, sc));
                    }
                } else if best_free.is_none() {
                    // The availability tier only matters while no server
                    // free-fits; once one does, stop deriving it.
                    let avail = avail_from_free(s, &free, mode);
                    if avail.dominates(demand) {
                        let sc = score(&avail, demand);
                        if best_avail.map_or(true, |(_, bs)| better(sc, bs)) {
                            best_avail = Some((i, sc));
                        }
                    }
                }
            }
            best_free.or(best_avail).map(|(i, _)| i)
        }
        PlacementPolicy::TwoChoices => {
            if servers.is_empty() {
                return None;
            }
            let (a, b) = draw_pair(rng, servers.len());
            let free_of = |i: usize| servers[i].free();
            let free_fits = |i: usize| servers[i].placeable() && free_of(i).dominates(demand);
            match (free_fits(a), free_fits(b)) {
                (true, true) => Some(
                    if score(&free_of(a), demand) >= score(&free_of(b), demand) {
                        a
                    } else {
                        b
                    },
                ),
                (true, false) => Some(a),
                (false, true) => Some(b),
                (false, false) => {
                    // Neither sampled candidate places without disruption.
                    // Keep the two-tier guarantee: any free-fitting server
                    // beats reclaiming from the sampled pair, and any
                    // availability-fitting server beats rejecting.
                    if let Some(i) = servers
                        .iter()
                        .position(|s| s.placeable() && s.free().dominates(demand))
                    {
                        return Some(i);
                    }
                    let avail_of = |i: usize| avail_from_free(&servers[i], &free_of(i), mode);
                    let avail_fits =
                        |i: usize| servers[i].placeable() && avail_of(i).dominates(demand);
                    match (avail_fits(a), avail_fits(b)) {
                        (true, true) => Some(
                            if score(&avail_of(a), demand) >= score(&avail_of(b), demand) {
                                a
                            } else {
                                b
                            },
                        ),
                        (true, false) => Some(a),
                        (false, true) => Some(b),
                        (false, false) => servers.iter().position(|s| {
                            s.placeable() && avail_from_free(s, &s.free(), mode).dominates(demand)
                        }),
                    }
                }
            }
        }
    }
}

/// The best migration destination for `demand`: the placeable server
/// (other than `exclude`) whose Deflation-mode availability dominates
/// `demand`, ranked by that availability's norm, ties to the lowest
/// index. Draws no RNG. The naive full-scan oracle of
/// [`PlacementIndex::best_headroom`](crate::PlacementIndex::best_headroom).
pub fn best_headroom_with(
    servers: &[PhysicalServer],
    demand: &ResourceVector,
    exclude: Option<usize>,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (i, s) in servers.iter().enumerate() {
        if Some(i) == exclude || !s.placeable() {
            continue;
        }
        let avail = avail_from_free(s, &s.free(), AvailabilityMode::Deflation);
        if !avail.dominates(demand) {
            continue;
        }
        let norm = avail.norm();
        if best.map_or(true, |(_, bn)| norm > bn) {
            best = Some((i, norm));
        }
    }
    best.map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;
    use deflate_core::{ServerId, VmId};
    use hypervisor::{Vm, VmPriority};

    fn capacity() -> ResourceVector {
        ResourceVector::new(16.0, 65_536.0, 400.0, 400.0)
    }

    fn vm_spec() -> ResourceVector {
        ResourceVector::new(4.0, 16_384.0, 100.0, 100.0)
    }

    fn servers(n: u64) -> Vec<PhysicalServer> {
        (0..n)
            .map(|i| PhysicalServer::new(ServerId(i), capacity()))
            .collect()
    }

    #[test]
    fn first_fit_takes_first() {
        let mut ss = servers(3);
        // Fill server 0 with high-priority VMs: no availability.
        for i in 0..4 {
            ss[0].add_vm(Vm::new(VmId(100 + i), vm_spec(), VmPriority::High));
        }
        let mut rng = SimRng::seed_from_u64(1);
        let pick = choose_server_with(
            PlacementPolicy::FirstFit,
            &ss,
            &vm_spec(),
            AvailabilityMode::Deflation,
            &mut rng,
        );
        assert_eq!(pick, Some(1));
    }

    #[test]
    fn best_fit_prefers_matching_direction() {
        let mut ss = servers(2);
        // Server 0 keeps full availability; server 1 loses most CPU to a
        // high-priority VM, so a CPU-heavy demand fits server 0 better.
        ss[1].add_vm(Vm::new(
            VmId(1),
            ResourceVector::new(14.0, 1_024.0, 0.0, 0.0),
            VmPriority::High,
        ));
        let demand = ResourceVector::new(8.0, 4_096.0, 10.0, 10.0);
        let mut rng = SimRng::seed_from_u64(1);
        let pick = choose_server_with(
            PlacementPolicy::BestFit,
            &ss,
            &demand,
            AvailabilityMode::Deflation,
            &mut rng,
        );
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn no_server_fits_returns_none() {
        let ss = servers(2);
        let demand = ResourceVector::new(64.0, 1_000_000.0, 1e6, 1e6);
        let mut rng = SimRng::seed_from_u64(1);
        for p in PlacementPolicy::ALL {
            assert_eq!(
                choose_server_with(p, &ss, &demand, AvailabilityMode::Deflation, &mut rng),
                None,
                "{}",
                p.name()
            );
        }
    }

    #[test]
    fn deflatable_resources_count_as_availability() {
        let mut ss = servers(1);
        // Fill with low-priority VMs: free is zero but deflatable is full.
        for i in 0..4 {
            ss[0].add_vm(Vm::new(VmId(i), vm_spec(), VmPriority::Low));
        }
        assert!(ss[0].free().is_zero());
        let mut rng = SimRng::seed_from_u64(1);
        let pick = choose_server_with(
            PlacementPolicy::BestFit,
            &ss,
            &vm_spec(),
            AvailabilityMode::Deflation,
            &mut rng,
        );
        assert_eq!(pick, Some(0));
    }

    #[test]
    fn two_choices_always_finds_a_fit_when_one_exists() {
        let mut ss = servers(4);
        for s in ss.iter_mut().take(3) {
            for i in 0..4 {
                s.add_vm(Vm::new(VmId(i), vm_spec(), VmPriority::High));
            }
        }
        let mut rng = SimRng::seed_from_u64(9);
        for _ in 0..50 {
            let pick = choose_server_with(
                PlacementPolicy::TwoChoices,
                &ss,
                &vm_spec(),
                AvailabilityMode::Deflation,
                &mut rng,
            );
            assert_eq!(pick, Some(3));
        }
    }

    /// Regression: `TwoChoices` used to draw both candidates from the
    /// same range, so it could sample one server twice and silently
    /// degenerate to a single choice. With two servers — one strictly
    /// better — a genuine pair must compare both and take the better one
    /// on every draw.
    #[test]
    fn two_choices_samples_distinct_servers() {
        let mut ss = servers(2);
        // Server 0 is tight for a CPU-heavy demand; server 1 is empty and
        // scores strictly higher. A degenerate (0, 0) pair would return 0.
        ss[0].add_vm(Vm::new(
            VmId(1),
            ResourceVector::new(11.0, 1_024.0, 0.0, 0.0),
            VmPriority::High,
        ));
        let demand = ResourceVector::new(5.0, 4_096.0, 10.0, 10.0);
        assert!(ss[0].free().dominates(&demand), "both must free-fit");
        for seed in 0..100 {
            let mut rng = SimRng::seed_from_u64(seed);
            let pick = choose_server_with(
                PlacementPolicy::TwoChoices,
                &ss,
                &demand,
                AvailabilityMode::Deflation,
                &mut rng,
            );
            assert_eq!(pick, Some(1), "seed {seed} degenerated to one choice");
        }
    }

    #[test]
    fn draw_pair_is_distinct_and_uniform_enough() {
        let mut rng = SimRng::seed_from_u64(7);
        let mut seen = [0usize; 5];
        for _ in 0..1000 {
            let (a, b) = draw_pair(&mut rng, 5);
            assert_ne!(a, b);
            seen[a] += 1;
            seen[b] += 1;
        }
        for (i, &count) in seen.iter().enumerate() {
            assert!(count > 250, "index {i} drawn only {count}/2000 slots");
        }
        // n == 1 degenerates to the only index, twice.
        assert_eq!(draw_pair(&mut rng, 1), (0, 0));
    }

    #[test]
    fn best_headroom_takes_roomiest_fit_outside_exclude() {
        let mut ss = servers(3);
        // Server 0 keeps one VM of room, server 1 stays empty, server 2
        // is full of high-priority VMs.
        for i in 0..3 {
            ss[0].add_vm(Vm::new(VmId(i), vm_spec(), VmPriority::High));
        }
        for i in 0..4 {
            ss[2].add_vm(Vm::new(VmId(10 + i), vm_spec(), VmPriority::High));
        }
        assert_eq!(best_headroom_with(&ss, &vm_spec(), None), Some(1));
        assert_eq!(best_headroom_with(&ss, &vm_spec(), Some(1)), Some(0));
        assert_eq!(
            best_headroom_with(&ss, &vm_spec().scale(2.0), Some(1)),
            None
        );
    }
}
