//! Incrementally-maintained placement index: sublinear candidate
//! selection for [`choose_server_with`](crate::placement::choose_server_with).
//!
//! PR 2 made cluster accounting O(1) per event, leaving the O(servers)
//! placement scan as the simulator's dominant cost. This index caches
//! each server's placement-relevant vectors (free, deflation
//! availability, preemption availability) and, for every (availability
//! notion × resource dimension) pair, keeps two query structures:
//!
//! * a **bucket histogram** — population counts of servers by headroom
//!   along that dimension, quantized against the fleet's reference
//!   capacity. A query plans against the histograms only: for each
//!   dimension it sums the buckets at or above the demand's threshold
//!   and queries along the *most selective* axis (fewest candidates).
//!   Zero candidates answers the query without touching a single
//!   server — the common case for the free tier of a saturated fleet.
//! * an **axis plane** — a contiguous `f64` array of every server's
//!   headroom along that dimension (`-inf` for down servers). The query
//!   sweeps the chosen plane in ascending server index with one compare
//!   per server; only servers passing the single-dimension test pay the
//!   full dominates check and (for BestFit) the cosine scoring. Under
//!   load that is a cache-resident sweep with a handful of survivors,
//!   instead of the oracle's full-vector scoring of the whole fleet.
//!
//! Pruning soundness: `ResourceVector::dominates` is `a[d] + 1e-9 >=
//! b[d]` on every dimension `d`, so the plane sweep applies exactly that
//! test on the chosen dimension — no fitting server is skipped — and the
//! histogram threshold starts at the bucket of `max(demand[d] - 1e-9,
//! 0)`, below which no fitting server can live.
//!
//! Exactness: the index answers every query with the *same server* the
//! naive oracle picks. BestFit's tie-breaking (cosine fuzz + norm) is
//! not a total order, so candidates are evaluated in ascending server
//! index with the shared [`better`](crate::placement::better)
//! comparison; TwoChoices consumes the shared
//! [`draw_pair`](crate::placement::draw_pair) so naive and indexed runs
//! stay on identical RNG streams. Cached vectors are the bit-exact
//! values the oracle would recompute (same expressions over the same
//! server state), cached norms are `norm()` of those same vectors, and
//! the cached-norm cosine evaluates the oracle's exact expression
//! (`dot / (|A| |D|)`, zero when the denominator is zero) — so fits,
//! scores, and ties agree bitwise.
//!
//! Invalidation rides on [`PhysicalServer::version`]: every mutation
//! choke point (`add_vm` / `remove_vm` / `deflate_vm` / `reinflate_vm` /
//! `set_up`) bumps the counter, and the cluster manager calls
//! [`PlacementIndex::refresh`] on the touched server afterwards;
//! `refresh` is a no-op when the version is unchanged. Debug builds
//! cross-check the whole index against recomputation from live server
//! state on every launch/exit ([`PlacementIndex::assert_consistent`]),
//! mirroring PR 2's aggregate checks.

use deflate_core::{ResourceKind, ResourceVector};
use hypervisor::PhysicalServer;
use simkit::SimRng;

use crate::placement::{avail_from_free, better, draw_pair, score, AvailabilityMode};
use crate::PlacementPolicy;

/// Buckets per (notion, dimension) histogram. Headroom is quantized to
/// `reference_capacity / NBUCKETS`; 64 buckets keeps the partition fine
/// enough that the planner's candidate counts stay sharp under load.
const NBUCKETS: usize = 64;
/// Cached availability notions: free, free+deflatable, free+preemptible.
const NOTIONS: usize = 3;
/// Resource dimensions (`ResourceKind::ALL`).
const DIMS: usize = ResourceKind::ALL.len();
/// Bucket sentinel for servers that are not placeable — down or
/// partitioned — and therefore absent from every histogram.
const UNBUCKETED: u16 = u16::MAX;

/// Index of a cached availability notion in [`Entry::vecs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Notion {
    Free = 0,
    Deflation = 1,
    Preemption = 2,
}

impl Notion {
    fn of(mode: AvailabilityMode) -> Notion {
        match mode {
            AvailabilityMode::Deflation => Notion::Deflation,
            AvailabilityMode::PreemptionOnly => Notion::Preemption,
        }
    }
}

/// Cached placement-relevant state of one server.
#[derive(Debug, Clone)]
struct Entry {
    /// Cached vectors, indexed by [`Notion`]. Bit-exact copies of what
    /// the naive oracle computes from live server state.
    vecs: [ResourceVector; NOTIONS],
    /// [`PhysicalServer::placeable`] at the last refresh: down *and*
    /// partitioned servers leave every histogram and fail every axis
    /// threshold, so neither can win a placement query.
    up: bool,
    /// The server's mutation counter at the last refresh.
    version: u64,
    /// Current histogram bucket per (notion, dimension); [`UNBUCKETED`]
    /// when down.
    bucket: [[u16; DIMS]; NOTIONS],
    /// This server's position inside each bucket's id vector, so a
    /// refresh can swap-remove it in O(1) instead of searching.
    pos: [[u32; DIMS]; NOTIONS],
}

/// The histogram-planned, plane-swept placement index. See the module
/// docs.
pub struct PlacementIndex {
    entries: Vec<Entry>,
    /// `NOTIONS × DIMS × NBUCKETS` *unordered* server-id vectors,
    /// flattened. Their lengths are the planner's population histogram,
    /// and for *selective* queries (few eligible servers) the candidate
    /// ids come straight from here instead of sweeping a whole plane.
    /// Membership moves are O(1) (push / swap-remove via [`Entry::pos`]);
    /// queries that need ascending id order sort the few candidates they
    /// gather.
    buckets: Vec<Vec<u32>>,
    /// `NOTIONS × DIMS` contiguous planes of per-server headroom along
    /// one dimension (`f64::NEG_INFINITY` for down servers, so they fail
    /// every threshold). The query's inner loop sweeps one plane.
    axis: Vec<f64>,
    /// `NOTIONS` contiguous planes of the cached vectors (plane-major
    /// copy of `entries[i].vecs`, so survivor checks after a sweep stay
    /// cache-local).
    cached: Vec<ResourceVector>,
    /// `NOTIONS` contiguous planes of `vecs[notion].norm()` — the
    /// BestFit score's magnitude component, precomputed per refresh so
    /// scoring a candidate costs one dot product and one divide.
    norms: Vec<f64>,
    /// Per-dimension bucket width: `reference_capacity[d] / NBUCKETS`.
    quantum: [f64; DIMS],
    /// Element-wise max capacity over the fleet (heterogeneity-safe).
    ref_capacity: ResourceVector,
}

impl std::fmt::Debug for PlacementIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementIndex")
            .field("servers", &self.entries.len())
            .field("ref_capacity", &self.ref_capacity)
            .finish()
    }
}

impl PlacementIndex {
    /// Builds the index for a fleet. Bucket quanta derive from the
    /// element-wise max capacity, so heterogeneous fleets bucket
    /// correctly (every headroom value lands in `0..NBUCKETS`).
    pub fn new(servers: &[PhysicalServer]) -> Self {
        let mut ref_capacity = ResourceVector::ZERO;
        for s in servers {
            let cap = s.capacity();
            for k in ResourceKind::ALL {
                if cap.get(k) > ref_capacity.get(k) {
                    ref_capacity.set(k, cap.get(k));
                }
            }
        }
        let mut quantum = [0.0; DIMS];
        for (d, k) in ResourceKind::ALL.into_iter().enumerate() {
            quantum[d] = ref_capacity.get(k) / NBUCKETS as f64;
        }
        let n = servers.len();
        let mut index = PlacementIndex {
            entries: vec![
                Entry {
                    vecs: [ResourceVector::ZERO; NOTIONS],
                    up: false,
                    // Sentinel: forces the first refresh (live versions
                    // start at 0 and only ever increment).
                    version: u64::MAX,
                    bucket: [[UNBUCKETED; DIMS]; NOTIONS],
                    pos: [[0; DIMS]; NOTIONS],
                };
                n
            ],
            buckets: vec![Vec::new(); NOTIONS * DIMS * NBUCKETS],
            axis: vec![f64::NEG_INFINITY; NOTIONS * DIMS * n],
            cached: vec![ResourceVector::ZERO; NOTIONS * n],
            norms: vec![0.0; NOTIONS * n],
            quantum,
            ref_capacity,
        };
        for (i, s) in servers.iter().enumerate() {
            index.refresh(i, s);
        }
        index
    }

    /// Number of indexed servers.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index covers zero servers.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Flat index of one bucket.
    fn bucket_idx(notion: usize, dim: usize, bucket: usize) -> usize {
        (notion * DIMS + dim) * NBUCKETS + bucket
    }

    /// One (notion, dimension) axis plane.
    fn axis_plane(&self, notion: usize, dim: usize) -> &[f64] {
        let n = self.entries.len();
        let base = (notion * DIMS + dim) * n;
        &self.axis[base..base + n]
    }

    /// One notion's plane of cached vectors.
    fn cached_plane(&self, notion: usize) -> &[ResourceVector] {
        let n = self.entries.len();
        &self.cached[notion * n..(notion + 1) * n]
    }

    /// One notion's plane of cached norms.
    fn norm_plane(&self, notion: usize) -> &[f64] {
        let n = self.entries.len();
        &self.norms[notion * n..(notion + 1) * n]
    }

    /// The bucket a headroom value falls into along one dimension.
    fn bucket_of(&self, dim: usize, value: f64) -> u16 {
        if self.quantum[dim] <= 0.0 {
            return 0;
        }
        ((value / self.quantum[dim]) as usize).min(NBUCKETS - 1) as u16
    }

    /// The lowest bucket that can hold a server fitting `demand_d` along
    /// `dim`, honoring `dominates`' `1e-9` slack.
    fn threshold_bucket(&self, dim: usize, demand_d: f64) -> usize {
        if self.quantum[dim] <= 0.0 {
            return 0;
        }
        ((((demand_d - 1e-9).max(0.0)) / self.quantum[dim]) as usize).min(NBUCKETS - 1)
    }

    /// Re-derives one server's cached entry from live state; no-op when
    /// the server's mutation counter matches the cache. O(1).
    pub fn refresh(&mut self, i: usize, server: &PhysicalServer) {
        let version = server.version();
        if self.entries[i].version == version {
            return;
        }
        let free = server.free();
        let vecs = [
            free,
            avail_from_free(server, &free, AvailabilityMode::Deflation),
            avail_from_free(server, &free, AvailabilityMode::PreemptionOnly),
        ];
        let up = server.placeable();
        let mut new_buckets = [[UNBUCKETED; DIMS]; NOTIONS];
        if up {
            for n in 0..NOTIONS {
                for (d, k) in ResourceKind::ALL.into_iter().enumerate() {
                    new_buckets[n][d] = self.bucket_of(d, vecs[n].get(k));
                }
            }
        }
        let len = self.entries.len();
        let id = i as u32;
        for n in 0..NOTIONS {
            for (d, k) in ResourceKind::ALL.into_iter().enumerate() {
                let old = self.entries[i].bucket[n][d];
                let new = new_buckets[n][d];
                if old != new {
                    if old != UNBUCKETED {
                        // O(1) removal: swap the last id into our slot
                        // and repoint its position.
                        let pos = self.entries[i].pos[n][d] as usize;
                        let set = &mut self.buckets[Self::bucket_idx(n, d, old as usize)];
                        debug_assert_eq!(set[pos], id, "position map desync");
                        set.swap_remove(pos);
                        if let Some(&moved) = set.get(pos) {
                            self.entries[moved as usize].pos[n][d] = pos as u32;
                        }
                    }
                    if new != UNBUCKETED {
                        let set = &mut self.buckets[Self::bucket_idx(n, d, new as usize)];
                        self.entries[i].pos[n][d] = set.len() as u32;
                        set.push(id);
                    }
                }
                self.axis[(n * DIMS + d) * len + i] = if up {
                    vecs[n].get(k)
                } else {
                    f64::NEG_INFINITY
                };
            }
            self.cached[n * len + i] = vecs[n];
            self.norms[n * len + i] = vecs[n].norm();
        }
        let e = &mut self.entries[i];
        e.vecs = vecs;
        e.up = up;
        e.version = version;
        e.bucket = new_buckets;
    }

    /// The query plan for one (notion, demand) pair: the sweep axis, the
    /// demand's value along it, and how many servers could fit at all.
    ///
    /// Any dimension is a *sound* pruning axis (a fitting server has
    /// enough headroom in every dimension), so the planner picks the
    /// most *selective* one: for each dimension it sums the eligible
    /// histogram buckets and sweeps the axis with the fewest eligible
    /// servers. That adapts to whatever dimension the fleet is actually
    /// bound on, instead of guessing from the demand's shape — and a
    /// zero count answers the query with `None` without touching any
    /// server state.
    fn plan(&self, notion: Notion, demand: &ResourceVector) -> (usize, usize, f64, usize) {
        let n = notion as usize;
        let mut best = (0usize, 0usize, 0.0f64, usize::MAX);
        for (d, k) in ResourceKind::ALL.into_iter().enumerate() {
            let k0 = self.threshold_bucket(d, demand.get(k));
            let eligible: usize = (k0..NBUCKETS)
                .map(|b| self.buckets[Self::bucket_idx(n, d, b)].len())
                .sum();
            if eligible < best.3 {
                best = (d, k0, demand.get(k), eligible);
            }
        }
        best
    }

    /// Whether a query with this many eligible servers should take the
    /// sublinear bucket path. Selective queries gather candidate ids
    /// from the sorted buckets (sorting a few dozen ids is cheaper than
    /// touching every server); dense ones sweep the axis plane linearly,
    /// which is never worse than the oracle's scan.
    fn selective(&self, eligible: usize) -> bool {
        8 * eligible <= self.entries.len()
    }

    /// Lowest-index server whose cached `notion` vector dominates
    /// `demand`. Selective queries test the few bucket candidates and
    /// keep the minimum fitting id (order-free, so unordered buckets are
    /// fine); dense queries sweep the axis plane in ascending server
    /// index, stopping at the first survivor. Either way candidates are
    /// tested with the same `dominates` on the same cached vectors, so
    /// the answer is identical.
    fn first_fit(&self, notion: Notion, demand: &ResourceVector) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let (d, k0, demand_d, eligible) = self.plan(notion, demand);
        if eligible == 0 {
            return None;
        }
        let n = notion as usize;
        let cached = self.cached_plane(n);
        if self.selective(eligible) {
            let mut best = u32::MAX;
            for k in k0..NBUCKETS {
                for &i in &self.buckets[Self::bucket_idx(n, d, k)] {
                    if i < best && cached[i as usize].dominates(demand) {
                        best = i;
                    }
                }
            }
            return (best != u32::MAX).then_some(best as usize);
        }
        let plane = self.axis_plane(n, d);
        plane
            .iter()
            .enumerate()
            .position(|(i, &h)| h + 1e-9 >= demand_d && cached[i].dominates(demand))
    }

    /// Best-scoring server whose cached `notion` vector dominates
    /// `demand`, ranked exactly like the naive oracle: candidates are
    /// evaluated in ascending server index (scan order is part of the
    /// contract — the shared fuzzy comparison is intransitive), each
    /// survivor scored with its precomputed norm. Selective queries sort
    /// the few candidate ids gathered from the buckets; dense queries
    /// sweep the axis plane.
    fn best_fit(&self, notion: Notion, demand: &ResourceVector) -> Option<usize> {
        if self.entries.is_empty() {
            return None;
        }
        let (d, k0, demand_d, eligible) = self.plan(notion, demand);
        if eligible == 0 {
            return None;
        }
        let n = notion as usize;
        let cached = self.cached_plane(n);
        let norms = self.norm_plane(n);
        let nd = demand.norm();
        let mut best: Option<(usize, (f64, f64))> = None;
        let mut consider = |i: usize| {
            if !cached[i].dominates(demand) {
                return;
            }
            // The oracle's `score` with the norm component precomputed:
            // same expression, same inputs, same bits.
            let na = norms[i];
            let denom = na * nd;
            let cos = if denom == 0.0 {
                0.0
            } else {
                cached[i].dot(demand) / denom
            };
            let sc = (cos, na);
            debug_assert_eq!(sc, score(&cached[i], demand));
            if best.map_or(true, |(_, bs)| better(sc, bs)) {
                best = Some((i, sc));
            }
        };
        if self.selective(eligible) {
            let mut candidates: Vec<u32> = Vec::with_capacity(eligible);
            for k in k0..NBUCKETS {
                candidates.extend_from_slice(&self.buckets[Self::bucket_idx(n, d, k)]);
            }
            candidates.sort_unstable();
            for i in candidates {
                consider(i as usize);
            }
        } else {
            let plane = self.axis_plane(n, d);
            for (i, &h) in plane.iter().enumerate() {
                if h + 1e-9 >= demand_d {
                    consider(i);
                }
            }
        }
        best.map(|(i, _)| i)
    }

    /// Indexed [`choose_server_with`](crate::placement::choose_server_with):
    /// same policy semantics, same two-tier free-then-availability
    /// preference, same RNG consumption, same chosen server — sublinear
    /// instead of a fleet scan.
    pub fn choose(
        &self,
        policy: PlacementPolicy,
        servers: &[PhysicalServer],
        demand: &ResourceVector,
        mode: AvailabilityMode,
        rng: &mut SimRng,
    ) -> Option<usize> {
        debug_assert_eq!(self.entries.len(), servers.len(), "index covers the fleet");
        let avail = Notion::of(mode);
        match policy {
            PlacementPolicy::FirstFit => self
                .first_fit(Notion::Free, demand)
                .or_else(|| self.first_fit(avail, demand)),
            PlacementPolicy::BestFit => self
                .best_fit(Notion::Free, demand)
                .or_else(|| self.best_fit(avail, demand)),
            PlacementPolicy::TwoChoices => {
                if servers.is_empty() {
                    return None;
                }
                let (a, b) = draw_pair(rng, servers.len());
                let free_fits = |i: usize| {
                    let e = &self.entries[i];
                    e.up && e.vecs[Notion::Free as usize].dominates(demand)
                };
                let vec_of = |i: usize, n: Notion| &self.entries[i].vecs[n as usize];
                match (free_fits(a), free_fits(b)) {
                    (true, true) => Some(
                        if score(vec_of(a, Notion::Free), demand)
                            >= score(vec_of(b, Notion::Free), demand)
                        {
                            a
                        } else {
                            b
                        },
                    ),
                    (true, false) => Some(a),
                    (false, true) => Some(b),
                    (false, false) => {
                        if let Some(i) = self.first_fit(Notion::Free, demand) {
                            return Some(i);
                        }
                        let avail_fits = |i: usize| {
                            let e = &self.entries[i];
                            e.up && e.vecs[avail as usize].dominates(demand)
                        };
                        match (avail_fits(a), avail_fits(b)) {
                            (true, true) => Some(
                                if score(vec_of(a, avail), demand)
                                    >= score(vec_of(b, avail), demand)
                                {
                                    a
                                } else {
                                    b
                                },
                            ),
                            (true, false) => Some(a),
                            (false, true) => Some(b),
                            (false, false) => self.first_fit(avail, demand),
                        }
                    }
                }
            }
        }
    }

    /// Deterministic "most headroom" query for migration targeting: the
    /// up server (other than `exclude`, usually the migration source)
    /// whose cached Deflation-notion availability dominates `demand`,
    /// ranked by that availability's norm. Unlike [`choose`], this draws
    /// no RNG and prefers the *roomiest* host rather than the tightest
    /// fit — a migration destination should absorb the VM with as little
    /// donor deflation as possible. Ties keep the lowest server index.
    /// The naive oracle is
    /// [`best_headroom_with`](crate::placement::best_headroom_with).
    pub fn best_headroom(
        &self,
        servers: &[PhysicalServer],
        demand: &ResourceVector,
        exclude: Option<usize>,
    ) -> Option<usize> {
        debug_assert_eq!(self.entries.len(), servers.len(), "index covers the fleet");
        let n = Notion::Deflation as usize;
        let cached = self.cached_plane(n);
        let norms = self.norm_plane(n);
        let mut best: Option<(usize, f64)> = None;
        for (i, e) in self.entries.iter().enumerate() {
            if !e.up || Some(i) == exclude || !cached[i].dominates(demand) {
                continue;
            }
            if best.map_or(true, |(_, bn)| norms[i] > bn) {
                best = Some((i, norms[i]));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Panics when any cached entry, histogram count, axis value, or
    /// cached norm disagrees with a full recomputation from live server
    /// state — the index's analogue of PR 2's
    /// `assert_aggregates_consistent`. O(servers); debug builds run it
    /// on every launch/exit, tests may call it in release too.
    pub fn assert_consistent(&self, servers: &[PhysicalServer]) {
        assert_eq!(
            self.entries.len(),
            servers.len(),
            "index entry count != fleet size"
        );
        let len = self.entries.len();
        let mut populated = 0usize;
        for (i, (e, s)) in self.entries.iter().zip(servers).enumerate() {
            assert_eq!(e.version, s.version(), "server {i}: stale index version");
            assert_eq!(e.up, s.placeable(), "server {i}: stale placeability flag");
            let free = s.free();
            let fresh = [
                free,
                avail_from_free(s, &free, AvailabilityMode::Deflation),
                avail_from_free(s, &free, AvailabilityMode::PreemptionOnly),
            ];
            for (n, fresh_n) in fresh.iter().enumerate() {
                assert_eq!(
                    e.vecs[n], *fresh_n,
                    "server {i}: cached vector desync (notion {n})"
                );
                assert_eq!(
                    self.cached[n * len + i],
                    *fresh_n,
                    "server {i}: cached plane desync (notion {n})"
                );
                assert_eq!(
                    self.norms[n * len + i].to_bits(),
                    fresh_n.norm().to_bits(),
                    "server {i}: cached norm desync (notion {n})"
                );
                for (d, k) in ResourceKind::ALL.into_iter().enumerate() {
                    let expect_axis = if e.up {
                        fresh_n.get(k)
                    } else {
                        f64::NEG_INFINITY
                    };
                    assert_eq!(
                        self.axis[(n * DIMS + d) * len + i].to_bits(),
                        expect_axis.to_bits(),
                        "server {i}: stale axis value (notion {n}, dim {d})"
                    );
                    let expect = if e.up {
                        self.bucket_of(d, fresh_n.get(k))
                    } else {
                        UNBUCKETED
                    };
                    assert_eq!(
                        e.bucket[n][d], expect,
                        "server {i}: wrong bucket (notion {n}, dim {d})"
                    );
                    if expect != UNBUCKETED {
                        let set = &self.buckets[Self::bucket_idx(n, d, expect as usize)];
                        assert_eq!(
                            set.get(e.pos[n][d] as usize),
                            Some(&(i as u32)),
                            "server {i}: position map desync (notion {n}, dim {d})"
                        );
                    }
                }
            }
            if e.up {
                populated += 1;
            }
        }
        for n in 0..NOTIONS {
            for d in 0..DIMS {
                let total: usize = (0..NBUCKETS)
                    .map(|k| self.buckets[Self::bucket_idx(n, d, k)].len())
                    .sum();
                assert_eq!(
                    total, populated,
                    "bucket membership count != up servers (notion {n}, dim {d})"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::choose_server_with;
    use deflate_core::{ServerId, VmId};
    use hypervisor::{Vm, VmPriority};

    fn capacity() -> ResourceVector {
        ResourceVector::new(16.0, 65_536.0, 400.0, 400.0)
    }

    fn fleet(n: u64) -> Vec<PhysicalServer> {
        (0..n)
            .map(|i| PhysicalServer::new(ServerId(i), capacity()))
            .collect()
    }

    fn spec(cpu: f64) -> ResourceVector {
        ResourceVector::new(cpu, cpu * 2048.0, cpu * 10.0, cpu * 10.0)
    }

    #[test]
    fn matches_naive_on_a_mixed_fleet() {
        let mut servers = fleet(12);
        for (i, s) in servers.iter_mut().enumerate() {
            for v in 0..(i % 5) {
                let pri = if v % 2 == 0 {
                    VmPriority::High
                } else {
                    VmPriority::Low
                };
                s.add_vm(Vm::new(VmId((i * 10 + v) as u64), spec(3.0), pri));
            }
        }
        servers[3].set_up(false);
        let index = PlacementIndex::new(&servers);
        index.assert_consistent(&servers);
        for policy in PlacementPolicy::ALL {
            for mode in [
                AvailabilityMode::Deflation,
                AvailabilityMode::PreemptionOnly,
            ] {
                for cpu in [1.0, 4.0, 9.0, 15.0, 40.0] {
                    let demand = spec(cpu);
                    let mut r1 = SimRng::seed_from_u64(cpu as u64 + 99);
                    let mut r2 = SimRng::seed_from_u64(cpu as u64 + 99);
                    assert_eq!(
                        index.choose(policy, &servers, &demand, mode, &mut r1),
                        choose_server_with(policy, &servers, &demand, mode, &mut r2),
                        "{} cpu={cpu}",
                        policy.name()
                    );
                }
            }
        }
    }

    #[test]
    fn refresh_tracks_mutations_and_versions() {
        let mut servers = fleet(2);
        let mut index = PlacementIndex::new(&servers);
        servers[0].add_vm(Vm::new(VmId(1), spec(8.0), VmPriority::Low));
        index.refresh(0, &servers[0]);
        index.assert_consistent(&servers);
        // Unchanged version: refresh must be a no-op (and stay consistent).
        index.refresh(1, &servers[1]);
        index.assert_consistent(&servers);
        // Down servers leave every histogram…
        servers[0].set_up(false);
        index.refresh(0, &servers[0]);
        index.assert_consistent(&servers);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            index.choose(
                PlacementPolicy::FirstFit,
                &servers,
                &spec(1.0),
                AvailabilityMode::Deflation,
                &mut rng,
            ),
            Some(1)
        );
        // …and re-enter them on recovery.
        servers[0].set_up(true);
        index.refresh(0, &servers[0]);
        index.assert_consistent(&servers);
        assert_eq!(
            index.choose(
                PlacementPolicy::FirstFit,
                &servers,
                &spec(1.0),
                AvailabilityMode::Deflation,
                &mut rng,
            ),
            Some(0)
        );
    }

    #[test]
    #[should_panic(expected = "stale index version")]
    fn stale_index_is_caught() {
        let mut servers = fleet(1);
        let index = PlacementIndex::new(&servers);
        servers[0].add_vm(Vm::new(VmId(1), spec(2.0), VmPriority::High));
        index.assert_consistent(&servers);
    }

    #[test]
    fn partitioned_server_is_evicted_without_losing_capacity() {
        let mut servers = fleet(2);
        servers[0].add_vm(Vm::new(VmId(1), spec(2.0), VmPriority::Low));
        let mut index = PlacementIndex::new(&servers);
        // Partition server 0: it leaves every histogram like a down
        // server would, but stays up and keeps its VMs.
        servers[0].set_connected(false);
        index.refresh(0, &servers[0]);
        index.assert_consistent(&servers);
        let mut rng = SimRng::seed_from_u64(4);
        for policy in PlacementPolicy::ALL {
            let mut r1 = SimRng::seed_from_u64(11);
            let mut r2 = SimRng::seed_from_u64(11);
            assert_eq!(
                index.choose(
                    policy,
                    &servers,
                    &spec(1.0),
                    AvailabilityMode::Deflation,
                    &mut r1,
                ),
                choose_server_with(
                    policy,
                    &servers,
                    &spec(1.0),
                    AvailabilityMode::Deflation,
                    &mut r2,
                ),
                "{}: indexed and naive must agree on partitioned fleets",
                policy.name()
            );
        }
        assert_eq!(
            index.choose(
                PlacementPolicy::FirstFit,
                &servers,
                &spec(1.0),
                AvailabilityMode::Deflation,
                &mut rng,
            ),
            Some(1),
            "partitioned server must not win placement"
        );
        assert_eq!(
            index.best_headroom(&servers, &spec(1.0), None),
            Some(1),
            "migration targeting skips partitioned servers"
        );
        // Heal: it rejoins the histograms with its capacity intact.
        servers[0].set_connected(true);
        index.refresh(0, &servers[0]);
        index.assert_consistent(&servers);
        assert_eq!(
            index.choose(
                PlacementPolicy::FirstFit,
                &servers,
                &spec(1.0),
                AvailabilityMode::Deflation,
                &mut rng,
            ),
            Some(0)
        );
    }

    #[test]
    fn heterogeneous_capacities_bucket_safely() {
        let mut servers = vec![
            PhysicalServer::new(
                ServerId(0),
                ResourceVector::new(8.0, 32_768.0, 200.0, 200.0),
            ),
            PhysicalServer::new(ServerId(1), capacity()),
        ];
        servers[1].add_vm(Vm::new(VmId(1), spec(10.0), VmPriority::High));
        let index = PlacementIndex::new(&servers);
        index.assert_consistent(&servers);
        // Demands near each server's capacity edge pick the same server
        // as the oracle.
        for cpu in [0.5, 5.9, 7.9, 8.1, 15.9] {
            let demand = spec(cpu);
            let mut r1 = SimRng::seed_from_u64(3);
            let mut r2 = SimRng::seed_from_u64(3);
            assert_eq!(
                index.choose(
                    PlacementPolicy::BestFit,
                    &servers,
                    &demand,
                    AvailabilityMode::Deflation,
                    &mut r1,
                ),
                choose_server_with(
                    PlacementPolicy::BestFit,
                    &servers,
                    &demand,
                    AvailabilityMode::Deflation,
                    &mut r2,
                ),
                "cpu={cpu}"
            );
        }
    }

    #[test]
    fn empty_fleet_is_fine() {
        let servers: Vec<PhysicalServer> = Vec::new();
        let index = PlacementIndex::new(&servers);
        assert!(index.is_empty());
        index.assert_consistent(&servers);
        let mut rng = SimRng::seed_from_u64(1);
        for policy in PlacementPolicy::ALL {
            assert_eq!(
                index.choose(
                    policy,
                    &servers,
                    &spec(1.0),
                    AvailabilityMode::Deflation,
                    &mut rng,
                ),
                None
            );
        }
    }
}
