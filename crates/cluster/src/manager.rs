//! The centralized cluster manager (paper §5, Fig. 2).
//!
//! The manager owns the physical servers, places arriving VMs with a
//! deflation-aware bin-packing policy, asks the target server's local
//! controller to make room (proportional cascade deflation, preemption
//! fallback), and reinflates deflated VMs when resources free up.

use std::collections::{HashMap, HashSet};

use deflate_core::{CascadeConfig, ResourceKind, ResourceVector, ServerId, VmId};
use hypervisor::{
    GuestConfig, LatencyModel, LocalController, MigrationSession, PhysicalServer, PrecopyPlan,
    ReclaimReport, ReclaimSession, ServerAggregates, Vm, VmFaults, VmPriority,
};
use simkit::{
    FaultInjector, FaultPlan, JsonValue, Observability, SeqHash, SimDuration, SimRng, SimTime,
    TraceLog,
};

use crate::distress::{DistressConfig, DistressEvent};
use crate::migration::MigrationPolicy;
use crate::partition::{
    DivergenceEvent, DivergenceLog, PartitionSession, Reachability, ReconcileOutcome,
};
use crate::placement::{best_headroom_with, choose_server_with, AvailabilityMode, PlacementPolicy};

use crate::placement_index::PlacementIndex;
use crate::predictor::DemandPredictor;
use crate::record::{ClusterRecord, MakeRoom};
use crate::traces::VmRequest;

/// How long a cascade waits on a dead or unreachable agent when the
/// cascade config carries no explicit deadline.
const DEFAULT_AGENT_WAIT: SimDuration = SimDuration::from_secs(30);

/// Release builds audit one placement or destination query in this many
/// against its scan oracle, and one distress-sampling round in this many
/// against ground truth; debug builds audit every query and round.
const AUDIT_EVERY: u64 = 256;

/// Cluster manager configuration.
#[derive(Debug, Clone)]
pub struct ClusterManagerConfig {
    /// Number of physical servers.
    pub n_servers: usize,
    /// Per-server capacity.
    pub server_capacity: ResourceVector,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// When `false`, low-priority VMs are *not* deflatable (their minimum
    /// size equals their spec), so every resource shortage preempts —
    /// the "preemption-only" baseline of Fig. 8c.
    pub deflation_enabled: bool,
    /// Cascade configuration used by local controllers.
    pub cascade: CascadeConfig,
    /// Fraction of a VM's memory its workload actually uses (drives how
    /// much guest memory is free for hot-unplug; the Azure study the
    /// paper cites puts average utilization below 50 %).
    pub usage_fraction: f64,
    /// Predictive headroom (the paper's §7 future work): forecast
    /// high-priority demand with an EWMA and hold back that much CPU
    /// from reinflation, so high-priority arrivals place into free
    /// resources instead of waiting out a synchronous reclamation.
    pub proactive_headroom: bool,
    /// Capacity heterogeneity: 0 gives a homogeneous pool; `h > 0`
    /// alternates servers between `(1+h)×` and `(1−h)×` the base
    /// capacity (total capacity is preserved for even server counts).
    /// Cosine-fitness placement only has direction to exploit on mixed
    /// pools.
    pub capacity_skew: f64,
    /// RNG seed (placement randomization).
    pub seed: u64,
    /// Fault plan driving deterministic fault injection. The default
    /// ([`FaultPlan::none`]) injects nothing and keeps the manager
    /// byte-identical to a build without fault plumbing.
    pub faults: FaultPlan,
    /// A low-priority VM whose agent misses this many *consecutive*
    /// cascade deadlines is declared unresponsive and pivoted to
    /// hypervisor-only deflation. 0 disables the escalation.
    pub unresponsive_after: u32,
    /// Record the per-event lifecycle trace (launch/exit/deflate/
    /// reinflate/preempt records and `make_room` spans). On by default.
    /// Records are typed values, formatted only when the trace is read,
    /// so leaving it on costs an append per event plus the memory of
    /// up to the log's capacity. Turning it off removes that cost.
    /// Metrics counters/gauges/histograms are recorded either way.
    pub lifecycle_trace: bool,
    /// Guest-distress loop: OOM/thrash consequences, emergency
    /// reinflation and the per-VM deflation circuit breaker. Disabled by
    /// default ([`DistressConfig::none`]), which keeps the manager
    /// byte-identical to a build without distress plumbing.
    pub distress: DistressConfig,
    /// Live-migration machinery: distress rescue, drain-before-crash
    /// and background defragmentation. Disabled by default
    /// ([`MigrationPolicy::none`]), which keeps the manager
    /// byte-identical to a build without migration plumbing.
    pub migration: MigrationPolicy,
}

impl Default for ClusterManagerConfig {
    fn default() -> Self {
        ClusterManagerConfig {
            n_servers: 100,
            server_capacity: ResourceVector::new(16.0, 65_536.0, 400.0, 800.0),
            placement: PlacementPolicy::BestFit,
            deflation_enabled: true,
            cascade: CascadeConfig::VM_LEVEL,
            usage_fraction: 0.5,
            proactive_headroom: false,
            capacity_skew: 0.0,
            seed: 1,
            faults: FaultPlan::none(),
            unresponsive_after: 3,
            lifecycle_trace: true,
            distress: DistressConfig::none(),
            migration: MigrationPolicy::none(),
        }
    }
}

/// Counters the manager maintains.
#[derive(Debug, Default, Clone, Copy)]
pub struct ClusterStats {
    /// VMs successfully placed.
    pub launched: u64,
    /// Low-priority VMs successfully placed.
    pub launched_low: u64,
    /// Requests rejected (no server fit even after deflation).
    pub rejected: u64,
    /// Low-priority VMs preempted to make room.
    pub preempted: u64,
    /// Deflation operations executed (per-VM cascades).
    pub deflations: u64,
    /// Reinflation operations executed.
    pub reinflations: u64,
    /// Σ reclamation latency paid by high-priority launches (seconds).
    pub highpri_alloc_latency_secs: f64,
    /// High-priority VMs launched.
    pub highpri_launches: u64,
    /// VMs declared unresponsive (pivoted to hypervisor-only deflation).
    pub unresponsive_vms: u64,
    /// Whole-server crashes injected.
    pub server_crashes: u64,
    /// Guest OOM kills (sustained hard distress past the grace window).
    pub oom_kills: u64,
    /// Emergency reinflation rounds run for distressed VMs.
    pub emergency_reinflations: u64,
    /// Live migrations committed (the VM landed on its destination).
    pub migrations: u64,
    /// Manager (control-plane) crashes suffered.
    pub manager_crashes: u64,
}

impl ClusterStats {
    /// Mean reclamation latency a high-priority launch had to wait for.
    pub fn mean_highpri_alloc_latency_secs(&self) -> f64 {
        if self.highpri_launches == 0 {
            0.0
        } else {
            self.highpri_alloc_latency_secs / self.highpri_launches as f64
        }
    }

    /// Folds another manager's counters into this one. The cellular
    /// simulator merges per-cell stats with this; every field is a sum,
    /// so merged cellular totals read exactly like monolithic ones.
    pub fn absorb(&mut self, o: &ClusterStats) {
        self.launched += o.launched;
        self.launched_low += o.launched_low;
        self.rejected += o.rejected;
        self.preempted += o.preempted;
        self.deflations += o.deflations;
        self.reinflations += o.reinflations;
        self.highpri_alloc_latency_secs += o.highpri_alloc_latency_secs;
        self.highpri_launches += o.highpri_launches;
        self.unresponsive_vms += o.unresponsive_vms;
        self.server_crashes += o.server_crashes;
        self.oom_kills += o.oom_kills;
        self.emergency_reinflations += o.emergency_reinflations;
        self.migrations += o.migrations;
        self.manager_crashes += o.manager_crashes;
    }
}

/// The result of a launch request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LaunchOutcome {
    /// Placed on a server; lists any VMs preempted to make room.
    Placed {
        /// Target server.
        server: ServerId,
        /// Low-priority VMs preempted in the process.
        preempted: Vec<VmId>,
    },
    /// No server could host the VM even with full deflation.
    Rejected,
}

/// Cluster-wide running sums, maintained incrementally.
///
/// Every server mutation in [`ClusterManager`] snapshots the touched
/// server's [`ServerAggregates`] before and after and applies the delta
/// here, so `utilization()`, `overcommitment()` and the per-priority CPU
/// metrics are O(1) instead of walking servers × VMs on every arrival
/// and departure.
#[derive(Debug, Clone, Copy)]
struct ClusterTotals {
    /// Σ physical capacity over all servers (fixed at construction).
    capacity: ResourceVector,
    /// Σ per-server aggregates over all servers.
    agg: ServerAggregates,
}

/// What one server crash took down, so the simulator can relaunch
/// high-priority VMs and account preempted low-priority ones.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerFailure {
    /// The crashed server.
    pub server: ServerId,
    /// High-priority VMs lost (candidates for relaunch elsewhere).
    pub lost_high: Vec<VmId>,
    /// Low-priority VMs lost (counted as preempted).
    pub lost_low: Vec<VmId>,
}

/// One parked migration the manager is waiting out: the destination
/// carries a capacity hold sized `reserved`, the listed donors were
/// deflated to make it, and the source still runs the VM. Finished (the
/// VM moves) or aborted (the hold is released and every donor gets its
/// memory back) by [`ClusterManager::finish_migration`] — or cleaned up
/// by [`ClusterManager::fail_server`] when either end crashes first.
#[derive(Debug, Clone)]
struct InFlightMigration {
    /// Source server index.
    src: usize,
    /// Destination server index (carries the hold).
    dst: usize,
    /// The held capacity (the VM's effective allocation at reserve time).
    reserved: ResourceVector,
    /// Destination donors and what each gave (the abort undo-log).
    reserve_outcomes: Vec<(VmId, ResourceVector)>,
    /// The pre-copy schedule the move follows.
    plan: PrecopyPlan,
}

/// Per-VM distress tracking: the grace-window clock, the breaker's
/// consecutive-sample counters, and its exponential hold-off state.
/// `pub(crate)` so a [`PartitionSession`] can park it while the hosting
/// server is unreachable and hand it back at heal time.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub(crate) struct VmDistress {
    /// When the current uninterrupted hard-distress episode began.
    pub(crate) hard_since: Option<SimTime>,
    /// Consecutive distressed (hard or soft) samples.
    pub(crate) consecutive: u32,
    /// Consecutive healthy samples while the breaker is open.
    pub(crate) healthy_streak: u32,
    /// Times the breaker has tripped (drives the exponential hold-off).
    pub(crate) trips: u32,
    /// Healthy samples required to close the breaker this time.
    pub(crate) hold: u32,
    /// Whether the breaker is open (VM exempt from memory deflation).
    pub(crate) open: bool,
}

impl VmDistress {
    /// Whether a healthy sample would change this state: an open breaker
    /// counts healthy samples toward closing, and a distress streak or a
    /// grace-window clock resets. A closed breaker's trip count and hold
    /// persist through healthy samples unchanged, so they are not live.
    pub(crate) fn live(&self) -> bool {
        self.open || self.consecutive > 0 || self.hard_since.is_some()
    }
}

/// Per-VM distress state keyed by VM, owned by the manager for
/// reachable servers and by a [`PartitionSession`] for partitioned ones.
/// Default states are not stored: every reader treats a missing entry as
/// default.
pub(crate) type DistressMap = HashMap<VmId, VmDistress, SeqHash>;

/// What the distress sampler last saw of one server.
#[derive(Debug, Clone, Copy)]
struct SampledServer {
    /// The server's version at the start of the last sampling round it
    /// was reachable for; a different version now marks it dirty.
    version: u64,
    /// Its low-priority guest count at that version.
    low: usize,
}

/// What one guest's distress sample did, for the round's bookkeeping.
struct Sampled {
    /// Whether the guest was distressed.
    distressed: bool,
    /// The server a rescue migration reserved on, or tried to.
    rescue_dst: Option<usize>,
}

/// Where a local-controller step's side effects land. The step itself —
/// sampling, emergency grants, departures, crashes, reboots — is one
/// body whichever server runs it; only the sink differs.
enum Sink<'a> {
    /// A reachable server: the manager's books, metrics, gauges and
    /// trace move, every mutation settles into the cluster totals, and
    /// a distressed guest may escalate to a rescue migration.
    Live,
    /// A partitioned (or manager-less) server: state parks in its
    /// session and every action lands in the divergence log. Nothing
    /// settles — the frozen snapshot must keep matching the cached
    /// totals until the heal replays the log — and nothing migrates.
    Local(&'a mut PartitionSession),
}

impl Sink<'_> {
    /// The distress map that owns this server's per-VM state.
    fn distress<'m>(&'m mut self, managed: &'m mut DistressMap) -> &'m mut DistressMap {
        match self {
            Sink::Live => managed,
            Sink::Local(s) => &mut s.distress,
        }
    }
}

/// Why a VM leaves its server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Departure {
    /// Its lifetime ended.
    Exit,
    /// Sustained hard distress outlived the grace window.
    OomKill,
}

/// A guest's distress as the sampler sees it: whether it is out of
/// memory (hard), and the fraction of its resident set swapped out
/// (soft distress above the thrash threshold).
fn classify(server: &PhysicalServer, id: VmId) -> (bool, f64) {
    let st = server.vm(id).expect("sampled VM is hosted").state();
    let frac = if st.usage.memory_mb > 0.0 {
        ((st.swapped_mb + st.blind_swapped_mb) / st.usage.memory_mb).clamp(0.0, 1.0)
    } else {
        0.0
    };
    (st.is_oom(), frac)
}

/// The deflation-based cluster manager.
pub struct ClusterManager {
    cfg: ClusterManagerConfig,
    servers: Vec<PhysicalServer>,
    controller: LocalController,
    /// The cascade local controllers run with — `cfg.cascade`, plus the
    /// working-set-floor flag when the distress loop asks for it. Also
    /// used for emergency donor deflation.
    cascade: CascadeConfig,
    rng: SimRng,
    stats: ClusterStats,
    /// VM → server index. Touched on every launch and exit, so it (and
    /// the two liveness maps below) uses the fast deterministic
    /// [`SeqHash`] instead of SipHash.
    index: HashMap<VmId, usize, SeqHash>,
    /// Fault injector; `None` under the empty plan so the fault-free path
    /// stays byte-identical.
    fault: Option<FaultInjector>,
    /// Consecutive missed cascade deadlines per low-priority VM.
    missed: HashMap<VmId, u32, SeqHash>,
    /// Per-VM distress state; empty (and never touched) while the
    /// distress loop is disabled.
    distress: DistressMap,
    /// In-flight parked migrations keyed by the moving VM; empty (and
    /// never touched) while migration is disabled.
    migrations: HashMap<VmId, InFlightMigration, SeqHash>,
    /// VMs whose deflation circuit breaker is currently open — the true
    /// gauge behind `cluster.breaker_open_vms` (trips are counted
    /// separately as `cluster.breaker_trips`).
    breaker_open_now: u64,
    /// VMs declared unresponsive (hypervisor-only deflation from now on).
    unresponsive: HashSet<VmId, SeqHash>,
    /// Unified observability: metrics registry plus lifecycle trace
    /// (launches, deflations, preemptions, reinflations, spans), kept
    /// as typed records and rendered on read.
    obs: Observability<ClusterRecord>,
    /// High-priority demand forecaster (proactive headroom).
    predictor: DemandPredictor,
    /// Incrementally-maintained cluster-wide sums.
    totals: ClusterTotals,
    /// Thread-local leaked-session count already folded into the
    /// `cluster.session_leaked` counter; `update_gauges` polls the
    /// delta. Stays at zero (and registers no key) unless a
    /// [`ReclaimSession`] is ever dropped unconsumed.
    leaked_seen: u64,
    /// Incrementally-maintained placement index (refreshed after every
    /// server mutation); answers every placement and destination query.
    pindex: PlacementIndex,
    /// Control-plane liveness per server (`Up` / `Partitioned` / `Down`),
    /// orthogonal to the physical `up` flag.
    reach: Vec<Reachability>,
    /// One parked session per partitioned server: the frozen aggregate
    /// snapshot, the stale hosted-VM view, parked distress state and the
    /// divergence log. Empty (and never touched) while no partition is
    /// open, so partition-free runs stay byte-identical.
    partitions: HashMap<usize, PartitionSession>,
    /// Whether the manager process itself is crashed. While `true`,
    /// every server is `Partitioned` or `Down`, placement is suspended
    /// (the simulator parks arrivals), and the only exit is the
    /// [`recover_manager`](Self::recover_manager) inventory scan.
    mgr_down: bool,
    /// When the current manager crash began (valid while `mgr_down`).
    mgr_down_since: SimTime,
    /// Reusable id buffer for per-launch fault/shield planning — the
    /// launch hot loop walks a server's low-priority ids on every
    /// reclaiming placement, so it recycles this instead of allocating.
    scratch_ids: Vec<VmId>,
    /// Reusable `(vm, server)` buffer for the distress sampling round's
    /// queue, kept in VM order.
    scratch_sample: Vec<(u64, usize)>,
    /// Placement and destination queries answered so far; it picks
    /// which ones are audited (see [`AUDIT_EVERY`]).
    queries: u64,
    /// Per server, what the distress sampler saw at the start of the
    /// last round; empty (and never touched) while the distress loop is
    /// disabled.
    sampled: Vec<SampledServer>,
    /// Distress-sampling rounds run so far; it picks which ones are
    /// audited (see [`AUDIT_EVERY`]).
    sample_rounds: u64,
}

impl ClusterManager {
    /// Creates a cluster with empty servers.
    pub fn new(cfg: ClusterManagerConfig) -> Self {
        let skew = cfg.capacity_skew.clamp(0.0, 0.9);
        let servers: Vec<PhysicalServer> = (0..cfg.n_servers)
            .map(|i| {
                let factor = if skew == 0.0 {
                    1.0
                } else if i % 2 == 0 {
                    1.0 + skew
                } else {
                    1.0 - skew
                };
                PhysicalServer::new(ServerId(i as u64), cfg.server_capacity.scale(factor))
            })
            .collect();
        let cascade = if !cfg.distress.is_none() && cfg.distress.working_set_floor {
            cfg.cascade.with_working_set_floor(true)
        } else {
            cfg.cascade
        };
        let controller = LocalController::new(cascade);
        let rng = SimRng::seed_from_u64(cfg.seed);
        let capacity = servers
            .iter()
            .fold(ResourceVector::ZERO, |acc, s| acc + s.capacity());
        let fault = if cfg.faults.is_none() {
            None
        } else {
            Some(FaultInjector::new(cfg.faults.clone()))
        };
        let pindex = PlacementIndex::new(&servers);
        let servers_len = servers.len();
        // Sentinel versions (live ones never reach it) make every server
        // dirty for the first sampling round.
        let sampled = if cfg.distress.is_none() {
            Vec::new()
        } else {
            let unseen = SampledServer {
                version: u64::MAX,
                low: 0,
            };
            vec![unseen; servers_len]
        };
        ClusterManager {
            cfg,
            servers,
            controller,
            cascade,
            rng,
            stats: ClusterStats::default(),
            index: HashMap::default(),
            fault,
            missed: HashMap::default(),
            distress: HashMap::default(),
            migrations: HashMap::default(),
            breaker_open_now: 0,
            unresponsive: HashSet::default(),
            obs: Observability::default(),
            predictor: DemandPredictor::new(simkit::SimDuration::from_mins(10), 0.3),
            totals: ClusterTotals {
                capacity,
                agg: ServerAggregates::default(),
            },
            leaked_seen: hypervisor::leaked_sessions(),
            pindex,
            reach: vec![Reachability::Up; servers_len],
            partitions: HashMap::new(),
            mgr_down: false,
            mgr_down_since: SimTime::ZERO,
            scratch_ids: Vec::new(),
            scratch_sample: Vec::new(),
            queries: 0,
            sampled,
            sample_rounds: 0,
        }
    }

    /// Counts one placement or destination query and says whether to
    /// audit it against its scan oracle: every query in debug builds,
    /// every [`AUDIT_EVERY`]th in release builds.
    fn audited(&mut self) -> bool {
        self.queries += 1;
        cfg!(debug_assertions) || self.queries % AUDIT_EVERY == 0
    }

    /// Settles one audit. A divergence panics in debug builds and adds
    /// to `cluster.audit_violations` in release builds; the key is only
    /// registered when one happens, so clean runs' summaries are
    /// unchanged.
    fn audit(&mut self, got: Option<usize>, oracle: Option<usize>, what: &str) {
        debug_assert_eq!(got, oracle, "placement index diverged from the {what}");
        if got != oracle {
            self.obs.metrics.incr("cluster.audit_violations");
        }
    }

    /// One placement query, answered by the placement index. Audited
    /// queries (see [`audited`](Self::audited)) also run the naive
    /// oracle, on a cloned RNG so both consume the identical stream.
    fn place(&mut self, demand: &ResourceVector, mode: AvailabilityMode) -> Option<usize> {
        let oracle_rng = self.audited().then(|| self.rng.clone());
        let choice = self.pindex.choose(
            self.cfg.placement,
            &self.servers,
            demand,
            mode,
            &mut self.rng,
        );
        if let Some(mut rng) = oracle_rng {
            let oracle =
                choose_server_with(self.cfg.placement, &self.servers, demand, mode, &mut rng);
            self.audit(choice, oracle, "naive scan");
        }
        choice
    }

    /// Re-derives the placement index's cached entry for one server;
    /// call after any mutation of that server. No-op when the server's
    /// mutation counter is unchanged.
    fn refresh_index(&mut self, si: usize) {
        self.pindex.refresh(si, &self.servers[si]);
    }

    /// Applies a touched server's aggregate delta to the cluster totals.
    /// Call with snapshots taken immediately before and after mutating
    /// that one server; all other servers are untouched by construction.
    fn apply_delta(&mut self, before: &ServerAggregates, after: &ServerAggregates) {
        self.totals.agg.shift_by(before, after);
    }

    /// Settles one server's mutations into the cluster bookkeeping:
    /// applies the aggregate delta since `before` and refreshes the
    /// placement index. Every reclamation path calls this once per
    /// consumed [`ReclaimSession`] (or mutation phase) instead of
    /// hand-rolling the snapshot/delta/refresh triple. Returns the new
    /// snapshot so multi-phase paths can chain.
    fn settle(&mut self, si: usize, before: &ServerAggregates) -> ServerAggregates {
        let after = self.servers[si].aggregates();
        self.apply_delta(before, &after);
        self.refresh_index(si);
        after
    }

    /// The lifecycle trace recorded so far.
    pub fn log(&self) -> &TraceLog<ClusterRecord> {
        &self.obs.trace
    }

    /// The full observability bundle (metrics registry + trace).
    pub fn observability(&self) -> &Observability<ClusterRecord> {
        &self.obs
    }

    /// Mutable observability access (CSV/JSON export needs `&mut` for
    /// lazy quantile sorting; harnesses may also record their own keys).
    pub fn observability_mut(&mut self) -> &mut Observability<ClusterRecord> {
        &mut self.obs
    }

    /// Folds gauge history up to `now` and builds the machine-readable
    /// per-run summary (counters, gauges, histograms, span counts).
    pub fn run_summary(&mut self, now: SimTime, run: &str) -> JsonValue {
        self.obs.finalize(now);
        self.obs.run_summary(run)
    }

    /// The servers (for metrics).
    pub fn servers(&self) -> &[PhysicalServer] {
        &self.servers
    }

    /// Manager counters.
    pub fn stats(&self) -> ClusterStats {
        self.stats
    }

    /// Number of currently running VMs.
    pub fn running_vms(&self) -> usize {
        self.index.len()
    }

    /// Whether a VM is still running (it may have been preempted).
    pub fn is_running(&self, id: VmId) -> bool {
        self.index.contains_key(&id)
    }

    /// Total physical capacity across all servers. O(1): fixed at
    /// construction.
    pub fn total_capacity(&self) -> ResourceVector {
        self.totals.capacity
    }

    /// Cluster-wide committed fraction of capacity (dominant dimension).
    /// O(1): reads the incrementally-maintained totals.
    pub fn utilization(&self) -> f64 {
        self.dominant_share(&self.totals.agg.committed)
    }

    /// `v / capacity` on the dimension where it is largest.
    fn dominant_share(&self, v: &ResourceVector) -> f64 {
        let capacity = &self.totals.capacity;
        ResourceKind::ALL
            .into_iter()
            .filter(|&k| capacity.get(k) > 0.0)
            .fold(0.0, |worst: f64, k| worst.max(v.get(k) / capacity.get(k)))
    }

    /// Cluster-wide nominal overcommitment: `Σ specs / capacity − 1` on
    /// the dominant dimension (≥ 0). O(1).
    pub fn overcommitment(&self) -> f64 {
        (self.dominant_share(&self.totals.agg.spec_total) - 1.0).max(0.0)
    }

    /// Per-server nominal overcommitment values.
    pub fn server_overcommitments(&self) -> Vec<f64> {
        self.servers.iter().map(|s| s.overcommitment()).collect()
    }

    /// Aggregate CPU currently allocated to high-priority VMs (their
    /// full specs — they are never deflated, so spec equals effective).
    /// O(1).
    pub fn high_pri_cpu(&self) -> f64 {
        let t = &self.totals.agg;
        (t.spec_total.get(ResourceKind::Cpu) - t.low_spec.get(ResourceKind::Cpu)).max(0.0)
    }

    /// Aggregate *nominal* CPU of running low-priority VMs (what flat
    /// transient billing charges for). O(1).
    pub fn low_pri_spec_cpu(&self) -> f64 {
        self.totals.agg.low_spec.get(ResourceKind::Cpu)
    }

    /// Aggregate *effective* CPU of running low-priority VMs (what
    /// resource-as-a-service billing charges for). O(1).
    pub fn low_pri_effective_cpu(&self) -> f64 {
        self.totals.agg.low_effective.get(ResourceKind::Cpu)
    }

    /// Cross-checks the incrementally-maintained cluster totals against
    /// a full recomputation, and the VM index against server contents.
    /// Panics on divergence. Debug builds run this from `update_gauges`
    /// (i.e. on every launch/exit); release builds only pay for it when
    /// a harness calls it explicitly.
    pub fn assert_consistent(&self) {
        let mut recomputed = ServerAggregates::default();
        let mut hosted = 0usize;
        for (si, s) in self.servers.iter().enumerate() {
            s.assert_aggregates_consistent();
            if let Some(sess) = self.partitions.get(&si) {
                // The manager's books carry the *frozen* snapshot of a
                // partitioned server, not its live state — the live
                // delta settles in one pass at heal time.
                recomputed.shift_by(&ServerAggregates::default(), &sess.frozen);
                hosted += sess.vms.len();
            } else {
                let a = s.aggregates();
                recomputed.shift_by(&ServerAggregates::default(), &a);
                hosted += s.vm_count();
            }
        }
        assert!(
            self.totals.agg.approx_eq(&recomputed),
            "cluster totals drifted: cached {:?} vs recomputed {:?}",
            self.totals.agg,
            recomputed
        );
        assert_eq!(
            self.index.len(),
            hosted,
            "VM index size {} != hosted VM count {hosted}",
            self.index.len()
        );
        for (id, si) in &self.index {
            if let Some(sess) = self.partitions.get(si) {
                // The index keeps the stale view: it must match the
                // frozen hosted set, not the (unobservable) live one.
                assert!(
                    sess.vms.contains(id),
                    "index maps {id} to partitioned server {si}, \
                     which was not hosting it at partition time"
                );
            } else {
                assert!(
                    self.servers[*si].vm(*id).is_some(),
                    "index maps {id} to server {si}, which does not host it"
                );
            }
        }
        // Reachability invariants: the per-server state, the session
        // ledger and the transport-level connected flag must agree, and
        // `Up`/`Down` must match the physical flag (`Partitioned` may
        // hide either — the manager cannot tell).
        assert_eq!(
            self.reach.len(),
            self.servers.len(),
            "reachability vector does not cover every server"
        );
        for (si, s) in self.servers.iter().enumerate() {
            let r = self.reach[si];
            assert_eq!(
                r == Reachability::Partitioned,
                self.partitions.contains_key(&si),
                "server {si} reachability {r:?} disagrees with the session ledger"
            );
            assert_eq!(
                s.is_connected(),
                r != Reachability::Partitioned,
                "server {si} connected flag disagrees with reachability {r:?}"
            );
            match r {
                Reachability::Up => assert!(s.is_up(), "reachable server {si} is down"),
                Reachability::Down => assert!(!s.is_up(), "down server {si} is up"),
                Reachability::Partitioned => {}
            }
        }
        // Lifecycle-map invariant: the liveness/distress side tables may
        // only reference hosted VMs. A VM that exits, is preempted,
        // crashes, or is OOM-killed must leave all three maps, or a
        // relaunch under the same id inherits stale breaker/liveness
        // state (and the maps leak for VMs never relaunched).
        for id in self.missed.keys() {
            assert!(
                self.index.contains_key(id),
                "missed-deadline entry for {id}, which is not hosted"
            );
        }
        for id in &self.unresponsive {
            assert!(
                self.index.contains_key(id),
                "unresponsive entry for {id}, which is not hosted"
            );
        }
        for id in self.distress.keys() {
            assert!(
                self.index.contains_key(id),
                "distress entry for {id}, which is not hosted"
            );
            assert!(
                !self.partitions.contains_key(&self.index[id]),
                "distress entry for {id} behind a partition (should be parked in the session)"
            );
        }
        // Open-breaker gauge invariant: the incremental counter behind
        // `cluster.breaker_open_vms` must equal a fresh count of open
        // breakers, or opens and closes went asymmetric somewhere.
        assert_eq!(
            self.breaker_open_now,
            self.distress.values().filter(|s| s.open).count() as u64,
            "open-breaker gauge drifted from the distress map"
        );
        // Migration-ledger invariants: every in-flight move references
        // an up destination, each server's capacity hold is exactly the
        // sum of the holds the ledger placed there, and a down server
        // carries no hold at all (its reservations died with it).
        let mut held = vec![ResourceVector::ZERO; self.servers.len()];
        for (vm, f) in &self.migrations {
            assert!(
                f.dst < self.servers.len() && self.servers[f.dst].is_up(),
                "in-flight migration of {vm} references down destination {}",
                f.dst
            );
            assert!(
                !self.partitions.contains_key(&f.src) && !self.partitions.contains_key(&f.dst),
                "in-flight migration of {vm} touches a partitioned server \
                 (partition entry must abort or park-clean it)"
            );
            held[f.dst] += f.reserved;
        }
        for (si, s) in self.servers.iter().enumerate() {
            // Compared with a float epsilon: the ledger sums holds in
            // map order while the server accumulated them in event
            // order, so the last bits may differ.
            assert!(
                s.reserved().approx_eq(&held[si], 1e-6),
                "server {si} holds {:?} but the migration ledger expects {:?}",
                s.reserved(),
                held[si]
            );
            if !s.is_up() {
                assert!(
                    s.reserved().is_zero(),
                    "down server {si} still carries a capacity hold"
                );
            }
        }
        // Manager-down invariants: a dead control plane can reach no
        // server, holds no migration ledger (torn down at crash time),
        // and keeps no lifecycle state in manager memory (parked in the
        // per-server sessions for the inventory scan to re-learn).
        if self.mgr_down {
            for (si, r) in self.reach.iter().enumerate() {
                assert!(
                    *r != Reachability::Up,
                    "server {si} still reachable while the manager is down"
                );
            }
            assert!(
                self.migrations.is_empty(),
                "in-flight migrations survived a manager crash"
            );
            assert!(
                self.distress.is_empty() && self.missed.is_empty() && self.unresponsive.is_empty(),
                "manager-side lifecycle maps survived a manager crash \
                 (must be parked in the sessions)"
            );
        }
        self.pindex.assert_consistent(&self.servers);
    }

    /// Computes the per-VM fault conditions one reclamation round on
    /// server `si` must work around: VMs already declared unresponsive
    /// pivot to hypervisor-only deflation; the injector decides which
    /// agents are down, which control messages are lost, and which guest
    /// hotplug paths stall. Empty (and draws nothing) under the empty
    /// fault plan.
    fn plan_vm_faults(
        &mut self,
        now: SimTime,
        si: usize,
        demand: &ResourceVector,
    ) -> HashMap<VmId, VmFaults> {
        let mut map = HashMap::new();
        if self.fault.is_none() && self.unresponsive.is_empty() {
            return map;
        }
        // Faults only matter when the launch actually triggers a
        // reclamation round (make_room returns early otherwise).
        if demand.saturating_sub(&self.servers[si].free()).is_zero() {
            return map;
        }
        let burn = self.cfg.cascade.deadline.unwrap_or(DEFAULT_AGENT_WAIT);
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        self.servers[si].low_priority_ids_into(&mut ids);
        for &id in &ids {
            let mut f = VmFaults::default();
            if self.unresponsive.contains(&id) {
                f.hypervisor_only = true;
            } else if let Some(inj) = self.fault.as_mut() {
                if self.cfg.cascade.use_app {
                    let down = inj.agent_down(id.0, now);
                    let lost = !down && inj.msg_lost(id.0, now);
                    if down {
                        self.obs.metrics.incr("fault.injected.agent_down");
                    }
                    if lost {
                        self.obs.metrics.incr("fault.injected.msg_loss");
                    }
                    if down || lost {
                        f.agent_timeout = Some(burn);
                    }
                }
                if self.cfg.cascade.use_os {
                    if let Some(stall) = inj.hotplug_stall(id.0, now) {
                        self.obs.metrics.incr("fault.injected.hotplug_stall");
                        f.hotplug_stall = Some(stall);
                    }
                }
            }
            if f != VmFaults::default() {
                map.insert(id, f);
            }
        }
        self.scratch_ids = ids;
        map
    }

    /// Folds one reclamation round's outcomes into retry counters and
    /// agent-liveness tracking: a VM whose agent missed this cascade's
    /// deadline accrues a consecutive miss (escalating to unresponsive at
    /// the configured threshold); an agent that answered resets its count.
    fn note_cascade_outcomes(
        &mut self,
        now: SimTime,
        faults: &HashMap<VmId, VmFaults>,
        report: &ReclaimReport,
    ) {
        let retries: u64 = report
            .outcomes
            .iter()
            .map(|(_, o)| u64::from(o.retries))
            .sum();
        self.obs.metrics.add("cascade.retries", retries);
        if self.fault.is_none() {
            return;
        }
        for (id, out) in &report.outcomes {
            let f = faults.get(id).copied().unwrap_or_default();
            if f.hypervisor_only {
                continue; // Already escalated; liveness no longer tracked.
            }
            if f.agent_timeout.is_some() {
                let m = {
                    let m = self.missed.entry(*id).or_insert(0);
                    *m += 1;
                    *m
                };
                if self.cfg.unresponsive_after > 0
                    && m >= self.cfg.unresponsive_after
                    && self.unresponsive.insert(*id)
                {
                    self.stats.unresponsive_vms += 1;
                    self.obs.metrics.incr("cluster.unresponsive_vms");
                    let (vm, missed_deadlines) = (*id, m);
                    self.obs.trace.record_with(|| ClusterRecord::Unresponsive {
                        at: now,
                        vm,
                        missed_deadlines,
                    });
                    self.obs
                        .trace
                        .record_with(|| ClusterRecord::AgentUnresponsive {
                            at: now,
                            vm,
                            missed_deadlines,
                        });
                }
            } else if self.cfg.cascade.use_app && out.app.engaged() {
                self.missed.insert(*id, 0);
            }
        }
    }

    /// Forgets every side-table entry for a VM leaving the cluster
    /// (exit, preemption, crash loss, OOM kill): the VM→server index,
    /// agent-liveness counters, the unresponsive set and its
    /// distress/breaker state. A VM that departs with its breaker open
    /// also leaves the open-breaker gauge, or the gauge drifts from the
    /// map and a relaunch under the same id inherits stale state.
    fn drop_vm_tracking(&mut self, now: SimTime, id: VmId) {
        self.index.remove(&id);
        self.missed.remove(&id);
        self.unresponsive.remove(&id);
        if self.distress.remove(&id).is_some_and(|st| st.open) {
            self.shift_open_breakers(now, false);
        }
    }

    /// Forgets a departed VM on whichever side tracks it: the manager's
    /// side tables for a reachable server, the parked distress state
    /// for a partitioned one (its index entry stays frozen until heal).
    fn forget(&mut self, now: SimTime, id: VmId, sink: &mut Sink<'_>) {
        match sink {
            Sink::Live => self.drop_vm_tracking(now, id),
            Sink::Local(s) => {
                s.distress.remove(&id);
            }
        }
    }

    /// Moves the open-breaker gauge one step: a breaker opened or closed,
    /// or an open one entered or left the manager's view.
    fn shift_open_breakers(&mut self, now: SimTime, up: bool) {
        if up {
            self.breaker_open_now += 1;
        } else {
            self.breaker_open_now -= 1;
        }
        self.obs.metrics.gauge_set(
            "cluster.breaker_open_vms",
            now,
            self.breaker_open_now as f64,
        );
    }

    /// A fault-schedule call that does not apply (failing a down server,
    /// healing a connected one, …) means the schedule is buggy: debug
    /// builds panic with `why`, release builds count
    /// `cluster.fault_noops` and carry on.
    fn fault_noop(&mut self, why: std::fmt::Arguments<'_>) {
        debug_assert!(false, "{why}");
        self.obs.metrics.incr("cluster.fault_noops");
    }

    /// The index of `sid`, if the cluster has such a server.
    fn server_index(&self, sid: ServerId) -> Option<usize> {
        let si = sid.0 as usize;
        (si < self.servers.len()).then_some(si)
    }

    /// The in-flight migrations with an end on server `si`, in VM order.
    fn migrations_touching(&self, si: usize) -> Vec<VmId> {
        let mut affected: Vec<VmId> = self
            .migrations
            .iter()
            .filter(|(_, f)| f.src == si || f.dst == si)
            .map(|(id, _)| *id)
            .collect();
        affected.sort_unstable_by_key(|v| v.0);
        affected
    }

    /// Crashes a server: every hosted VM is lost, the server leaves the
    /// placement pool until [`recover_server`](Self::recover_server), and
    /// the incremental aggregates stay exact (the removal path is the
    /// same delta-applied one `exit` uses). Lost low-priority VMs count
    /// as preempted; lost high-priority VMs are returned so the caller
    /// can relaunch them through normal placement. Returns `None` when
    /// the server is unknown, unreachable, or already down (a counted
    /// fault no-op).
    ///
    /// A partitioned server cannot be failed *by the manager* — it
    /// cannot reach it. A physical crash behind a partition goes
    /// through [`autonomous_crash`](Self::autonomous_crash) and the
    /// manager discovers the losses at heal time.
    pub fn fail_server(&mut self, now: SimTime, sid: ServerId) -> Option<ServerFailure> {
        let si = self.server_index(sid)?;
        if self.reach[si] == Reachability::Partitioned {
            return None;
        }
        if !self.servers[si].is_up() {
            self.fault_noop(format_args!("fail_server: {sid} is already down"));
            return None;
        }
        let before = self.servers[si].aggregates();
        let failure = self.crash(now, si, &mut Sink::Live);
        self.reach[si] = Reachability::Down;
        self.settle(si, &before);
        let (high, low) = (failure.lost_high.len(), failure.lost_low.len());
        self.stats.server_crashes += 1;
        self.stats.preempted += low as u64;
        self.obs.metrics.incr("cluster.server_crashes");
        self.obs.metrics.incr("fault.injected.server_crash");
        self.obs.metrics.add("cluster.preempted", low as u64);
        self.obs.trace.record_with(|| ClusterRecord::ServerCrash {
            at: now,
            server: sid,
            lost_high: high,
            lost_low: low,
        });
        self.obs
            .trace
            .record_with(|| ClusterRecord::ServerCrashSpan {
                at: now,
                server: sid,
                lost_high: high,
                lost_low: low,
            });
        self.update_gauges(now);
        Some(failure)
    }

    /// The physical half of a server crash, shared by both sinks: every
    /// hosted VM dies and is forgotten, the server goes down, in-flight
    /// migrations with an end there tear down (moves *out of* it abort
    /// normally — destination hold released, donors reinflated; moves
    /// *into* it lose their hold with the machine, so only the ledger
    /// entry drops), and its capacity holds are cleared. A partitioned
    /// server has no in-flight migrations, so the teardown finds none.
    fn crash(&mut self, now: SimTime, si: usize, sink: &mut Sink<'_>) -> ServerFailure {
        let ids: Vec<VmId> = self.servers[si].vms().map(|vm| vm.id()).collect();
        let mut lost_high = Vec::new();
        let mut lost_low = Vec::new();
        for id in ids {
            let vm = self.servers[si].remove_vm(id).expect("listed VM is hosted");
            self.forget(now, id, sink);
            match vm.priority() {
                VmPriority::High => lost_high.push(id),
                VmPriority::Low => lost_low.push(id),
            }
        }
        self.servers[si].set_up(false);
        for vm in self.migrations_touching(si) {
            let inflight = self.migrations.remove(&vm).expect("listed as in-flight");
            if inflight.src == si {
                self.abort_migration(now, vm, &inflight, &mut Sink::Live);
            } else {
                self.obs.metrics.incr("cluster.migrations_aborted");
            }
        }
        self.servers[si].clear_reservations();
        ServerFailure {
            server: ServerId(si as u64),
            lost_high,
            lost_low,
        }
    }

    /// Returns a crashed server to the placement pool. Returns `false`
    /// when the server is unknown, unreachable, or already up (a
    /// counted fault no-op). A reboot behind a partition goes through
    /// [`autonomous_restart`](Self::autonomous_restart) instead.
    pub fn recover_server(&mut self, now: SimTime, sid: ServerId) -> bool {
        let Some(si) = self.server_index(sid) else {
            return false;
        };
        if self.reach[si] == Reachability::Partitioned {
            return false;
        }
        if self.servers[si].is_up() {
            self.fault_noop(format_args!("recover_server: {sid} is already up"));
            return false;
        }
        self.restart(now, si, &mut Sink::Live);
        self.obs.trace.record_with(|| ClusterRecord::ServerUp {
            at: now,
            server: sid,
        });
        self.update_gauges(now);
        true
    }

    /// A crashed server boots back up, empty. The live sink returns it
    /// to the placement pool and counts the recovery; the local sink
    /// logs the reboot (the server stays unreachable).
    fn restart(&mut self, now: SimTime, si: usize, sink: &mut Sink<'_>) {
        self.servers[si].set_up(true);
        if let Sink::Live = sink {
            self.reach[si] = Reachability::Up;
        }
        self.refresh_index(si);
        match sink {
            Sink::Live => self.obs.metrics.incr("cluster.server_recoveries"),
            Sink::Local(s) => s.log.push(DivergenceEvent::Restarted { at: now }),
        }
    }

    /// Handles a VM request: placement, reclamation, admission.
    pub fn launch(&mut self, now: SimTime, req: &VmRequest) -> LaunchOutcome {
        self.launch_impl(now, req, true)
    }

    /// [`launch`](Self::launch) that leaves a rejection *uncounted*: the
    /// cellular simulator's spill protocol probes the home cell and then
    /// ring neighbors with this, and only charges one `cluster.rejected`
    /// (via [`reject_spill`](Self::reject_spill)) once every candidate
    /// cell has refused. State-wise it is identical to `launch` — a
    /// refusing manager is left exactly as it was (the reclaim session
    /// rolls back any partial deflation), which is what makes the
    /// cross-cell message commit-or-rollback safe.
    pub fn launch_deferred(&mut self, now: SimTime, req: &VmRequest) -> LaunchOutcome {
        self.launch_impl(now, req, false)
    }

    /// Charges the final rejection of a request no cell could host:
    /// counted against this (home) manager so merged cellular stats sum
    /// exactly like monolithic ones.
    pub fn reject_spill(&mut self, now: SimTime, id: VmId) {
        self.count_reject(now, id, "no cell fits");
    }

    /// Charges one rejected request, traced with the reason `why`.
    fn count_reject(&mut self, now: SimTime, id: VmId, why: &'static str) {
        self.stats.rejected += 1;
        self.obs.metrics.incr("cluster.rejected");
        if self.cfg.lifecycle_trace {
            self.obs.trace.record_with(|| ClusterRecord::Reject {
                at: now,
                vm: id,
                why,
            });
        }
    }

    /// The breaker-open VMs on server `si`, shielded from further memory
    /// deflation: the proportional planner routes their share to healthy
    /// donors (they can still be preempted). Empty, without walking the
    /// server, while the distress loop is off.
    fn shielded_on(&mut self, si: usize) -> HashSet<VmId> {
        if self.cfg.distress.is_none() {
            return HashSet::new();
        }
        let mut ids = std::mem::take(&mut self.scratch_ids);
        ids.clear();
        self.servers[si].low_priority_ids_into(&mut ids);
        let shielded = ids
            .iter()
            .filter(|id| self.distress.get(id).is_some_and(|s| s.open))
            .copied()
            .collect();
        self.scratch_ids = ids;
        shielded
    }

    fn launch_impl(&mut self, now: SimTime, req: &VmRequest, count_reject: bool) -> LaunchOutcome {
        if !req.low_priority {
            self.predictor.observe(now, req.spec.get(ResourceKind::Cpu));
        }
        // Two-tier placement: prefer a server where free + deflatable
        // resources cover the demand (no preemption needed). Only
        // high-priority demand may fall back to servers where
        // low-priority VMs must be preempted (§5, "In the worst case, VMs
        // that are farthest from their deflation target are preempted").
        let first_try = if self.cfg.deflation_enabled {
            AvailabilityMode::Deflation
        } else {
            AvailabilityMode::PreemptionOnly
        };
        let mut chosen = self.place(&req.spec, first_try);
        if chosen.is_none() && !req.low_priority {
            chosen = self.place(&req.spec, AvailabilityMode::PreemptionOnly);
        }
        let Some(si) = chosen else {
            if count_reject {
                self.count_reject(now, req.id, "no server fits");
            }
            return LaunchOutcome::Rejected;
        };

        let before = self.servers[si].aggregates();
        let vm_faults = self.plan_vm_faults(now, si, &req.spec);
        let shielded = self.shielded_on(si);
        let session = self.controller.make_room_shielded(
            now,
            &mut self.servers[si],
            &req.spec,
            &vm_faults,
            &shielded,
        );

        if !session.satisfied() {
            // Deflation and preemption could not cover the demand (the
            // server was dominated by high-priority VMs); reject — and
            // leave the cluster exactly as it was. `make_room` itself
            // refuses to touch a server it cannot satisfy, so this
            // rollback is defense-in-depth: undo any partial deflation
            // by handing the reclaimed resources back.
            let rb = session.rollback();
            debug_assert!(
                rb.restored_vms == 0,
                "an unsatisfiable make_room must not preempt"
            );
            self.obs
                .metrics
                .add("cluster.reject_rollback_reinflations", rb.reinflated_vms);
            self.settle(si, &before);
            if count_reject {
                self.count_reject(now, req.id, "reclaim fell short");
            }
            self.update_gauges(now);
            return LaunchOutcome::Rejected;
        }

        let mut report = session.commit();
        self.note_cascade_outcomes(now, &vm_faults, &report);
        self.stats.deflations += report.outcomes.len() as u64;
        self.obs
            .metrics
            .add("cluster.deflations", report.outcomes.len() as u64);
        for (id, out) in &report.outcomes {
            if self.cfg.lifecycle_trace {
                self.obs.trace.record_with(|| ClusterRecord::Deflate {
                    at: now,
                    vm: *id,
                    by: out.total_reclaimed,
                    for_vm: req.id,
                });
            }
            self.obs
                .metrics
                .observe("cascade.latency_s", out.latency.as_secs_f64());
        }
        for id in &report.preempted {
            self.drop_vm_tracking(now, *id);
            if self.cfg.lifecycle_trace {
                self.obs.trace.record_with(|| ClusterRecord::Preempt {
                    at: now,
                    vm: *id,
                    for_vm: req.id,
                });
            }
        }
        self.stats.preempted += report.preempted.len() as u64;
        self.obs
            .metrics
            .add("cluster.preempted", report.preempted.len() as u64);
        if self.cfg.lifecycle_trace && (!report.outcomes.is_empty() || !report.preempted.is_empty())
        {
            // Structured span: the full make_room payload, with one
            // cascade.deflate child (per-layer LayerReports) per VM.
            self.obs.trace.record_with(|| {
                ClusterRecord::MakeRoom(Box::new(MakeRoom::take(
                    now,
                    ServerId(si as u64),
                    &mut report,
                )))
            });
        }

        let priority = if req.low_priority {
            VmPriority::Low
        } else {
            VmPriority::High
        };
        let min = if self.cfg.deflation_enabled {
            req.min_size
        } else if req.low_priority {
            // Preemption-only baseline: nothing is deflatable.
            req.spec
        } else {
            ResourceVector::ZERO
        };
        let mut vm = if self.cfg.distress.is_none() {
            Vm::new(req.id, req.spec, priority).with_min(min)
        } else {
            // Under the distress loop guests get force-unplug semantics
            // (hard distress is reachable) and low-priority VMs carry a
            // working-set floor derived from their resident set.
            let guest = GuestConfig {
                force_unplug: self.cfg.distress.force_unplug,
                ..GuestConfig::default()
            };
            let mut vm =
                Vm::with_models(req.id, req.spec, priority, guest, LatencyModel::default())
                    .with_min(min);
            if req.low_priority && self.cfg.distress.floor_fraction > 0.0 {
                let floor = req.spec.get(ResourceKind::Memory)
                    * self.cfg.usage_fraction
                    * self.cfg.distress.floor_fraction;
                vm = vm.with_memory_floor(floor);
            }
            vm
        };
        vm.set_usage(
            req.spec.get(ResourceKind::Memory) * self.cfg.usage_fraction,
            req.spec.get(ResourceKind::Cpu) * self.cfg.usage_fraction,
        );
        self.servers[si].add_vm(vm);
        self.settle(si, &before);
        self.index.insert(req.id, si);
        if self.cfg.lifecycle_trace {
            self.obs.trace.record_with(|| ClusterRecord::Launch {
                at: now,
                vm: req.id,
                server: ServerId(si as u64),
                type_name: req.type_name,
            });
        }
        self.stats.launched += 1;
        self.obs.metrics.incr("cluster.launched");
        if req.low_priority {
            self.stats.launched_low += 1;
            self.obs.metrics.incr("cluster.launched_low");
        } else {
            self.stats.highpri_launches += 1;
            self.stats.highpri_alloc_latency_secs += report.latency.as_secs_f64();
            self.obs.metrics.incr("cluster.highpri_launches");
            self.obs
                .metrics
                .observe("highpri.alloc_latency_s", report.latency.as_secs_f64());
        }
        self.update_gauges(now);
        LaunchOutcome::Placed {
            server: ServerId(si as u64),
            preempted: report.preempted,
        }
    }

    /// Records the cluster-wide time-weighted gauges at `now`. O(1):
    /// every value comes from the incrementally-maintained totals.
    fn update_gauges(&mut self, now: SimTime) {
        #[cfg(debug_assertions)]
        self.assert_consistent();
        // Fold any sessions leaked since the last poll into the
        // release-build counter (debug builds panic at the leak site).
        let leaked = hypervisor::leaked_sessions();
        if leaked > self.leaked_seen {
            self.obs
                .metrics
                .add("cluster.session_leaked", leaked - self.leaked_seen);
            self.leaked_seen = leaked;
        }
        let (util, over) = (self.utilization(), self.overcommitment());
        let running = self.running_vms() as f64;
        let m = &mut self.obs.metrics;
        m.gauge_set("cluster.utilization", now, util);
        m.gauge_set("cluster.overcommitment", now, over);
        m.gauge_set("cluster.running_vms", now, running);
    }

    /// Handles a VM's natural exit; freed resources reinflate the
    /// server's deflated VMs. Returns the server the VM ran on, or
    /// `None` when the VM was already gone (preempted earlier).
    ///
    /// Transactional: the index entry is only dropped once the server
    /// has actually given up the VM, so a failed removal cannot leave
    /// the index pointing at nothing (or vice versa).
    pub fn exit(&mut self, now: SimTime, id: VmId) -> Option<ServerId> {
        let si = *self.index.get(&id)?;
        if !self.depart(now, si, id, Departure::Exit, &mut Sink::Live) {
            // The index claims server `si` hosts the VM but the server
            // disagrees — the two structures desynced. Surface it
            // loudly in debug builds, count it and repair the index in
            // release builds.
            debug_assert!(false, "index desync: {id} not on server {si}");
            self.obs.metrics.incr("cluster.index_desync");
            self.index.remove(&id);
            return None;
        }
        Some(ServerId(si as u64))
    }

    /// One VM leaves server `si` — its lifetime ended or the guest OOM
    /// killer fired — and the survivors reinflate from what it held.
    /// The live sink drops the VM's tracking, bills the departure, holds
    /// back proactive headroom from an exit's reinflation and settles
    /// the server; the local sink forgets the parked distress state and
    /// logs the departure. Returns `false` when the server does not host
    /// the VM.
    fn depart(
        &mut self,
        now: SimTime,
        si: usize,
        id: VmId,
        why: Departure,
        sink: &mut Sink<'_>,
    ) -> bool {
        let before = self.servers[si].aggregates();
        let Some(vm) = self.servers[si].remove_vm(id) else {
            return false;
        };
        self.forget(now, id, sink);
        let freed = vm.effective();
        let mut to_reinflate = freed;
        let mid = match sink {
            Sink::Local(s) => {
                s.log.push(match why {
                    Departure::Exit => DivergenceEvent::Exited { at: now, vm: id },
                    Departure::OomKill => DivergenceEvent::OomKilled { at: now, vm: id },
                });
                None
            }
            Sink::Live => {
                self.bill_departure(now, si, &vm, why);
                // The totals take the removal now, because
                // `headroom_share` reads them; the index is refreshed
                // once, after reinflation, since nothing queries it
                // in between.
                let mid = self.servers[si].aggregates();
                self.apply_delta(&before, &mid);
                if why == Departure::Exit && self.cfg.proactive_headroom {
                    to_reinflate = self.headroom_share(now, &freed);
                }
                Some(mid)
            }
        };
        let controller = self.controller;
        let mut session = ReclaimSession::begin(now, &mut self.servers[si]);
        controller.reinflate(&mut session, &to_reinflate);
        let applied = session.commit().reinflated;
        if let Some(mid) = mid {
            if why == Departure::Exit && self.cfg.lifecycle_trace {
                for &(vm, by) in &applied {
                    self.obs
                        .trace
                        .record_with(|| ClusterRecord::Reinflate { at: now, vm, by });
                }
            }
            self.stats.reinflations += applied.len() as u64;
            self.obs
                .metrics
                .add("cluster.reinflations", applied.len() as u64);
            self.settle(si, &mid);
            self.update_gauges(now);
        }
        true
    }

    /// The manager-side record of a departure seen live: the exit or
    /// kill counters and trace, plus the guest's hotplug counters folded
    /// into the registry so run summaries report cluster-wide unplug
    /// activity.
    fn bill_departure(&mut self, now: SimTime, si: usize, vm: &Vm, why: Departure) {
        let (id, freed) = (vm.id(), vm.effective());
        match why {
            Departure::Exit => {
                if self.cfg.lifecycle_trace {
                    self.obs.trace.record_with(|| ClusterRecord::Exit {
                        at: now,
                        vm: id,
                        freed,
                    });
                }
                self.obs.metrics.incr("cluster.exits");
            }
            Departure::OomKill => {
                self.stats.oom_kills += 1;
                self.obs.metrics.incr("cluster.oom_kills");
                if self.cfg.lifecycle_trace {
                    self.obs.trace.record_with(|| ClusterRecord::OomKill {
                        at: now,
                        vm: id,
                        freed,
                    });
                }
                self.obs.trace.record_with(|| ClusterRecord::GuestOomKill {
                    at: now,
                    vm: id,
                    server: ServerId(si as u64),
                });
            }
        }
        let hp = vm.hotplug_stats();
        let m = &mut self.obs.metrics;
        m.add("vm.hotplug.unplug_attempts", hp.unplug_attempts);
        m.add("vm.hotplug.unplug_shortfalls", hp.unplug_shortfalls);
        m.add("vm.hotplug.plug_ops", hp.plug_ops);
    }

    /// Proactive headroom: the part of an exit's `freed` resources that
    /// may reinflate once the forecast high-priority CPU demand is held
    /// back (cluster-wide free CPU, which already includes `freed`,
    /// counts toward the forecast).
    fn headroom_share(&mut self, now: SimTime, freed: &ResourceVector) -> ResourceVector {
        let predicted = self.predictor.predict(now);
        // O(1): committed never exceeds per-server capacity, so the
        // cluster-wide free CPU is the difference of the totals.
        let free_cpu: f64 = self
            .totals
            .capacity
            .saturating_sub(&self.totals.agg.committed)
            .get(ResourceKind::Cpu);
        let freed_cpu = freed.get(ResourceKind::Cpu);
        let deficit = (predicted - (free_cpu - freed_cpu)).max(0.0);
        let hold_cpu = deficit.min(freed_cpu);
        if freed_cpu > 0.0 {
            freed.scale(1.0 - hold_cpu / freed_cpu)
        } else {
            *freed
        }
    }

    /// Whether a VM's deflation circuit breaker is currently open.
    pub fn breaker_open(&self, id: VmId) -> bool {
        self.distress.get(&id).is_some_and(|s| s.open)
    }

    /// Sets a hosted guest's application usage (resident memory and busy
    /// vCPUs): a workload shock. The change goes through the hosting
    /// server's `vm_mut`, so the server's version moves and the distress
    /// sampler revisits it. Returns `false` when no server hosts the VM
    /// (it departed, or died unobserved behind a partition).
    pub fn set_vm_usage(&mut self, id: VmId, memory_mb: f64, busy_vcpus: f64) -> bool {
        let Some(&si) = self.index.get(&id) else {
            return false;
        };
        let Some(vm) = self.servers[si].vm_mut(id) else {
            return false;
        };
        vm.set_usage(memory_mb, busy_vcpus);
        self.refresh_index(si);
        true
    }

    /// One distress-sampling round over the low-priority guests of the
    /// reachable servers (partitioned ones sample themselves through
    /// [`autonomous_sample`](Self::autonomous_sample)). Returns the
    /// kills, slowdowns and rescue migrations for the simulator to act
    /// on. A no-op unless the distress loop is enabled.
    ///
    /// The round is event-driven but matches a full scan of every such
    /// guest in VM order, event for event: a healthy guest whose distress
    /// state is not *live* (no open breaker, no consecutive distressed
    /// samples, no running grace clock) samples as a no-op, and its
    /// guest state cannot change without its server's version moving:
    /// each `Vm` owns its state, and a hosted one is reachable mutably
    /// only through the server's `&mut` methods, which bump the version,
    /// so the compiler rules out an unbumped guest mutation. The round
    /// therefore visits, in VM order, only the **watch set** (guests
    /// with a live state) and the guests of **dirty servers** (whose
    /// version moved since the previous round started). A sample that
    /// moves a server mid-round — an emergency grant deflating donors, an
    /// OOM kill reinflating survivors, a rescue reservation on a
    /// destination — adds that server's guests after the cursor to the
    /// round; those before it are sampled next round, as the server is
    /// dirty then. A read-only **audit** of the skip rule against ground
    /// truth stays as a backstop for the sampler's own bookkeeping: it
    /// runs every round in debug builds and every 256th in release
    /// builds.
    pub fn sample_distress(&mut self, now: SimTime) -> Vec<DistressEvent> {
        let d = self.cfg.distress;
        if d.is_none() {
            return Vec::new();
        }
        let mut queue = std::mem::take(&mut self.scratch_sample);
        let population = self.plan_round(&mut queue);
        self.sample_rounds += 1;
        if cfg!(debug_assertions) || self.sample_rounds % AUDIT_EVERY == 0 {
            self.audit_skipped(&queue);
        }
        let mut events = Vec::new();
        let mut distressed = 0u64;
        let mut next = 0;
        while let Some(&(raw, si)) = queue.get(next) {
            next += 1;
            let version = self.servers[si].version();
            let sampled = self.sample_vm(now, si, VmId(raw), &mut Sink::Live, &mut events);
            distressed += u64::from(sampled.distressed);
            if self.servers[si].version() != version {
                self.enqueue_after(&mut queue, next, si, raw);
            }
            if let Some(di) = sampled.rescue_dst {
                self.enqueue_after(&mut queue, next, di, raw);
            }
        }
        let secs = |n: u64| (n as f64 * d.sample_interval.as_secs_f64()) as u64;
        let m = &mut self.obs.metrics;
        m.add("distress.lowpri_sample_seconds", secs(population));
        m.add("cluster.distress_seconds", secs(distressed));
        queue.clear();
        self.scratch_sample = queue;
        self.update_gauges(now);
        events
    }

    /// Fills `queue` with one round's guests in VM order: those of every
    /// reachable server whose version moved since the previous round
    /// started (recording the version now), plus the watch set. Returns
    /// the number of low-priority guests on reachable servers, kept per
    /// server and recounted only when the server is dirty.
    fn plan_round(&mut self, queue: &mut Vec<(u64, usize)>) -> u64 {
        queue.clear();
        let mut population = 0u64;
        for (si, s) in self.servers.iter().enumerate() {
            if self.reach[si] == Reachability::Partitioned {
                continue;
            }
            let seen = &mut self.sampled[si];
            if seen.version != s.version() {
                seen.version = s.version();
                let start = queue.len();
                queue.extend(
                    s.vms()
                        .filter(|vm| vm.priority() == VmPriority::Low)
                        .map(|vm| (vm.id().0, si)),
                );
                seen.low = queue.len() - start;
            }
            population += seen.low as u64;
        }
        queue.extend(
            self.distress
                .iter()
                .filter(|(_, st)| st.live())
                .map(|(id, _)| (id.0, self.index[id])),
        );
        queue.sort_unstable();
        queue.dedup();
        population
    }

    /// Adds the low-priority guests of server `si` with ids above
    /// `after` to the rest of the round (`queue[next..]`), keeping the
    /// queue in VM order and free of duplicates.
    fn enqueue_after(&self, queue: &mut Vec<(u64, usize)>, next: usize, si: usize, after: u64) {
        let len = queue.len();
        queue.extend(
            self.servers[si]
                .vms()
                .filter(|vm| vm.priority() == VmPriority::Low && vm.id().0 > after)
                .map(|vm| (vm.id().0, si)),
        );
        if queue.len() > len {
            queue[next..].sort_unstable();
            queue.dedup();
        }
    }

    /// Audits the sampler's skip rule before a round: every low-priority
    /// guest on a reachable server that `queue` leaves out must be
    /// healthy by [`classify`] and hold a non-live distress state, or the
    /// round would miss what a full scan sees (say, a watch-set or
    /// dirty-server bookkeeping slip; guest state itself cannot change
    /// without a version bump). Read-only. A violation
    /// panics in debug builds and adds to `cluster.audit_violations` in
    /// release builds; the key is only registered when one happens.
    fn audit_skipped(&mut self, queue: &[(u64, usize)]) {
        let thrash = self.cfg.distress.thrash_threshold;
        let mut violations = 0u64;
        for (si, s) in self.servers.iter().enumerate() {
            if self.reach[si] == Reachability::Partitioned {
                continue;
            }
            for vm in s.vms().filter(|vm| vm.priority() == VmPriority::Low) {
                let id = vm.id();
                if queue.binary_search(&(id.0, si)).is_ok() {
                    continue;
                }
                let (hard, frac) = classify(s, id);
                let live = self.distress.get(&id).is_some_and(VmDistress::live);
                if hard || frac > thrash || live {
                    debug_assert!(
                        false,
                        "distress sampler skipped {id} on server {si} \
                         (hard {hard}, swapped {frac:.3}, live {live})"
                    );
                    violations += 1;
                }
            }
        }
        self.obs.metrics.add("cluster.audit_violations", violations);
    }

    /// The local controller's per-guest distress step, shared by both
    /// sinks: classify the guest as healthy / soft (thrashing) / hard
    /// (OOM), run emergency reinflation if it is distressed, advance its
    /// circuit breaker, and fire the OOM killer on hard distress that
    /// outlived the grace window. Kills and slowdowns go to `events`; a
    /// live guest still distressed after mitigation escalates to a
    /// rescue migration when the policy allows. Returns whether the
    /// guest was distressed and where a rescue reserved.
    fn sample_vm(
        &mut self,
        now: SimTime,
        si: usize,
        id: VmId,
        sink: &mut Sink<'_>,
        events: &mut Vec<DistressEvent>,
    ) -> Sampled {
        let d = self.cfg.distress;
        let live = matches!(sink, Sink::Live);
        let (mut hard, mut frac) = classify(&self.servers[si], id);
        let mut soft = !hard && frac > d.thrash_threshold;
        let mut st = sink
            .distress(&mut self.distress)
            .get(&id)
            .copied()
            .unwrap_or_default();

        // Mitigation first: emergency reinflation may clear the
        // distress this very sample, before consequences apply.
        if (hard || soft) && d.emergency_reinflate {
            self.emergency_grant(now, si, id, sink);
            (hard, frac) = classify(&self.servers[si], id);
            soft = !hard && frac > d.thrash_threshold;
        }

        if hard || soft {
            st.consecutive += 1;
            st.healthy_streak = 0;
            if !st.open && d.breaker_after > 0 && st.consecutive >= d.breaker_after {
                st.open = true;
                st.trips += 1;
                st.hold = d
                    .breaker_cooldown
                    .saturating_mul(1u32 << (st.trips - 1).min(6));
                self.breaker_moved(now, id, &st, sink);
            }
        } else {
            st.consecutive = 0;
            if st.open {
                st.healthy_streak += 1;
                if st.healthy_streak >= st.hold {
                    st.open = false;
                    st.healthy_streak = 0;
                    self.breaker_moved(now, id, &st, sink);
                }
            }
        }
        if live && (hard || soft) {
            let key = if hard {
                "distress.hard_samples"
            } else {
                "distress.soft_samples"
            };
            self.obs.metrics.incr(key);
        }
        // The grace-window clock runs only through uninterrupted hard
        // distress.
        if !hard {
            st.hard_since = None;
        }
        let kill = hard && now >= *st.hard_since.get_or_insert(now) + d.grace_window;
        // Persist the breaker/streak state *before* any kill: the kill
        // drops the entry (and, live, the open-breaker gauge), which
        // must see this sample's state — a breaker opened and killed in
        // the same sample would otherwise leak the gauge. A default
        // state is dropped rather than stored.
        let map = sink.distress(&mut self.distress);
        if st == VmDistress::default() {
            map.remove(&id);
        } else {
            map.insert(id, st);
        }
        let distressed = hard || soft;
        if kill {
            // Grace expired without rescue: the guest OOM killer fires
            // and the VM dies.
            self.depart(now, si, id, Departure::OomKill, sink);
            events.push(DistressEvent::OomKill {
                vm: id,
                server: ServerId(si as u64),
            });
            return Sampled {
                distressed,
                rescue_dst: None,
            };
        }
        if soft {
            events.push(DistressEvent::Slowdown {
                vm: id,
                perf: d.thrash_perf(frac),
            });
        }
        // Same-server mitigation left the guest distressed but alive:
        // escalate to live migration when the policy allows (moving a
        // VM needs the manager, so only a reachable server can).
        let mut rescue_dst = None;
        if live
            && distressed
            && !self.cfg.migration.is_none()
            && self.cfg.migration.distress_rescue
            && !self.migrations.contains_key(&id)
        {
            let (dst, total) = self.try_migration(now, id);
            rescue_dst = dst;
            if let Some(total) = total {
                events.push(DistressEvent::Migration { vm: id, total });
            }
        }
        Sampled {
            distressed,
            rescue_dst,
        }
    }

    /// Reports one breaker transition (`st.open` tells which way): the
    /// live sink moves the open-breaker gauge, its counters and trace;
    /// the local sink logs it for the heal to replay.
    fn breaker_moved(&mut self, now: SimTime, id: VmId, st: &VmDistress, sink: &mut Sink<'_>) {
        match sink {
            Sink::Local(s) => s.log.push(if st.open {
                DivergenceEvent::BreakerOpened {
                    at: now,
                    vm: id,
                    trips: st.trips,
                }
            } else {
                DivergenceEvent::BreakerClosed { at: now, vm: id }
            }),
            Sink::Live if st.open => {
                self.obs.metrics.incr("cluster.breaker_trips");
                self.shift_open_breakers(now, true);
                self.obs.trace.record_with(|| ClusterRecord::BreakerOpen {
                    at: now,
                    vm: id,
                    trips: st.trips,
                    hold_samples: st.hold,
                });
            }
            Sink::Live => {
                self.shift_open_breakers(now, false);
                self.obs.metrics.incr("distress.breaker_closed");
            }
        }
    }

    /// Emergency reinflation for one distressed VM: grant it the memory
    /// gap between its resident set and its effective allocation, taking
    /// first from the server's free pool and then from healthy
    /// co-located low-priority donors (largest headroom first, never
    /// below a donor's own resident set or minimum size, never from a
    /// breaker-open VM — read from whichever map owns the server's
    /// distress state). The live sink bills and settles the grant; the
    /// local sink logs it.
    fn emergency_grant(&mut self, now: SimTime, si: usize, victim: VmId, sink: &mut Sink<'_>) {
        use ResourceKind::Memory;
        let Some(vm) = self.servers[si].vm(victim) else {
            return;
        };
        let usage = vm.state().usage.memory_mb;
        let eff = vm.effective().get(Memory);
        let spec = vm.spec().get(Memory);
        let needed = (usage - eff).max(0.0).min((spec - eff).max(0.0));
        if needed <= 1.0 {
            return;
        }
        let before = self.servers[si].aggregates();
        let mut session = ReclaimSession::begin(now, &mut self.servers[si]);
        let free = session.server().free().get(Memory);
        let mut shortfall = (needed - free).max(0.0);
        if shortfall > 0.0 {
            let shield = sink.distress(&mut self.distress);
            let mut donors: Vec<(f64, VmId)> = session
                .server()
                .vms()
                .filter(|dv| {
                    dv.id() != victim && dv.priority() == VmPriority::Low && dv.deflatable()
                })
                .filter(|dv| !shield.get(&dv.id()).is_some_and(|s| s.open))
                .filter_map(|dv| {
                    let st = dv.state();
                    if st.is_oom() {
                        return None;
                    }
                    let eff = dv.effective().get(Memory);
                    // Donations stop at the donor's own resident set, at
                    // its contractual minimum, and at its advisory
                    // working-set floor — harvesting below the floor
                    // would push the donor into the same distress the
                    // grant is rescuing the victim from.
                    let give = (eff - st.usage.memory_mb)
                        .min(eff - dv.min_size().get(Memory))
                        .min(eff - dv.memory_floor_mb())
                        .min(shortfall);
                    (give > 1.0).then(|| (give, dv.id()))
                })
                .collect();
            donors.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1 .0.cmp(&b.1 .0)));
            for (give, did) in donors {
                if shortfall <= 0.0 {
                    break;
                }
                let ask = ResourceVector::memory(give.min(shortfall));
                if let Some(out) = session.deflate(did, &ask, &self.cascade) {
                    shortfall -= out.total_reclaimed.get(Memory);
                }
            }
        }
        let grant = needed.min(session.server().free().get(Memory));
        if grant > 0.0 {
            session.reinflate(victim, &ResourceVector::memory(grant));
        }
        // Emergency harvesting is best-effort, never transactional: every
        // donation already made stands even when the grant came up short,
        // so the session always commits.
        session.commit();
        match sink {
            _ if grant <= 0.0 => {}
            Sink::Local(s) => s.log.push(DivergenceEvent::EmergencyReinflated {
                at: now,
                vm: victim,
                granted_mb: grant,
            }),
            Sink::Live => {
                self.stats.emergency_reinflations += 1;
                self.obs.metrics.incr("cluster.emergency_reinflations");
                if self.cfg.lifecycle_trace {
                    self.obs
                        .trace
                        .record_with(|| ClusterRecord::EmergencyReinflate {
                            at: now,
                            vm: victim,
                            granted_mb: grant,
                            needed_mb: needed,
                        });
                }
                self.obs
                    .trace
                    .record_with(|| ClusterRecord::EmergencyReinflateSpan {
                        at: now,
                        vm: victim,
                        server: ServerId(si as u64),
                        needed_mb: needed,
                        granted_mb: grant,
                    });
            }
        }
        if let Sink::Live = sink {
            self.settle(si, &before);
        }
    }

    /// The best migration destination for `demand`: the up server with
    /// the most deflation-aware headroom that can cover it, excluding
    /// the source. Deterministic and RNG-free: the index answers from
    /// cached availability vectors in one pass over its classes, and
    /// audited queries are checked against the naive scan.
    fn find_destination(&mut self, demand: &ResourceVector, exclude: usize) -> Option<usize> {
        let dest = self
            .pindex
            .best_headroom(&self.servers, demand, Some(exclude));
        if self.audited() {
            let oracle = best_headroom_with(&self.servers, demand, Some(exclude));
            self.audit(dest, oracle, "naive destination scan");
        }
        dest
    }

    /// Starts a live migration for `vm`: picks the destination with the
    /// most headroom, reserves the VM's effective allocation there
    /// (deflating destination VMs if needed — never preempting), and
    /// parks the session in the in-flight ledger. Returns the planned
    /// wall-clock span of the move — the caller schedules
    /// [`finish_migration`](Self::finish_migration) after it elapses —
    /// or `None` when migration is off, the VM is unknown or already
    /// moving, or no destination can take it.
    pub fn begin_migration(&mut self, now: SimTime, vm: VmId) -> Option<SimDuration> {
        self.try_migration(now, vm).1
    }

    /// [`begin_migration`](Self::begin_migration), also naming the
    /// destination it reserved on or tried to: a refused reservation
    /// deflates and rolls back there, so that server's guests may have
    /// changed either way.
    fn try_migration(&mut self, now: SimTime, vm: VmId) -> (Option<usize>, Option<SimDuration>) {
        if self.cfg.migration.is_none() || self.migrations.contains_key(&vm) {
            return (None, None);
        }
        let Some(&si) = self.index.get(&vm) else {
            return (None, None);
        };
        let Some(demand) = self.servers[si].vm(vm).map(Vm::effective) else {
            return (None, None);
        };
        let Some(di) = self.find_destination(&demand, si) else {
            self.obs.metrics.incr("cluster.migration_no_target");
            return (None, None);
        };
        let before_dst = self.servers[di].aggregates();
        // Making room on the destination honors the circuit breaker:
        // the reservation must not squeeze a guest the breaker just
        // rescued.
        let shielded = self.shielded_on(di);
        let (src_ref, dst_ref) = if si < di {
            let (l, r) = self.servers.split_at_mut(di);
            (&mut l[si], &mut r[0])
        } else {
            let (l, r) = self.servers.split_at_mut(si);
            (&mut r[0], &mut l[di])
        };
        let Some(mut sess) =
            MigrationSession::begin(now, src_ref, dst_ref, vm, self.cfg.migration.session)
        else {
            return (None, None);
        };
        let controller = self.controller;
        if !sess.reserve_shielded(&controller, &shielded) {
            sess.rollback();
            // The failed make_room deflated and rolled back destination
            // VMs — versions bumped — so settle to refresh the index.
            self.settle(di, &before_dst);
            self.obs.metrics.incr("cluster.migration_no_target");
            return (Some(di), None);
        }
        let parked = sess.park();
        let total = parked.plan.total;
        self.migrations.insert(
            vm,
            InFlightMigration {
                src: si,
                dst: di,
                reserved: parked.reserved,
                reserve_outcomes: parked.reserve_outcomes,
                plan: parked.plan,
            },
        );
        self.settle(di, &before_dst);
        self.obs.metrics.incr("cluster.migrations_started");
        if self.cfg.lifecycle_trace {
            self.obs.trace.record_with(|| ClusterRecord::MigrateStart {
                at: now,
                vm,
                src: ServerId(si as u64),
                dst: ServerId(di as u64),
                rounds: parked.plan.rounds,
            });
        }
        (Some(di), Some(total))
    }

    /// Completes an in-flight migration: moves the VM onto its reserved
    /// destination (delta-exact on both servers), charges the blackout
    /// to the migration latency histogram, and reinflates the landed VM
    /// toward its spec from the destination's remaining free pool.
    /// Returns the destination, or `None` when the move no longer
    /// applies (the VM exited, was preempted, or was OOM-killed during
    /// the copy window) — in that case the destination hold is released
    /// and its donors are made whole.
    pub fn finish_migration(&mut self, now: SimTime, vm: VmId) -> Option<ServerId> {
        let inflight = self.migrations.remove(&vm)?;
        if self.index.get(&vm) != Some(&inflight.src) {
            // A crashed source cleans the ledger in `fail_server`, so a
            // surviving entry whose VM is elsewhere means the VM died or
            // departed mid-copy: nothing to cut over.
            self.abort_migration(now, vm, &inflight, &mut Sink::Live);
            self.update_gauges(now);
            return None;
        }
        let (si, di) = (inflight.src, inflight.dst);
        let before_src = self.servers[si].aggregates();
        let moved = self.servers[si]
            .remove_vm(vm)
            .expect("indexed VM is hosted");
        self.settle(si, &before_src);
        let before_dst = self.servers[di].aggregates();
        self.servers[di].release_reservation(&inflight.reserved);
        self.servers[di].add_vm(moved);
        self.index.insert(vm, di);
        let mid_dst = self.settle(di, &before_dst);
        // The move usually lands on a roomier host: hand the landed VM
        // back as much of its deflation as the destination's free pool
        // covers (element-wise, never above its spec).
        let landed = self.servers[di].vm(vm).expect("just landed");
        let gap = landed.spec().saturating_sub(&landed.effective());
        let grant = gap.min(&self.servers[di].free()).max(&ResourceVector::ZERO);
        if !grant.is_zero() {
            let mut session = ReclaimSession::begin(now, &mut self.servers[di]);
            session.reinflate(vm, &grant);
            let applied = session.commit().reinflated;
            self.stats.reinflations += applied.len() as u64;
            self.obs
                .metrics
                .add("cluster.reinflations", applied.len() as u64);
            self.settle(di, &mid_dst);
        }
        self.stats.migrations += 1;
        let m = &mut self.obs.metrics;
        m.incr("cluster.migrations");
        m.add("cluster.migration_mb", inflight.plan.copied_mb as u64);
        m.observe("migration.downtime_s", inflight.plan.downtime.as_secs_f64());
        let (src, dst) = (ServerId(si as u64), ServerId(di as u64));
        if self.cfg.lifecycle_trace {
            self.obs.trace.record_with(|| ClusterRecord::Migrate {
                at: now,
                vm,
                src,
                dst,
            });
        }
        self.obs.trace.record_with(|| ClusterRecord::Migration {
            at: now,
            vm,
            src,
            dst,
            rounds: inflight.plan.rounds,
            copied_mb: inflight.plan.copied_mb,
        });
        self.update_gauges(now);
        Some(ServerId(di as u64))
    }

    /// Undoes a parked migration's destination state: releases the
    /// capacity hold and hands every destination donor back exactly
    /// what it gave (reverse order, mirroring the session's own
    /// rollback). A down destination is skipped — its holds died with
    /// the machine. The live sink settles and traces the abort; the
    /// local sink (a destination just cut off from the manager) logs
    /// the cleared hold instead.
    fn abort_migration(
        &mut self,
        now: SimTime,
        vm: VmId,
        inflight: &InFlightMigration,
        sink: &mut Sink<'_>,
    ) {
        let di = inflight.dst;
        if self.servers[di].is_up() {
            let before = self.servers[di].aggregates();
            self.servers[di].release_reservation(&inflight.reserved);
            for (id, got) in inflight.reserve_outcomes.iter().rev() {
                let _ = self.servers[di].reinflate_vm(now, *id, got);
            }
            match sink {
                Sink::Live => {
                    self.settle(di, &before);
                }
                Sink::Local(s) => {
                    self.refresh_index(di);
                    s.log
                        .push(DivergenceEvent::ReservationCleared { at: now, vm });
                }
            }
        }
        self.obs.metrics.incr("cluster.migrations_aborted");
        if let Sink::Live = sink {
            if self.cfg.lifecycle_trace {
                self.obs.trace.record_with(|| ClusterRecord::MigrateAbort {
                    at: now,
                    vm,
                    dst: ServerId(di as u64),
                });
            }
        }
    }

    /// Evacuates every VM on `sid` via live migration (advance-warning
    /// maintenance or a scripted crash with `crash_warning`). Returns
    /// the started moves with their planned spans so the caller can
    /// schedule their completions; VMs with no viable destination stay
    /// put — and die with the server if the warning was real. A no-op
    /// unless migration is enabled and the server is up.
    pub fn drain_server(&mut self, now: SimTime, sid: ServerId) -> Vec<(VmId, SimDuration)> {
        let Some(si) = self.server_index(sid) else {
            return Vec::new();
        };
        if self.cfg.migration.is_none() || !self.servers[si].placeable() {
            return Vec::new();
        }
        let started = self.evacuate(now, si);
        self.obs.metrics.incr("cluster.drains");
        let hosted = self.servers[si].vm_count();
        self.obs.trace.record_with(|| ClusterRecord::Drain {
            at: now,
            server: sid,
            hosted,
            moves: started.len(),
        });
        self.update_gauges(now);
        started
    }

    /// One background defragmentation pass: picks the up server hosting
    /// the fewest VMs (at most `max_defrag_per_round`, all low-priority,
    /// none already moving) and migrates them off, converting scattered
    /// fragments into one whole placeable slot. Returns the started
    /// moves for the caller to schedule.
    pub fn defrag_round(&mut self, now: SimTime) -> Vec<(VmId, SimDuration)> {
        if self.cfg.migration.is_none() {
            return Vec::new();
        }
        let cap = self.cfg.migration.max_defrag_per_round;
        let mut victim: Option<(usize, usize)> = None; // (vm_count, index)
        for (i, s) in self.servers.iter().enumerate() {
            if !s.placeable() {
                continue;
            }
            let count = s.vm_count();
            if count == 0 || count > cap {
                continue;
            }
            let movable = s.vms().all(|vm| {
                vm.priority() == VmPriority::Low && !self.migrations.contains_key(&vm.id())
            });
            if movable && victim.map_or(true, |(bc, _)| count < bc) {
                victim = Some((count, i));
            }
        }
        let Some((_, si)) = victim else {
            return Vec::new();
        };
        let started = self.evacuate(now, si);
        if !started.is_empty() {
            self.obs.metrics.incr("cluster.defrag_rounds");
            self.obs.trace.record_with(|| ClusterRecord::Defrag {
                at: now,
                server: ServerId(si as u64),
                moves: started.len(),
            });
        }
        self.update_gauges(now);
        started
    }

    /// Starts a migration off server `si` for every VM it hosts, in id
    /// order; returns the moves that found a destination.
    fn evacuate(&mut self, now: SimTime, si: usize) -> Vec<(VmId, SimDuration)> {
        let ids: Vec<VmId> = self.servers[si].vms().map(|vm| vm.id()).collect();
        ids.into_iter()
            .filter_map(|vm| Some((vm, self.begin_migration(now, vm)?)))
            .collect()
    }

    // ───────────────────── partition control plane ─────────────────────

    /// The manager's view of `sid`'s control-plane liveness.
    pub fn reachability(&self, sid: ServerId) -> Reachability {
        self.reach
            .get(sid.0 as usize)
            .copied()
            .unwrap_or(Reachability::Down)
    }

    /// Whether `sid` is currently behind a partition.
    pub fn is_partitioned(&self, sid: ServerId) -> bool {
        self.partitions.contains_key(&(sid.0 as usize))
    }

    /// The currently-partitioned servers, in index order.
    pub fn partitioned_servers(&self) -> Vec<ServerId> {
        let mut v: Vec<usize> = self.partitions.keys().copied().collect();
        v.sort_unstable();
        v.into_iter().map(|si| ServerId(si as u64)).collect()
    }

    /// The server hosting `id` per the manager's (possibly frozen)
    /// index view.
    pub fn server_of(&self, id: VmId) -> Option<ServerId> {
        self.index.get(&id).map(|si| ServerId(*si as u64))
    }

    /// The server hosting `id` per the manager's (possibly frozen) index
    /// view, if that server is currently partitioned.
    pub fn partitioned_host(&self, id: VmId) -> Option<ServerId> {
        let si = *self.index.get(&id)?;
        self.partitions
            .contains_key(&si)
            .then_some(ServerId(si as u64))
    }

    /// The divergence log a partitioned server has accumulated so far.
    pub fn divergence_log(&self, sid: ServerId) -> Option<&DivergenceLog> {
        self.partitions.get(&(sid.0 as usize)).map(|s| &s.log)
    }

    /// Opens a network partition between the manager and `sid`: the
    /// server leaves the placement pool *without* releasing capacity,
    /// its contribution to the cached cluster totals freezes at the
    /// last-observed snapshot, its distress/breaker state is parked for
    /// the local controller, and any in-flight migration touching it is
    /// torn down (moves out abort normally — the destination is still
    /// reachable; moves in have their stranded reservation cleared by
    /// the local controller, logged as divergence). Returns `false`
    /// when the server is unknown or down — a partition window opening
    /// over a crashed server never starts. Partitioning an
    /// already-partitioned server means the fault schedule is buggy:
    /// debug builds panic, release builds count `cluster.fault_noops`
    /// and carry on (mirroring `fail_server`/`recover_server`).
    pub fn partition_server(&mut self, now: SimTime, sid: ServerId) -> bool {
        let Some(si) = self.server_index(sid) else {
            return false;
        };
        debug_assert!(!self.mgr_down, "partition_server while the manager is down");
        if self.reach[si] == Reachability::Partitioned {
            self.fault_noop(format_args!(
                "partition_server: {sid} is already partitioned"
            ));
            return false;
        }
        if self.reach[si] != Reachability::Up || !self.servers[si].is_up() {
            return false;
        }
        let hosted = self.isolate_server(now, si);
        self.obs.metrics.incr("cluster.partitions");
        if self.cfg.lifecycle_trace {
            self.obs.trace.record_with(|| ClusterRecord::Partition {
                at: now,
                server: sid,
            });
        }
        self.obs.trace.record_with(|| ClusterRecord::PartitionSpan {
            at: now,
            server: sid,
            hosted,
        });
        self.update_gauges(now);
        true
    }

    /// The mechanics of losing contact with one reachable server —
    /// shared by [`partition_server`](Self::partition_server) (one
    /// network window, with its own metrics) and
    /// [`crash_manager`](Self::crash_manager) (every reachable server at
    /// once, metered as a single manager crash). Freezes the view,
    /// parks distress, tears down touching migrations, opens the
    /// session. Returns the frozen hosted-VM count.
    fn isolate_server(&mut self, now: SimTime, si: usize) -> usize {
        self.reach[si] = Reachability::Partitioned;
        self.servers[si].set_connected(false);
        // Evict from the placement pool; capacity stays committed.
        self.refresh_index(si);
        // Freeze the manager's view *before* any partition-entry
        // mutation, so the snapshot equals exactly the contribution the
        // cached totals already carry.
        let frozen = self.servers[si].aggregates();
        let hosted: Vec<VmId> = self.servers[si].vms().map(|vm| vm.id()).collect();
        let mut session = PartitionSession {
            since: now,
            frozen,
            vms: hosted.iter().copied().collect(),
            low: self.servers[si].low_priority_ids().into_iter().collect(),
            distress: HashMap::default(),
            missed: HashMap::default(),
            unresponsive: HashSet::default(),
            log: DivergenceLog::default(),
        };
        // Park manager-side distress state: the local controller carries
        // it forward autonomously and hands it back at heal time. Open
        // breakers leave the manager's gauge while unobservable.
        for id in hosted {
            if let Some(st) = self.distress.remove(&id) {
                if st.open {
                    self.shift_open_breakers(now, false);
                }
                session.distress.insert(id, st);
            }
        }
        // Tear down in-flight migrations touching the server. The
        // destination-side local clear must not settle: the manager's
        // frozen snapshot has to keep matching the cached totals.
        for vm in self.migrations_touching(si) {
            let inflight = self.migrations.remove(&vm).expect("listed as in-flight");
            let mut sink = if inflight.src == si {
                Sink::Live
            } else {
                Sink::Local(&mut session)
            };
            self.abort_migration(now, vm, &inflight, &mut sink);
        }
        let hosted = session.vms.len();
        self.partitions.insert(si, session);
        hosted
    }

    /// Closes the partition around `sid` and runs the anti-entropy
    /// reconciliation pass: the divergence log is replayed delta-exactly
    /// against the frozen snapshot, lifecycle maps are re-keyed, parked
    /// distress state returns, the placement index is repaired, and the
    /// caller gets back which VMs died unobserved (high-priority ones
    /// are relaunch candidates). Returns `None` when the server is
    /// unknown. Healing a server that is not partitioned means the
    /// fault schedule is buggy: debug builds panic, release builds
    /// count `cluster.fault_noops` and carry on.
    pub fn heal_server(&mut self, now: SimTime, sid: ServerId) -> Option<ReconcileOutcome> {
        let si = self.server_index(sid)?;
        debug_assert!(!self.mgr_down, "heal_server while the manager is down");
        if self.reach[si] != Reachability::Partitioned {
            self.fault_noop(format_args!("heal_server: {sid} is not partitioned"));
            return None;
        }
        let session = self
            .partitions
            .remove(&si)
            .expect("partitioned server has a session");
        self.reconnect(si);
        let (frozen, since) = (session.frozen, session.since);
        let out = self.absorb_session(now, si, session);
        // Settle the whole partition window in one delta-exact step and
        // repair the placement index.
        let live = self.servers[si].aggregates();
        self.apply_delta(&frozen, &live);
        self.refresh_index(si);
        let m = &mut self.obs.metrics;
        m.incr("cluster.partition_heals");
        m.add("cluster.partition_divergence", out.divergence as u64);
        m.observe("partition.window_s", (now - since).as_secs_f64());
        if self.cfg.lifecycle_trace {
            self.obs.trace.record_with(|| ClusterRecord::PartitionHeal {
                at: now,
                server: sid,
                divergence: out.divergence,
            });
        }
        self.obs
            .trace
            .record_with(|| ClusterRecord::PartitionHealSpan {
                at: now,
                server: sid,
                divergence: out.divergence,
                exited: out.exited.len(),
                oom_killed: out.oom_killed.len(),
                lost_high: out.lost_high.len(),
                lost_low: out.lost_low.len(),
            });
        self.update_gauges(now);
        Some(out)
    }

    /// The control plane reaches server `si` again and finds it up or
    /// down.
    fn reconnect(&mut self, si: usize) {
        self.servers[si].set_connected(true);
        self.reach[si] = if self.servers[si].is_up() {
            Reachability::Up
        } else {
            Reachability::Down
        };
    }

    /// Absorbs one server's inventory report after an unobserved window:
    /// classifies every frozen VM's fate from the divergence log,
    /// replays the counters the manager missed, restores surviving VMs'
    /// index entries and parked distress / agent-liveness state, and
    /// drops tracking for the dead. Shared by the heal path (which then
    /// settles the frozen→live aggregate delta) and the manager-recovery
    /// scan (which rebuilds the totals from zero instead). Touches
    /// neither the cluster totals nor the placement index.
    fn absorb_session(
        &mut self,
        now: SimTime,
        si: usize,
        session: PartitionSession,
    ) -> ReconcileOutcome {
        let replay = session.log.replay_summary();
        let mut frozen_ids: Vec<VmId> = session.vms.iter().copied().collect();
        frozen_ids.sort_unstable_by_key(|v| v.0);
        let mut out = ReconcileOutcome {
            server: ServerId(si as u64),
            divergence: session.log.len(),
            exited: Vec::new(),
            oom_killed: Vec::new(),
            lost_high: Vec::new(),
            lost_low: Vec::new(),
            crashed: replay.crashed,
        };
        for id in frozen_ids {
            if self.servers[si].vm(id).is_some() {
                // Survivor: (re)index it and hand its parked state back
                // to the manager's maps (open breakers rejoin the
                // gauge). A heal re-inserts identical entries; the
                // recovery scan rebuilds them from scratch.
                self.index.insert(id, si);
                if let Some(st) = session.distress.get(&id) {
                    if st.open {
                        self.shift_open_breakers(now, true);
                    }
                    self.distress.insert(id, *st);
                }
                if let Some(n) = session.missed.get(&id) {
                    self.missed.insert(id, *n);
                }
                if session.unresponsive.contains(&id) {
                    self.unresponsive.insert(id);
                }
                continue;
            }
            // Gone: replay its departure against the lifecycle maps.
            self.drop_vm_tracking(now, id);
            if replay.exited.contains(&id) {
                out.exited.push(id);
            } else if replay.oom_killed.contains(&id) {
                out.oom_killed.push(id);
            } else if session.low.contains(&id) {
                out.lost_low.push(id);
            } else {
                out.lost_high.push(id);
            }
        }
        // Replay the counters the manager could not record live (a
        // zero add registers no key).
        let (killed, lost_low) = (out.oom_killed.len() as u64, out.lost_low.len() as u64);
        self.stats.oom_kills += killed;
        self.stats.emergency_reinflations += replay.emergency;
        let m = &mut self.obs.metrics;
        m.add("cluster.exits", out.exited.len() as u64);
        m.add("cluster.oom_kills", killed);
        m.add("cluster.emergency_reinflations", replay.emergency);
        m.add("cluster.breaker_trips", replay.trips);
        m.add("distress.breaker_closed", replay.closes);
        if replay.crashed {
            self.stats.server_crashes += 1;
            self.stats.preempted += lost_low;
            m.incr("cluster.server_crashes");
            m.incr("fault.injected.server_crash");
            m.add("cluster.preempted", lost_low);
        }
        m.add("cluster.server_recoveries", replay.restarts);
        out
    }

    /// Whether the manager itself is crashed (every server autonomous,
    /// placement suspended, arrivals parked by the caller).
    pub fn manager_down(&self) -> bool {
        self.mgr_down
    }

    /// The manager process crashes: every reachable server loses its
    /// control plane at once, which is semantically "all servers
    /// partitioned simultaneously" — each one's view freezes, its
    /// distress state parks with the local controller, and every
    /// in-flight migration is torn down through the partition-entry
    /// abort paths (the manager that commanded them is gone). The
    /// manager-side agent-liveness maps (`missed`, `unresponsive`) die
    /// with the process and are parked in the per-server sessions: that
    /// state belongs to the server-side agents, and the restarted
    /// manager re-learns it from the inventory scan. Crashing an
    /// already-down manager means the fault schedule is buggy: debug
    /// builds panic, release builds count `cluster.fault_noops`.
    pub fn crash_manager(&mut self, now: SimTime) -> bool {
        if self.mgr_down {
            self.fault_noop(format_args!("crash_manager: manager is already down"));
            return false;
        }
        let mut isolated = 0usize;
        for si in 0..self.servers.len() {
            if self.reach[si] == Reachability::Up && self.servers[si].is_up() {
                self.isolate_server(now, si);
                isolated += 1;
            }
        }
        // Park the dying manager's agent-liveness maps with each VM's
        // hosting session. Every entry references a hosted VM, and
        // every hosting server is now partitioned (already-partitioned
        // servers keep carrying their own parked copies as empty maps —
        // the manager retained those across plain network windows).
        for (id, n) in std::mem::take(&mut self.missed) {
            let sess = self.partitions.get_mut(&self.index[&id]);
            sess.expect("hosting server is isolated")
                .missed
                .insert(id, n);
        }
        for id in std::mem::take(&mut self.unresponsive) {
            let sess = self.partitions.get_mut(&self.index[&id]);
            sess.expect("hosting server is isolated")
                .unresponsive
                .insert(id);
        }
        self.mgr_down = true;
        self.mgr_down_since = now;
        self.stats.manager_crashes += 1;
        self.obs.metrics.incr("fault.manager_crashes");
        if self.cfg.lifecycle_trace {
            self.obs
                .trace
                .record_with(|| ClusterRecord::ManagerCrash { at: now, isolated });
        }
        self.obs
            .trace
            .record_with(|| ClusterRecord::ManagerCrashSpan { at: now, isolated });
        self.update_gauges(now);
        true
    }

    /// A crashed server reboots while the manager itself is down: it
    /// comes back up but finds no control plane, so it rejoins as
    /// *partitioned* (fresh empty session) and the recovery scan
    /// absorbs it with everyone else. Keeps the manager-down invariant
    /// that no server is reachable.
    pub fn recover_server_isolated(&mut self, now: SimTime, sid: ServerId) -> bool {
        let Some(si) = self.server_index(sid) else {
            return false;
        };
        debug_assert!(
            self.mgr_down,
            "recover_server_isolated: manager is running (use recover_server)"
        );
        if self.reach[si] != Reachability::Down || self.servers[si].is_up() {
            self.fault_noop(format_args!(
                "recover_server_isolated: {sid} is not cleanly down"
            ));
            return false;
        }
        self.restart(now, si, &mut Sink::Live);
        self.isolate_server(now, si);
        if self.cfg.lifecycle_trace {
            self.obs
                .trace
                .record_with(|| ClusterRecord::ServerUpIsolated {
                    at: now,
                    server: sid,
                });
        }
        self.update_gauges(now);
        true
    }

    /// The manager restarts and rebuilds its entire state by an
    /// **inventory scan** — no persisted snapshot. Every derived table
    /// (VM index, cluster totals, distress/breaker state, agent
    /// liveness, placement index) is reconstructed from per-server
    /// reports: live hosted VMs and aggregates straight off each
    /// server, divergence logs replayed in order for the counters the
    /// manager missed, parked lifecycle state handed back for
    /// survivors. Servers in `still_unreachable` (an open *network*
    /// partition outlives the manager crash) cannot answer the scan:
    /// the manager conservatively carries their last cached report (the
    /// frozen session) until their own heal. Returns one
    /// [`ReconcileOutcome`] per scanned server so the caller can decide
    /// relaunches, exactly as after `heal_server`.
    pub fn recover_manager(
        &mut self,
        now: SimTime,
        still_unreachable: &[ServerId],
    ) -> Vec<ReconcileOutcome> {
        if !self.mgr_down {
            self.fault_noop(format_args!("recover_manager: manager is not down"));
            return Vec::new();
        }
        self.mgr_down = false;
        let skip: HashSet<usize, SeqHash> =
            still_unreachable.iter().map(|s| s.0 as usize).collect();
        // Nothing below survived the crash in manager memory: the
        // ledgers were torn down or parked at crash time, and the
        // derived tables are dropped here before the scan re-derives
        // them from server ground truth.
        debug_assert!(self.migrations.is_empty());
        debug_assert!(self.distress.is_empty());
        debug_assert!(self.missed.is_empty());
        debug_assert!(self.unresponsive.is_empty());
        debug_assert_eq!(self.breaker_open_now, 0);
        self.index.clear();
        self.totals.agg = ServerAggregates::default();
        let mut outs = Vec::new();
        let mut divergence = 0u64;
        let mut scanned = 0u64;
        for si in 0..self.servers.len() {
            if skip.contains(&si) {
                if let Some(sess) = self.partitions.get(&si) {
                    // Still unreachable: carry the last cached report.
                    for id in sess.vms.iter() {
                        self.index.insert(*id, si);
                    }
                    let frozen = sess.frozen;
                    self.totals
                        .agg
                        .shift_by(&ServerAggregates::default(), &frozen);
                } else {
                    // Crashed behind a still-open network window:
                    // nothing to carry; it rejoins via recover_server.
                    debug_assert_eq!(self.reach[si], Reachability::Down);
                }
                continue;
            }
            scanned += 1;
            if let Some(session) = self.partitions.remove(&si) {
                self.reconnect(si);
                divergence += session.log.len() as u64;
                outs.push(self.absorb_session(now, si, session));
            } else {
                // Crashed while still reachable, before the manager
                // died: the server reports itself empty.
                debug_assert_eq!(self.reach[si], Reachability::Down);
            }
            let live = self.servers[si].aggregates();
            self.totals
                .agg
                .shift_by(&ServerAggregates::default(), &live);
        }
        // The placement index is derived state too: rebuild wholesale
        // from the scanned servers.
        self.pindex = PlacementIndex::new(&self.servers);
        let m = &mut self.obs.metrics;
        m.incr("cluster.recovery_scans");
        m.add("cluster.recovery_inventory_servers", scanned);
        m.add("cluster.recovery_divergence", divergence);
        m.observe(
            "failover.downtime_s",
            (now - self.mgr_down_since).as_secs_f64(),
        );
        if self.cfg.lifecycle_trace {
            self.obs
                .trace
                .record_with(|| ClusterRecord::ManagerRecover {
                    at: now,
                    scanned,
                    divergence,
                });
        }
        self.obs
            .trace
            .record_with(|| ClusterRecord::ManagerRecoverSpan {
                at: now,
                scanned,
                divergence,
            });
        self.update_gauges(now);
        outs
    }

    /// Takes the parked session of partitioned server `sid` for one
    /// local-controller step; the caller puts it back. `None` for an
    /// unknown server, and for a reachable one, which has no session:
    /// calling a local step on it is a counted fault no-op.
    fn local_session(&mut self, sid: ServerId, what: &str) -> Option<(usize, PartitionSession)> {
        let si = self.server_index(sid)?;
        let Some(session) = self.partitions.remove(&si) else {
            self.fault_noop(format_args!("{what}: {sid} is reachable"));
            return None;
        };
        Some((si, session))
    }

    /// A VM's natural exit on a partitioned server, handled by the
    /// local controller: the VM leaves, survivors reinflate from its
    /// allocation, and the divergence log records it. No manager
    /// counters move — the heal-time replay settles those. Returns
    /// `false` when the VM is unknown or already dead locally (OOM-killed
    /// or crashed behind this same partition), or its server is
    /// reachable (a counted fault no-op).
    pub fn autonomous_exit(&mut self, now: SimTime, id: VmId) -> bool {
        let Some(sid) = self.server_of(id) else {
            return false;
        };
        let Some((si, mut session)) = self.local_session(sid, "autonomous_exit") else {
            return false;
        };
        let departed = self.depart(now, si, id, Departure::Exit, &mut Sink::Local(&mut session));
        if departed {
            self.refresh_index(si);
        }
        self.partitions.insert(si, session);
        departed
    }

    /// A physical crash behind a partition: every hosted VM dies
    /// unobserved, recorded only in the divergence log. Returns the
    /// lost VMs in id order (the simulator keeps them in limbo until
    /// the heal decides relaunches). A no-op when the server is already
    /// down, or reachable (a counted fault no-op).
    pub fn autonomous_crash(&mut self, now: SimTime, sid: ServerId) -> Vec<VmId> {
        let Some((si, mut session)) = self.local_session(sid, "autonomous_crash") else {
            return Vec::new();
        };
        let mut lost = Vec::new();
        if self.servers[si].is_up() {
            let f = self.crash(now, si, &mut Sink::Local(&mut session));
            self.refresh_index(si);
            session.log.push(DivergenceEvent::Crashed { at: now });
            lost = [f.lost_high, f.lost_low].concat();
            lost.sort_unstable_by_key(|v| v.0);
        }
        self.partitions.insert(si, session);
        lost
    }

    /// A reboot behind a partition: the server comes back up empty and
    /// still unreachable. A no-op when already up, or reachable (a
    /// counted fault no-op).
    pub fn autonomous_restart(&mut self, now: SimTime, sid: ServerId) -> bool {
        let Some((si, mut session)) = self.local_session(sid, "autonomous_restart") else {
            return false;
        };
        let down = !self.servers[si].is_up();
        if down {
            self.restart(now, si, &mut Sink::Local(&mut session));
        }
        self.partitions.insert(si, session);
        down
    }

    /// One autonomous distress-sampling round on a partitioned server:
    /// the [`sample_distress`](Self::sample_distress) step run through
    /// the local sink — parked distress entries advance in the session,
    /// every action lands in the divergence log, no manager counters
    /// move, and there is no migration escalation. Returns the kills
    /// and slowdowns for the simulator's physical model to act on.
    pub fn autonomous_sample(&mut self, now: SimTime, sid: ServerId) -> Vec<DistressEvent> {
        let mut events = Vec::new();
        let Some(si) = self.server_index(sid) else {
            return events;
        };
        if self.cfg.distress.is_none() {
            return events;
        }
        let Some(mut session) = self.partitions.remove(&si) else {
            return events;
        };
        if self.servers[si].is_up() {
            let mut sink = Sink::Local(&mut session);
            let mut ids = std::mem::take(&mut self.scratch_ids);
            ids.clear();
            self.servers[si].low_priority_ids_into(&mut ids);
            for &id in &ids {
                self.sample_vm(now, si, id, &mut sink, &mut events);
            }
            self.scratch_ids = ids;
            self.refresh_index(si);
        }
        self.partitions.insert(si, session);
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{SimDuration, Span};

    /// Reachable-server entries into the shared local-controller
    /// bodies, for tests that drive one step directly.
    impl ClusterManager {
        fn oom_kill(&mut self, now: SimTime, id: VmId) -> ServerId {
            let si = self.index[&id];
            assert!(self.depart(now, si, id, Departure::OomKill, &mut Sink::Live));
            ServerId(si as u64)
        }

        fn emergency_reinflate(&mut self, now: SimTime, si: usize, victim: VmId) {
            self.emergency_grant(now, si, victim, &mut Sink::Live);
        }

        /// The full scan the event-driven sampler replaces: every
        /// low-priority guest on a reachable server, in VM order. The
        /// differential tests run it on a twin manager as the oracle.
        fn sample_distress_scan(&mut self, now: SimTime) -> Vec<DistressEvent> {
            let d = self.cfg.distress;
            if d.is_none() {
                return Vec::new();
            }
            let mut vms: Vec<(u64, usize)> = self
                .index
                .iter()
                .filter(|(id, si)| {
                    !self.partitions.contains_key(*si)
                        && self.servers[**si]
                            .vm(**id)
                            .is_some_and(|v| v.priority() == VmPriority::Low)
                })
                .map(|(id, si)| (id.0, *si))
                .collect();
            vms.sort_unstable();
            let mut events = Vec::new();
            let mut distressed = 0u64;
            for &(raw, si) in &vms {
                let sampled = self.sample_vm(now, si, VmId(raw), &mut Sink::Live, &mut events);
                distressed += u64::from(sampled.distressed);
            }
            let secs = |n: u64| (n as f64 * d.sample_interval.as_secs_f64()) as u64;
            let m = &mut self.obs.metrics;
            m.add("distress.lowpri_sample_seconds", secs(vms.len() as u64));
            m.add("cluster.distress_seconds", secs(distressed));
            self.update_gauges(now);
            events
        }

        /// Every non-default distress state, the manager's and the
        /// parked ones, in VM order.
        fn distress_states(&self) -> Vec<(u64, VmDistress)> {
            let parked = self.partitions.values().flat_map(|s| s.distress.iter());
            let mut states: Vec<(u64, VmDistress)> = self
                .distress
                .iter()
                .chain(parked)
                .filter(|(_, st)| **st != VmDistress::default())
                .map(|(id, st)| (id.0, *st))
                .collect();
            states.sort_unstable_by_key(|(id, _)| *id);
            states
        }

        /// Every hosted VM's effective allocation, in server then VM
        /// order.
        fn allocations(&self) -> Vec<(u64, ResourceVector)> {
            self.servers
                .iter()
                .flat_map(|s| s.vms())
                .map(|vm| (vm.id().0, vm.effective()))
                .collect()
        }
    }

    fn small_cfg(deflation: bool) -> ClusterManagerConfig {
        ClusterManagerConfig {
            n_servers: 2,
            server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
            deflation_enabled: deflation,
            ..ClusterManagerConfig::default()
        }
    }

    fn req(id: u64, low: bool) -> VmRequest {
        let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
        VmRequest {
            id: VmId(id),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec,
            type_name: "test",
            low_priority: low,
            min_size: if low {
                spec.scale(0.3)
            } else {
                ResourceVector::ZERO
            },
        }
    }

    #[test]
    fn audits_sample_queries_and_count_only_divergences() {
        let mut m = ClusterManager::new(small_cfg(true));
        let audited = (0..2 * AUDIT_EVERY).filter(|_| m.audited()).count() as u64;
        let expect = if cfg!(debug_assertions) {
            2 * AUDIT_EVERY
        } else {
            2
        };
        assert_eq!(audited, expect);
        m.audit(Some(1), Some(1), "naive scan");
        m.audit(None, None, "naive destination scan");
        assert!(!m
            .observability()
            .metrics
            .keys()
            .contains(&"cluster.audit_violations".to_string()));
        // A divergence panics in debug builds and is counted in release.
        if !cfg!(debug_assertions) {
            m.audit(Some(0), Some(1), "naive scan");
            assert_eq!(
                m.observability().metrics.count("cluster.audit_violations"),
                1
            );
        }
    }

    #[test]
    fn places_until_full_then_deflates() {
        let mut m = ClusterManager::new(small_cfg(true));
        // 4 VMs fill both servers exactly.
        for i in 0..4 {
            let out = m.launch(SimTime::ZERO, &req(i, true));
            assert!(matches!(out, LaunchOutcome::Placed { .. }));
        }
        assert_eq!(m.running_vms(), 4);
        assert!((m.utilization() - 1.0).abs() < 1e-9);
        assert_eq!(m.overcommitment(), 0.0);

        // A 5th VM forces deflation but no preemption.
        let out = m.launch(SimTime::ZERO, &req(4, true));
        match out {
            LaunchOutcome::Placed { preempted, .. } => assert!(preempted.is_empty()),
            LaunchOutcome::Rejected => panic!("should deflate, not reject"),
        }
        assert_eq!(m.running_vms(), 5);
        assert!(m.overcommitment() > 0.0);
        assert!(m.stats().deflations > 0);
    }

    #[test]
    fn preemption_only_mode_preempts_instead() {
        let mut m = ClusterManager::new(small_cfg(false));
        for i in 0..4 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        let out = m.launch(SimTime::ZERO, &req(4, true));
        match out {
            LaunchOutcome::Placed { preempted, .. } => {
                assert!(!preempted.is_empty(), "preemption-only must preempt")
            }
            LaunchOutcome::Rejected => panic!("should place after preempting"),
        }
        assert!(m.stats().preempted > 0);
        // The preempted VM no longer runs.
        assert_eq!(m.running_vms(), 4);
    }

    #[test]
    fn high_priority_is_never_preempted() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..4 {
            m.launch(SimTime::ZERO, &req(i, false));
        }
        // Cluster is full of high-priority VMs; another must be rejected.
        let out = m.launch(SimTime::ZERO, &req(4, false));
        assert_eq!(out, LaunchOutcome::Rejected);
        assert_eq!(m.stats().rejected, 1);
        assert_eq!(m.running_vms(), 4);
    }

    #[test]
    fn exit_reinflates_deflated_vms() {
        let mut m = ClusterManager::new(ClusterManagerConfig {
            n_servers: 1,
            server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
            ..ClusterManagerConfig::default()
        });
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        // Third VM deflates the first two.
        m.launch(SimTime::ZERO, &req(2, true));
        let deflated: f64 = m.servers()[0]
            .vms()
            .map(|vm| vm.max_deflation())
            .fold(0.0, f64::max);
        assert!(deflated > 0.0);

        // One exits; the others reinflate.
        assert!(m.exit(SimTime::from_secs(60), VmId(2)).is_some());
        let still: f64 = m.servers()[0]
            .vms()
            .map(|vm| vm.max_deflation())
            .fold(0.0, f64::max);
        assert!(still < deflated, "reinflation should reduce deflation");
        assert!(m.stats().reinflations > 0);
    }

    #[test]
    fn heterogeneous_pool_alternates_capacities() {
        let m = ClusterManager::new(ClusterManagerConfig {
            n_servers: 4,
            capacity_skew: 0.5,
            ..small_cfg(true)
        });
        let caps: Vec<f64> = m
            .servers()
            .iter()
            .map(|s| s.capacity().get(ResourceKind::Cpu))
            .collect();
        assert_eq!(caps, vec![12.0, 4.0, 12.0, 4.0]);
        // Total capacity is preserved versus the homogeneous pool.
        let hom = ClusterManager::new(ClusterManagerConfig {
            n_servers: 4,
            ..small_cfg(true)
        });
        assert!(m.total_capacity().approx_eq(&hom.total_capacity(), 1e-9));
        // Big VMs only fit the big servers.
        let mut m = m;
        for i in 0..3 {
            let out = m.launch(SimTime::ZERO, &req(i, true));
            assert!(matches!(out, LaunchOutcome::Placed { .. }), "vm {i}");
        }
        // Best-fit prefers the roomier (big) servers; the small ones
        // stay empty while big-server headroom lasts.
        for (i, s) in m.servers().iter().enumerate() {
            if i % 2 == 1 {
                assert_eq!(s.vm_count(), 0, "server {i}");
            }
        }
    }

    #[test]
    fn lifecycle_trace_records_events() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        m.exit(SimTime::from_secs(60), VmId(0));
        let log = m.log();
        assert_eq!(log.count("launch"), 5);
        assert!(log.count("deflate") > 0, "5th VM forces deflation");
        assert_eq!(log.count("exit"), 1);
        assert!(log.count("reinflate") > 0, "exit frees resources");
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn manager_emits_spans_and_metrics() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        m.exit(SimTime::from_secs(60), VmId(0));

        // The 5th launch forced deflation, which records a structured
        // make_room span with cascade.deflate children.
        let obs = m.observability();
        let rooms: Vec<Span> = obs.trace.spans_by_kind("server.make_room").collect();
        assert!(!rooms.is_empty(), "deflation should record a span");
        let room = &rooms[0];
        assert!(room.children.iter().any(|c| c.kind == "cascade.deflate"));

        // Counters mirror ClusterStats.
        let stats = m.stats();
        let obs = m.observability();
        assert_eq!(obs.metrics.count("cluster.launched"), stats.launched);
        assert_eq!(obs.metrics.count("cluster.deflations"), stats.deflations);
        assert_eq!(obs.metrics.count("cluster.exits"), 1);
        assert_eq!(
            obs.metrics.count("cluster.reinflations"),
            stats.reinflations
        );
        // Hotplug counters were folded in on exit (VM_LEVEL cascade does
        // not unplug, so attempts may be zero — the key need not exist).
        assert!(obs.metrics.histogram("cascade.latency_s").is_some());
    }

    #[test]
    fn run_summary_is_machine_readable() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        let doc = m.run_summary(SimTime::from_secs(100), "unit");
        assert_eq!(doc.get("run").and_then(|v| v.as_str()), Some("unit"));
        assert_eq!(
            doc.get("counters")
                .and_then(|c| c.get("cluster.launched"))
                .and_then(|v| v.as_f64()),
            Some(5.0)
        );
        assert!(doc
            .get("gauges")
            .and_then(|g| g.get("cluster.utilization"))
            .is_some());
        let text = doc.to_pretty();
        assert!(simkit::JsonValue::parse(&text).is_ok());
    }

    #[test]
    fn exit_of_preempted_vm_is_noop() {
        let mut m = ClusterManager::new(small_cfg(false));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        assert!(m.stats().preempted > 0);
        // Find a preempted id: one of 0..5 is not running.
        let gone: Vec<u64> = (0..5).filter(|i| !m.is_running(VmId(*i))).collect();
        assert!(!gone.is_empty());
        assert!(m.exit(SimTime::from_secs(1), VmId(gone[0])).is_none());
    }

    #[test]
    fn exit_reports_hosting_server() {
        let mut m = ClusterManager::new(small_cfg(true));
        let out = m.launch(SimTime::ZERO, &req(0, true));
        let LaunchOutcome::Placed { server, .. } = out else {
            panic!("empty cluster must place");
        };
        assert_eq!(m.exit(SimTime::from_secs(1), VmId(0)), Some(server));
        // A second exit of the same VM is a no-op.
        assert_eq!(m.exit(SimTime::from_secs(2), VmId(0)), None);
        m.assert_consistent();
    }

    #[test]
    fn rejected_launch_is_state_neutral() {
        let mut m = ClusterManager::new(small_cfg(true));
        // Fill the cluster with high-priority VMs (untouchable).
        for i in 0..4 {
            let out = m.launch(SimTime::ZERO, &req(i, false));
            assert!(matches!(out, LaunchOutcome::Placed { .. }));
        }
        let util = m.utilization();
        let over = m.overcommitment();
        let aggs: Vec<_> = m.servers().iter().map(|s| s.aggregates()).collect();

        let out = m.launch(SimTime::ZERO, &req(4, false));
        assert_eq!(out, LaunchOutcome::Rejected);

        // The reject left every server — and the cluster totals — as
        // they were.
        assert_eq!(m.running_vms(), 4);
        assert_eq!(m.utilization(), util);
        assert_eq!(m.overcommitment(), over);
        for (s, before) in m.servers().iter().zip(&aggs) {
            assert!(s.aggregates().approx_eq(before));
        }
        m.assert_consistent();
    }

    #[test]
    fn server_crash_is_exact_and_recoverable() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..4 {
            m.launch(SimTime::ZERO, &req(i, i % 2 == 0));
        }
        let running_before = m.running_vms();
        let f = m
            .fail_server(SimTime::from_secs(10), ServerId(0))
            .expect("server 0 is up");
        assert_eq!(f.server, ServerId(0));
        let lost = f.lost_high.len() + f.lost_low.len();
        assert!(lost > 0, "server 0 hosted something");
        assert_eq!(m.running_vms(), running_before - lost);
        assert!(!m.servers()[0].is_up());
        assert_eq!(m.servers()[0].vm_count(), 0);
        for id in f.lost_high.iter().chain(&f.lost_low) {
            assert!(!m.is_running(*id));
        }
        assert_eq!(m.stats().server_crashes, 1);
        assert_eq!(m.stats().preempted, f.lost_low.len() as u64);
        m.assert_consistent();

        // While down, the server takes no placements. (Double-fail and
        // recover-of-up are exercised by the idempotency tests below.)
        let out = m.launch(SimTime::from_secs(12), &req(90, true));
        if let LaunchOutcome::Placed { server, .. } = out {
            assert_ne!(server, ServerId(0), "down server must not place");
        }

        assert!(m.recover_server(SimTime::from_secs(20), ServerId(0)));
        assert!(m.servers()[0].is_up());
        m.assert_consistent();
        // Recovered server hosts again.
        let out = m.launch(SimTime::from_secs(30), &req(91, true));
        assert!(matches!(out, LaunchOutcome::Placed { .. }));
    }

    #[test]
    fn dead_agents_escalate_to_hypervisor_only() {
        use simkit::SimDuration;
        let mut cfg = ClusterManagerConfig {
            n_servers: 1,
            server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
            cascade: CascadeConfig::FULL.with_deadline(SimDuration::from_secs(5)),
            unresponsive_after: 3,
            ..ClusterManagerConfig::default()
        };
        // Agents crash fast and never come back within the run.
        cfg.faults = FaultPlan {
            seed: 11,
            agent_crash_rate_per_hour: 1_000.0,
            agent_restart: SimDuration::from_hours(1_000),
            ..FaultPlan::none()
        };
        let mut m = ClusterManager::new(cfg);
        // Two low-priority VMs fill the server.
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));

        // Each high-priority launch forces a cascade round against both
        // agents; each exit reinflates so the next round deflates again.
        for round in 0..5u64 {
            let t = SimTime::from_secs(1_000 * (round + 1));
            let out = m.launch(t, &req(100 + round, false));
            assert!(matches!(out, LaunchOutcome::Placed { .. }), "round {round}");
            m.exit(t + SimDuration::from_secs(10), VmId(100 + round));
            m.assert_consistent();
        }

        let stats = m.stats();
        assert_eq!(
            stats.unresponsive_vms, 2,
            "both dead agents escalate exactly once"
        );
        let obs = m.observability();
        assert_eq!(obs.metrics.count("cluster.unresponsive_vms"), 2);
        assert!(obs.metrics.count("fault.injected.agent_down") >= 6);
        assert!(obs.trace.count("unresponsive") == 2);
        // The escalation is visible as a structured span.
        assert_eq!(
            obs.trace
                .spans_by_kind("cluster.agent_unresponsive")
                .count(),
            2
        );
    }

    #[test]
    fn fault_free_run_registers_no_fault_keys() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        m.exit(SimTime::from_secs(60), VmId(0));
        let doc = m.run_summary(SimTime::from_secs(100), "unit");
        let text = doc.to_string();
        assert!(
            !text.contains("fault."),
            "fault path must be opt-in: {text}"
        );
        assert!(!text.contains("cluster.unresponsive_vms"));
        assert!(!text.contains("cluster.server_crashes"));
        assert!(!text.contains("cascade.retries"));
    }

    #[test]
    fn distress_disabled_run_registers_no_distress_keys() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        // Sampling a disabled loop is a no-op and draws nothing.
        assert!(m.sample_distress(SimTime::from_secs(60)).is_empty());
        m.exit(SimTime::from_secs(120), VmId(0));
        let doc = m.run_summary(SimTime::from_secs(200), "unit");
        let text = doc.to_string();
        assert!(
            !text.contains("distress."),
            "distress path must be opt-in: {text}"
        );
        assert!(!text.contains("cluster.oom_kills"));
        assert!(!text.contains("cluster.emergency_reinflations"));
        assert!(!text.contains("cluster.breaker_open_vms"));
        assert!(!text.contains("cluster.distress_seconds"));
    }

    /// Drives one low-priority VM into hard distress (OOM) by deflating
    /// it below its resident set through the manager's own bookkeeping.
    fn force_oom(m: &mut ClusterManager, id: VmId, mem: f64) {
        let before = m.servers[0].aggregates();
        let cascade = m.cascade;
        let _ = m.servers[0]
            .deflate_vm(SimTime::ZERO, id, &ResourceVector::memory(mem), &cascade)
            .expect("VM is hosted");
        m.settle(0, &before);
    }

    fn distress_cfg(d: crate::distress::DistressConfig) -> ClusterManagerConfig {
        ClusterManagerConfig {
            n_servers: 1,
            server_capacity: ResourceVector::new(8.0, 32_768.0, 200.0, 400.0),
            distress: d,
            ..ClusterManagerConfig::default()
        }
    }

    #[test]
    fn sustained_hard_distress_fires_the_oom_killer() {
        let mut d = crate::distress::DistressConfig::unguarded();
        d.floor_fraction = 0.0; // no floor: deflation may cut freely
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        // Cut VM 0 well below its 8192 MiB resident set.
        force_oom(&mut m, VmId(0), 9_000.0);
        assert!(m.servers()[0].vm(VmId(0)).unwrap().state().is_oom());

        // The grace clock starts at the first sample (60 s); the 180 s
        // window expires at the 240 s sample.
        for s in 1..=4u64 {
            let evs = m.sample_distress(SimTime::from_secs(60 * s));
            if s < 4 {
                assert!(evs.is_empty(), "sample {s} must not kill yet");
                assert!(m.is_running(VmId(0)));
            } else {
                assert_eq!(evs.len(), 1);
                assert!(matches!(
                    evs[0],
                    DistressEvent::OomKill {
                        vm: VmId(0),
                        server: ServerId(0)
                    }
                ));
            }
        }
        assert!(!m.is_running(VmId(0)));
        assert_eq!(m.stats().oom_kills, 1);
        let obs = m.observability();
        assert_eq!(obs.metrics.count("cluster.oom_kills"), 1);
        assert!(obs.metrics.count("cluster.distress_seconds") >= 180);
        assert!(obs.metrics.count("distress.lowpri_sample_seconds") > 0);
        assert_eq!(obs.trace.spans_by_kind("cluster.guest_oom_kill").count(), 1);
        m.assert_consistent();
    }

    #[test]
    fn emergency_reinflation_rescues_before_the_grace_window() {
        let d = crate::distress::DistressConfig::guarded();
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        force_oom(&mut m, VmId(0), 9_000.0);
        // Soak up the freed memory so the rescue must tap donor VM 1.
        let spec = ResourceVector::new(0.0, 9_000.0, 0.0, 0.0);
        let hi = VmRequest {
            id: VmId(9),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec,
            type_name: "hog",
            low_priority: false,
            min_size: ResourceVector::ZERO,
        };
        assert!(matches!(
            m.launch(SimTime::ZERO, &hi),
            LaunchOutcome::Placed { .. }
        ));
        assert!(m.servers()[0].vm(VmId(0)).unwrap().state().is_oom());

        // One guarded sample rescues: no kill, OOM cleared, donor intact.
        let evs = m.sample_distress(SimTime::from_secs(60));
        assert!(evs.is_empty(), "rescued, not killed or slowed: {evs:?}");
        let vm0 = m.servers()[0].vm(VmId(0)).unwrap();
        assert!(!vm0.state().is_oom());
        let vm1 = m.servers()[0].vm(VmId(1)).unwrap();
        let donor_eff = vm1.effective().get(ResourceKind::Memory);
        let donor_usage = vm1.state().usage.memory_mb;
        assert!(
            donor_eff >= donor_usage - 1.0,
            "donor squeezed below its own resident set: {donor_eff} < {donor_usage}"
        );
        assert!(m.stats().emergency_reinflations >= 1);
        assert!(
            m.observability()
                .metrics
                .count("cluster.emergency_reinflations")
                >= 1
        );
        // Survive every later sample: nothing ever dies.
        for s in 2..=6u64 {
            assert!(m.sample_distress(SimTime::from_secs(60 * s)).is_empty());
        }
        assert_eq!(m.stats().oom_kills, 0);
        m.assert_consistent();
    }

    #[test]
    fn breaker_opens_after_consecutive_distress_and_shields_memory() {
        let mut d = crate::distress::DistressConfig::unguarded();
        d.breaker_after = 2;
        d.breaker_cooldown = 2;
        d.grace_window = SimDuration::from_hours(10); // never kill here
        d.floor_fraction = 0.0;
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        force_oom(&mut m, VmId(0), 9_000.0);

        m.sample_distress(SimTime::from_secs(60));
        assert!(!m.breaker_open(VmId(0)), "one sample is not enough");
        m.sample_distress(SimTime::from_secs(120));
        assert!(m.breaker_open(VmId(0)), "two consecutive samples trip it");
        assert_eq!(m.observability().metrics.count("cluster.breaker_trips"), 1);

        // A reclamation round must not squeeze the breaker-open VM: the
        // demand routes to VM 1 (9000 MiB are free, the rest comes from
        // the donor).
        let eff0_before = m.servers()[0]
            .vm(VmId(0))
            .unwrap()
            .effective()
            .get(ResourceKind::Memory);
        let hi = VmRequest {
            id: VmId(9),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec: ResourceVector::new(0.0, 12_000.0, 0.0, 0.0),
            type_name: "hog",
            low_priority: false,
            min_size: ResourceVector::ZERO,
        };
        assert!(matches!(
            m.launch(SimTime::from_secs(130), &hi),
            LaunchOutcome::Placed { preempted, .. } if preempted.is_empty()
        ));
        let eff0_after = m.servers()[0]
            .vm(VmId(0))
            .unwrap()
            .effective()
            .get(ResourceKind::Memory);
        assert!(
            eff0_after >= eff0_before - 1e-6,
            "breaker-open VM was deflated further: {eff0_before} -> {eff0_after}"
        );

        // Restore health; after the cool-down the breaker closes.
        let before = m.servers[0].aggregates();
        m.servers[0].reinflate_vm(
            SimTime::from_secs(140),
            VmId(0),
            &ResourceVector::memory(900.0),
        );
        m.settle(0, &before);
        assert!(!m.servers()[0].vm(VmId(0)).unwrap().state().is_oom());
        m.sample_distress(SimTime::from_secs(180));
        assert!(m.breaker_open(VmId(0)), "one healthy sample of two");
        m.sample_distress(SimTime::from_secs(240));
        assert!(
            !m.breaker_open(VmId(0)),
            "cool-down reached; breaker closes"
        );
        m.assert_consistent();
    }

    /// Regression: the OOM-kill path must clear the killed VM's
    /// distress/breaker entry. Before the fix only `sample_distress`
    /// removed it, so a direct kill leaked the entry — and a later VM
    /// reusing the id inherited a tripped breaker.
    #[test]
    fn oom_kill_clears_distress_state() {
        let d = crate::distress::DistressConfig::unguarded();
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        // Accumulated breaker/liveness state from earlier samples.
        m.distress.insert(VmId(0), Default::default());
        let server = m.oom_kill(SimTime::ZERO, VmId(0));
        assert_eq!(server.0, 0);
        assert!(
            !m.distress.contains_key(&VmId(0)),
            "OOM kill left stale distress/breaker state for a dead VM"
        );
        m.assert_consistent();
    }

    /// Regression: emergency donor harvesting must honor a donor's
    /// advisory working-set floor even when the cascade itself does not
    /// enforce floors (`working_set_floor: false`). Before the fix the
    /// give was capped at the contractual minimum only, so a rescue
    /// could push a healthy donor straight into the same distress.
    #[test]
    fn emergency_reinflate_honors_donor_floor() {
        let mut d = crate::distress::DistressConfig::unguarded();
        d.emergency_reinflate = true;
        d.working_set_floor = false;
        d.floor_fraction = 1.0; // floor == resident set at launch
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true)); // victim
        m.launch(SimTime::ZERO, &req(1, true)); // donor
        let floor = 16_384.0 * m.cfg.usage_fraction; // 8192 MiB
                                                     // The donor's resident set shrinks well below its floor: lots of
                                                     // donatable headroom by the usage rule, little by the floor.
        assert!(m.set_vm_usage(VmId(1), 1_000.0, 1.0));
        // The victim's resident set fills its spec; cutting it 9000 MiB
        // drives it deep into hard distress.
        assert!(m.set_vm_usage(VmId(0), 16_384.0, 2.0));
        force_oom(&mut m, VmId(0), 9_000.0);
        // Soak up most of the freed pool so the rescue must harvest.
        let soak = VmRequest {
            id: VmId(2),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec: ResourceVector::new(0.0, 8_500.0, 0.0, 0.0),
            type_name: "soak",
            low_priority: true,
            min_size: ResourceVector::new(0.0, 2_550.0, 0.0, 0.0),
        };
        assert!(matches!(
            m.launch(SimTime::ZERO, &soak),
            LaunchOutcome::Placed { .. }
        ));
        m.emergency_reinflate(SimTime::ZERO, 0, VmId(0));
        assert_eq!(m.stats().emergency_reinflations, 1, "rescue must run");
        let donor_eff = m.servers()[0]
            .vm(VmId(1))
            .unwrap()
            .effective()
            .get(ResourceKind::Memory);
        assert!(
            donor_eff >= floor - 1e-6,
            "donor harvested below its working-set floor: {donor_eff} < {floor}"
        );
        m.assert_consistent();
    }

    #[test]
    fn incremental_metrics_match_recomputation() {
        let mut m = ClusterManager::new(small_cfg(true));
        // Mixed workload: highs and lows, with deflation pressure.
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, i % 2 == 0));
        }
        m.exit(SimTime::from_secs(30), VmId(1));
        m.launch(SimTime::from_secs(60), &req(5, true));
        m.assert_consistent();

        // The O(1) per-priority CPU metrics agree with a walk over
        // every hosted VM.
        let mut high = 0.0;
        let mut low_spec = 0.0;
        let mut low_eff = 0.0;
        for vm in m.servers().iter().flat_map(|s| s.vms()) {
            match vm.priority() {
                VmPriority::High => high += vm.spec().get(ResourceKind::Cpu),
                VmPriority::Low => {
                    low_spec += vm.spec().get(ResourceKind::Cpu);
                    low_eff += vm.effective().get(ResourceKind::Cpu);
                }
            }
        }
        assert!((m.high_pri_cpu() - high).abs() < 1e-6);
        assert!((m.low_pri_spec_cpu() - low_spec).abs() < 1e-6);
        assert!((m.low_pri_effective_cpu() - low_eff).abs() < 1e-6);
    }

    fn migration_cfg() -> ClusterManagerConfig {
        ClusterManagerConfig {
            migration: crate::migration::MigrationPolicy::enabled(),
            ..small_cfg(true)
        }
    }

    #[test]
    fn migration_commits_and_lands_on_destination() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        assert!(matches!(
            m.launch(t, &req(0, true)),
            LaunchOutcome::Placed { .. }
        ));
        let src = *m.index.get(&VmId(0)).unwrap();
        let total = m.begin_migration(t, VmId(0)).expect("empty peer must fit");
        assert!(total > SimDuration::ZERO);
        assert!(m.migrations.contains_key(&VmId(0)));
        let dst = m.migrations[&VmId(0)].dst;
        assert_ne!(src, dst);
        assert!(
            !m.servers[dst].reserved().is_zero(),
            "destination must hold the reservation while copying"
        );
        // A second begin for the same VM is refused while one is in
        // flight.
        assert!(m.begin_migration(t, VmId(0)).is_none());
        m.assert_consistent();

        let landed = m.finish_migration(t + total, VmId(0)).expect("commit");
        assert_eq!(landed, ServerId(dst as u64));
        assert_eq!(*m.index.get(&VmId(0)).unwrap(), dst);
        assert!(m.servers[src].vm(VmId(0)).is_none());
        assert!(m.servers[dst].vm(VmId(0)).is_some());
        assert!(m.servers[dst].reserved().is_zero(), "hold converts to a VM");
        assert!(m.migrations.is_empty());
        assert_eq!(m.stats().migrations, 1);
        assert_eq!(m.observability().metrics.count("cluster.migrations"), 1);
        assert!(m.observability().metrics.count("cluster.migration_mb") > 0);
        m.assert_consistent();
    }

    #[test]
    fn destination_crash_mid_migration_clears_the_ledger() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        m.launch(t, &req(0, true));
        let total = m.begin_migration(t, VmId(0)).expect("reserve");
        let dst = m.migrations[&VmId(0)].dst;
        m.fail_server(t, ServerId(dst as u64)).expect("dst was up");
        assert!(
            m.migrations.is_empty(),
            "crash must clear in-flight entries touching the dead server"
        );
        assert!(m.servers[dst].reserved().is_zero());
        assert_eq!(
            m.observability()
                .metrics
                .count("cluster.migrations_aborted"),
            1
        );
        // The VM never left its source; the deferred completion is a
        // no-op.
        assert!(m.is_running(VmId(0)));
        assert!(m.finish_migration(t + total, VmId(0)).is_none());
        assert!(m.is_running(VmId(0)));
        m.assert_consistent();
    }

    #[test]
    fn source_crash_mid_migration_releases_the_destination_hold() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        m.launch(t, &req(0, true));
        let src = *m.index.get(&VmId(0)).unwrap();
        let total = m.begin_migration(t, VmId(0)).expect("reserve");
        let dst = m.migrations[&VmId(0)].dst;
        m.fail_server(t, ServerId(src as u64)).expect("src was up");
        // The VM died with its source; the destination hold must not
        // strand capacity.
        assert!(m.migrations.is_empty());
        assert!(!m.is_running(VmId(0)));
        assert!(
            m.servers[dst].reserved().is_zero(),
            "aborted migration must release its reservation"
        );
        assert_eq!(
            m.observability()
                .metrics
                .count("cluster.migrations_aborted"),
            1
        );
        assert!(m.finish_migration(t + total, VmId(0)).is_none());
        m.assert_consistent();
    }

    // ─────────────────────── partition tests ───────────────────────

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already partitioned")]
    fn double_partition_debug_panics() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.launch(SimTime::ZERO, &req(0, true));
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(0)));
        // The fault schedule never opens a second window over an open
        // one (windows are merged per server); doing so is a bug.
        m.partition_server(SimTime::from_secs(11), ServerId(0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "is not partitioned")]
    fn heal_of_unpartitioned_debug_panics() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.launch(SimTime::ZERO, &req(0, true));
        m.heal_server(SimTime::from_secs(10), ServerId(0));
    }

    #[test]
    fn partition_freezes_totals_and_excludes_placement() {
        let mut m = ClusterManager::new(small_cfg(true));
        // Two VMs land on server 0 (best-fit on an empty pool), then
        // partition it.
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        let si = *m.index.get(&VmId(0)).unwrap();
        let other = 1 - si;
        let util = m.utilization();
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(si as u64)));
        assert_eq!(
            m.reachability(ServerId(si as u64)),
            Reachability::Partitioned
        );
        assert!(m.is_partitioned(ServerId(si as u64)));
        assert_eq!(m.partitioned_servers(), vec![ServerId(si as u64)]);
        // Totals are frozen: nothing changed by the partition itself.
        assert_eq!(m.utilization(), util);
        assert_eq!(m.running_vms(), 2);
        m.assert_consistent();

        // New placements avoid the partitioned server.
        let out = m.launch(SimTime::from_secs(20), &req(2, true));
        match out {
            LaunchOutcome::Placed { server, .. } => assert_eq!(server, ServerId(other as u64)),
            LaunchOutcome::Rejected => panic!("the reachable server has room"),
        }

        // An autonomous exit mutates the server but NOT the manager's
        // frozen view: totals, index and counters hold still.
        let exits_before = m.observability().metrics.count("cluster.exits");
        assert!(m.autonomous_exit(SimTime::from_secs(30), VmId(0)));
        assert!(m.is_running(VmId(0)), "manager's index view is frozen");
        assert_eq!(
            m.observability().metrics.count("cluster.exits"),
            exits_before
        );
        assert_eq!(m.divergence_log(ServerId(si as u64)).unwrap().len(), 1);
        m.assert_consistent();

        // Heal: one delta-exact settle, the exit replays, the index
        // repairs, and the server hosts again.
        let out = m
            .heal_server(SimTime::from_secs(40), ServerId(si as u64))
            .expect("was partitioned");
        assert_eq!(out.server, ServerId(si as u64));
        assert_eq!(out.divergence, 1);
        assert_eq!(out.exited, vec![VmId(0)]);
        assert!(out.oom_killed.is_empty() && out.lost_high.is_empty() && out.lost_low.is_empty());
        assert!(!out.crashed);
        assert_eq!(m.reachability(ServerId(si as u64)), Reachability::Up);
        assert!(!m.is_running(VmId(0)));
        assert_eq!(m.running_vms(), 2);
        assert_eq!(
            m.observability().metrics.count("cluster.exits"),
            exits_before + 1
        );
        m.assert_consistent();
    }

    #[test]
    fn crash_behind_partition_is_discovered_at_heal() {
        // One server, so both VMs stack on it by construction.
        let mut m = ClusterManager::new(ClusterManagerConfig {
            n_servers: 1,
            ..small_cfg(true)
        });
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, false));
        let si = *m.index.get(&VmId(0)).unwrap();
        assert_eq!(*m.index.get(&VmId(1)).unwrap(), si);
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(si as u64)));
        // The manager cannot fail a server it cannot reach.
        assert!(m
            .fail_server(SimTime::from_secs(20), ServerId(si as u64))
            .is_none());
        assert_eq!(m.stats().server_crashes, 0);

        // The crash happens physically, unobserved.
        let lost = m.autonomous_crash(SimTime::from_secs(20), ServerId(si as u64));
        assert_eq!(lost, vec![VmId(0), VmId(1)]);
        assert_eq!(m.running_vms(), 2, "manager still believes both run");
        assert_eq!(m.stats().server_crashes, 0);
        m.assert_consistent();

        let out = m
            .heal_server(SimTime::from_secs(30), ServerId(si as u64))
            .expect("was partitioned");
        assert!(out.crashed);
        assert_eq!(out.lost_high, vec![VmId(1)]);
        assert_eq!(out.lost_low, vec![VmId(0)]);
        assert_eq!(m.reachability(ServerId(si as u64)), Reachability::Down);
        assert_eq!(m.running_vms(), 0);
        assert_eq!(m.stats().server_crashes, 1);
        assert_eq!(m.stats().preempted, 1);
        m.assert_consistent();

        // The ordinary recovery path brings it back.
        assert!(m.recover_server(SimTime::from_secs(40), ServerId(si as u64)));
        assert_eq!(m.reachability(ServerId(si as u64)), Reachability::Up);
        m.assert_consistent();
    }

    #[test]
    fn restart_behind_partition_reconciles_to_up() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.launch(SimTime::ZERO, &req(0, true));
        let si = *m.index.get(&VmId(0)).unwrap();
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(si as u64)));
        let lost = m.autonomous_crash(SimTime::from_secs(20), ServerId(si as u64));
        assert_eq!(lost, vec![VmId(0)]);
        assert!(m.autonomous_restart(SimTime::from_secs(25), ServerId(si as u64)));
        // Still unreachable, so still not placeable.
        assert!(!m.servers()[si].placeable());

        let out = m
            .heal_server(SimTime::from_secs(30), ServerId(si as u64))
            .expect("was partitioned");
        assert!(out.crashed);
        assert_eq!(out.lost_low, vec![VmId(0)]);
        assert_eq!(
            m.reachability(ServerId(si as u64)),
            Reachability::Up,
            "the server rebooted behind the partition"
        );
        assert!(m.servers()[si].placeable());
        assert_eq!(m.stats().server_crashes, 1);
        assert_eq!(
            m.observability().metrics.count("cluster.server_recoveries"),
            1
        );
        m.assert_consistent();
    }

    #[test]
    fn partition_of_migration_destination_clears_stranded_reservation() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        m.launch(t, &req(0, true));
        let total = m.begin_migration(t, VmId(0)).expect("reserve");
        let dst = m.migrations[&VmId(0)].dst;
        assert!(m.partition_server(t, ServerId(dst as u64)));
        assert!(
            m.migrations.is_empty(),
            "ledger must not reference a partition"
        );
        assert!(
            m.servers[dst].reserved().is_zero(),
            "local controller clears the stranded hold"
        );
        assert_eq!(
            m.observability()
                .metrics
                .count("cluster.migrations_aborted"),
            1
        );
        assert_eq!(m.divergence_log(ServerId(dst as u64)).unwrap().len(), 1);
        m.assert_consistent();
        // The deferred completion no longer applies; the VM stayed put.
        assert!(m.finish_migration(t + total, VmId(0)).is_none());
        assert!(m.is_running(VmId(0)));
        let out = m
            .heal_server(t + total, ServerId(dst as u64))
            .expect("heal");
        assert_eq!(out.divergence, 1);
        m.assert_consistent();
    }

    #[test]
    fn partition_of_migration_source_aborts_normally() {
        let mut m = ClusterManager::new(migration_cfg());
        let t = SimTime::ZERO;
        m.launch(t, &req(0, true));
        let src = *m.index.get(&VmId(0)).unwrap();
        m.begin_migration(t, VmId(0)).expect("reserve");
        let dst = m.migrations[&VmId(0)].dst;
        assert!(m.partition_server(t, ServerId(src as u64)));
        assert!(m.migrations.is_empty());
        assert!(
            m.servers[dst].reserved().is_zero(),
            "reachable destination aborts normally"
        );
        assert_eq!(
            m.observability()
                .metrics
                .count("cluster.migrations_aborted"),
            1
        );
        // A normal abort is manager-side work, not divergence.
        assert!(m.divergence_log(ServerId(src as u64)).unwrap().is_empty());
        m.assert_consistent();
        m.heal_server(t, ServerId(src as u64)).expect("heal");
        m.assert_consistent();
    }

    #[test]
    fn partition_parks_and_returns_breaker_state() {
        // Trip a breaker, partition the server, heal with the VM alive:
        // the breaker state must survive the round trip exactly.
        let mut d = crate::distress::DistressConfig::guarded();
        d.breaker_after = 2;
        d.emergency_reinflate = false;
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        force_oom(&mut m, VmId(0), 9_000.0);
        m.sample_distress(SimTime::from_secs(60));
        m.sample_distress(SimTime::from_secs(120));
        assert!(m.breaker_open(VmId(0)), "two hard samples trip the breaker");
        let open_before = m.breaker_open_now;

        assert!(m.partition_server(SimTime::from_secs(130), ServerId(0)));
        assert!(
            !m.breaker_open(VmId(0)),
            "parked state leaves the manager's map"
        );
        assert_eq!(m.breaker_open_now, open_before - 1);
        // Reachable-side sampling skips the partitioned server entirely.
        assert!(m.sample_distress(SimTime::from_secs(180)).is_empty());
        m.assert_consistent();

        let out = m
            .heal_server(SimTime::from_secs(240), ServerId(0))
            .expect("heal");
        assert_eq!(out.divergence, 0);
        assert!(m.breaker_open(VmId(0)), "state returned at heal");
        assert_eq!(m.breaker_open_now, open_before);
        m.assert_consistent();
    }

    #[test]
    fn autonomous_sample_kills_and_heal_replays_counters() {
        let mut d = crate::distress::DistressConfig::unguarded();
        d.floor_fraction = 0.0;
        let mut m = ClusterManager::new(distress_cfg(d));
        m.launch(SimTime::ZERO, &req(0, true));
        m.launch(SimTime::ZERO, &req(1, true));
        force_oom(&mut m, VmId(0), 9_000.0);
        assert!(m.partition_server(SimTime::from_secs(10), ServerId(0)));

        // Grace clock starts at the first autonomous sample; the 180 s
        // window expires at the fourth.
        for s in 1..=4u64 {
            let evs = m.autonomous_sample(SimTime::from_secs(60 * s), ServerId(0));
            if s < 4 {
                assert!(evs.is_empty(), "sample {s} must not kill yet");
            } else {
                assert!(matches!(
                    evs[0],
                    DistressEvent::OomKill {
                        vm: VmId(0),
                        server: ServerId(0)
                    }
                ));
            }
        }
        // The kill is local only: no manager counters moved yet.
        assert_eq!(m.stats().oom_kills, 0);
        assert!(m.is_running(VmId(0)), "frozen view");
        m.assert_consistent();

        let out = m
            .heal_server(SimTime::from_secs(300), ServerId(0))
            .expect("heal");
        assert_eq!(out.oom_killed, vec![VmId(0)]);
        assert_eq!(m.stats().oom_kills, 1);
        assert_eq!(m.observability().metrics.count("cluster.oom_kills"), 1);
        assert!(!m.is_running(VmId(0)));
        assert!(m.is_running(VmId(1)));
        assert!(
            m.observability()
                .metrics
                .count("cluster.partition_divergence")
                >= 1,
            "the kill diverged"
        );
        m.assert_consistent();
    }

    /// The reachable and the partitioned sink run one local controller:
    /// a memory-starved guarded server sampled through `sample_distress`
    /// and its partitioned twin sampled through `autonomous_sample` make
    /// the same grants, trips, closes and kills, and after the heal the
    /// replayed counters equal the live ones.
    #[test]
    fn live_and_local_sinks_sample_identically() {
        let build = || {
            let mut m =
                ClusterManager::new(distress_cfg(crate::distress::DistressConfig::guarded()));
            m.launch(SimTime::ZERO, &req(0, true));
            m.launch(SimTime::ZERO, &req(1, true));
            force_oom(&mut m, VmId(0), 9_000.0);
            force_oom(&mut m, VmId(1), 9_000.0);
            // Soak up all but 500 MiB of the freed pool: the first rescue
            // grant falls short and no donor is healthy enough to give.
            let hog = VmRequest {
                id: VmId(9),
                arrival: SimTime::ZERO,
                lifetime: SimDuration::from_hours(1),
                spec: ResourceVector::new(0.0, 17_500.0, 0.0, 0.0),
                type_name: "hog",
                low_priority: false,
                min_size: ResourceVector::ZERO,
            };
            assert!(matches!(
                m.launch(SimTime::ZERO, &hog),
                LaunchOutcome::Placed { .. }
            ));
            m
        };
        let mut live = build();
        let mut local = build();
        assert!(local.partition_server(SimTime::from_secs(1), ServerId(0)));
        let effective = |m: &ClusterManager| -> Vec<(VmId, ResourceVector)> {
            m.servers()[0]
                .vms()
                .map(|vm| (vm.id(), vm.effective()))
                .collect()
        };
        for s in 1..=10u64 {
            let now = SimTime::from_secs(60 * s);
            let a = live.sample_distress(now);
            let b = local.autonomous_sample(now, ServerId(0));
            assert_eq!(a, b, "round {s}: distress events diverged");
            assert_eq!(
                effective(&live),
                effective(&local),
                "round {s}: allocations diverged"
            );
        }
        local
            .heal_server(SimTime::from_secs(660), ServerId(0))
            .expect("was partitioned");
        for key in [
            "cluster.emergency_reinflations",
            "cluster.breaker_trips",
            "distress.breaker_closed",
            "cluster.oom_kills",
        ] {
            let (a, b) = (
                live.observability().metrics.count(key),
                local.observability().metrics.count(key),
            );
            assert!(a > 0, "{key}: the scenario must exercise it");
            assert_eq!(a, b, "{key}: live and replayed counts diverged");
        }
        for id in [VmId(0), VmId(1)] {
            assert_eq!(live.breaker_open(id), local.breaker_open(id));
        }
        live.assert_consistent();
        local.assert_consistent();
    }

    #[test]
    fn partition_disabled_run_registers_no_partition_keys() {
        let mut m = ClusterManager::new(small_cfg(true));
        for i in 0..5 {
            m.launch(SimTime::ZERO, &req(i, true));
        }
        m.exit(SimTime::from_secs(60), VmId(0));
        let doc = m.run_summary(SimTime::from_secs(100), "unit");
        let text = doc.to_string();
        assert!(
            !text.contains("partition"),
            "partition path must be opt-in: {text}"
        );
        assert!(!text.contains("cluster.fault_noops"));
    }

    // ───────────────── fail/recover idempotency (satellite) ─────────────────

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already down")]
    fn double_fail_panics_in_debug() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.fail_server(SimTime::ZERO, ServerId(0)).expect("up");
        m.fail_server(SimTime::from_secs(1), ServerId(0));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already up")]
    fn recover_of_up_server_panics_in_debug() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.recover_server(SimTime::ZERO, ServerId(0));
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn double_fail_and_recover_of_up_are_counted_noops_in_release() {
        let mut m = ClusterManager::new(small_cfg(true));
        assert!(m.fail_server(SimTime::ZERO, ServerId(0)).is_some());
        assert!(m.fail_server(SimTime::from_secs(1), ServerId(0)).is_none());
        assert!(m.recover_server(SimTime::from_secs(2), ServerId(0)));
        assert!(!m.recover_server(SimTime::from_secs(3), ServerId(0)));
        assert_eq!(m.observability().metrics.count("cluster.fault_noops"), 2);
        m.assert_consistent();
    }

    /// The local-controller entries on a reachable server are fault
    /// schedule bugs like every other misplaced fault event: counted,
    /// not silently dropped.
    #[cfg(not(debug_assertions))]
    #[test]
    fn autonomous_steps_on_reachable_server_are_counted_noops_in_release() {
        let mut m = ClusterManager::new(small_cfg(true));
        m.launch(SimTime::ZERO, &req(0, true));
        let sid = m.server_of(VmId(0)).expect("placed");
        assert!(!m.autonomous_exit(SimTime::from_secs(1), VmId(0)));
        assert!(m.autonomous_crash(SimTime::from_secs(2), sid).is_empty());
        assert!(!m.autonomous_restart(SimTime::from_secs(3), sid));
        assert_eq!(m.observability().metrics.count("cluster.fault_noops"), 3);
        assert!(m.is_running(VmId(0)));
        m.assert_consistent();
    }

    #[test]
    fn fail_recover_of_unknown_server_is_refused() {
        let mut m = ClusterManager::new(small_cfg(true));
        assert!(m.fail_server(SimTime::ZERO, ServerId(99)).is_none());
        assert!(!m.recover_server(SimTime::ZERO, ServerId(99)));
        assert!(!m.partition_server(SimTime::ZERO, ServerId(99)));
        assert!(m.heal_server(SimTime::ZERO, ServerId(99)).is_none());
    }

    /// A distress-sampled manager and its full-scan twin, stepped through
    /// identical calls; every comparison below must hold bit for bit.
    struct Twins {
        fast: ClusterManager,
        scan: ClusterManager,
    }

    impl Twins {
        fn new(cfg: ClusterManagerConfig) -> Self {
            Twins {
                fast: ClusterManager::new(cfg.clone()),
                scan: ClusterManager::new(cfg),
            }
        }

        /// Runs `f` on both managers and insists they agree.
        fn both<T: PartialEq + std::fmt::Debug>(
            &mut self,
            what: &str,
            f: impl Fn(&mut ClusterManager) -> T,
        ) -> T {
            let (a, b) = (f(&mut self.fast), f(&mut self.scan));
            assert_eq!(a, b, "{what}: event-driven and full-scan twins diverged");
            a
        }

        /// One sampling round: the event-driven sampler on one twin, the
        /// full scan on the other. Compares the events, the distress
        /// maps (parked ones included), the allocations and the run
        /// summaries.
        fn sample(&mut self, now: SimTime) -> Vec<DistressEvent> {
            let events = self.fast.sample_distress(now);
            assert_eq!(
                events,
                self.scan.sample_distress_scan(now),
                "{now}: distress events diverged"
            );
            assert_eq!(
                self.fast.distress_states(),
                self.scan.distress_states(),
                "{now}: distress maps diverged"
            );
            assert_eq!(
                self.fast.allocations(),
                self.scan.allocations(),
                "{now}: allocations diverged"
            );
            assert_eq!(
                self.fast.run_summary(now, "twin").to_string(),
                self.scan.run_summary(now, "twin").to_string(),
                "{now}: run summaries diverged"
            );
            events
        }
    }

    fn walk_request(id: u64, scale: f64, low: bool) -> VmRequest {
        let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0).scale(scale);
        VmRequest {
            id: VmId(id),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(2),
            spec,
            type_name: "twin",
            low_priority: low,
            min_size: if low {
                spec.scale(0.15)
            } else {
                ResourceVector::ZERO
            },
        }
    }

    /// One random walk over usage shocks, launches and exits,
    /// partitions and heals, server crashes and recoveries, manager
    /// crashes and recovery scans, rescue migrations, drains and
    /// defragmentation, with a sampling round after every step.
    fn differential_walk(seed: u64) {
        use crate::distress::DistressConfig;
        let mut rng = SimRng::seed_from_u64(seed);
        let cascades = [
            CascadeConfig::VM_LEVEL,
            CascadeConfig::FULL,
            CascadeConfig::HYPERVISOR_ONLY,
        ];
        let distress = DistressConfig {
            enabled: true,
            emergency_reinflate: rng.chance(0.7),
            breaker_after: rng.index(4) as u32,
            breaker_cooldown: 1 + rng.index(2) as u32,
            working_set_floor: rng.chance(0.5),
            floor_fraction: if rng.chance(0.5) { 0.9 } else { 0.0 },
            grace_window: SimDuration::from_secs(if rng.chance(0.5) { 180 } else { 36_000 }),
            ..DistressConfig::default()
        };
        let mut t = Twins::new(ClusterManagerConfig {
            n_servers: 4,
            server_capacity: ResourceVector::new(16.0, 32_768.0, 400.0, 800.0),
            cascade: cascades[rng.index(cascades.len())],
            distress,
            migration: crate::migration::MigrationPolicy::enabled(),
            seed,
            ..ClusterManagerConfig::default()
        });
        let servers = t.fast.servers().len();
        // (id, spec memory) of every launched VM; dead ones are pruned.
        let mut live: Vec<(u64, f64)> = Vec::new();
        let mut moving: Vec<(VmId, SimTime)> = Vec::new();
        let mut next_id = 0u64;
        for step in 1..=160u64 {
            let now = SimTime::from_secs(step * 60);
            let due;
            (due, moving) = moving.into_iter().partition(|&(_, at)| now >= at);
            for (vm, _) in due {
                t.both("finish_migration", |m| m.finish_migration(now, vm));
            }
            let down = t.fast.manager_down();
            let sid = ServerId(rng.index(servers) as u64);
            let reach = t.fast.reachability(sid);
            match rng.index(20) {
                0..=5 if !down => {
                    let (scale, low) = (rng.uniform_range(0.25, 1.0), rng.chance(0.8));
                    let req = walk_request(next_id, scale, low);
                    next_id += 1;
                    if let LaunchOutcome::Placed { .. } = t.both("launch", |m| m.launch(now, &req))
                    {
                        live.push((req.id.0, req.spec.get(ResourceKind::Memory)));
                    }
                }
                6..=8 if !live.is_empty() => {
                    let (id, _) = live.swap_remove(rng.index(live.len()));
                    let id = VmId(id);
                    t.both("exit", |m| {
                        if m.partitioned_host(id).is_some() {
                            m.autonomous_exit(now, id)
                        } else {
                            m.exit(now, id).is_some()
                        }
                    });
                }
                9..=11 if !live.is_empty() => {
                    let (id, mem) = live[rng.index(live.len())];
                    let usage = mem * rng.uniform_range(0.3, 1.3);
                    t.both("set_vm_usage", |m| m.set_vm_usage(VmId(id), usage, 1.0));
                }
                12 if !down && reach == Reachability::Up => {
                    t.both("partition", |m| m.partition_server(now, sid));
                }
                13 if !down && reach == Reachability::Partitioned => {
                    t.both("heal", |m| m.heal_server(now, sid));
                }
                14 if !down && reach == Reachability::Up => {
                    t.both("fail_server", |m| m.fail_server(now, sid));
                }
                15 if !down && reach == Reachability::Down => {
                    t.both("recover_server", |m| m.recover_server(now, sid));
                }
                16 if !down => {
                    t.both("crash_manager", |m| m.crash_manager(now));
                }
                16 => {
                    t.both("recover_manager", |m| m.recover_manager(now, &[]));
                }
                17 if !down => {
                    let started = t.both("defrag", |m| m.defrag_round(now));
                    moving.extend(started.into_iter().map(|(vm, span)| (vm, now + span)));
                }
                18 if !down && reach == Reachability::Up => {
                    let started = t.both("drain", |m| m.drain_server(now, sid));
                    moving.extend(started.into_iter().map(|(vm, span)| (vm, now + span)));
                }
                _ => {}
            }
            for sid in t.fast.partitioned_servers() {
                t.both("autonomous_sample", |m| m.autonomous_sample(now, sid));
            }
            for ev in t.sample(now) {
                if let DistressEvent::Migration { vm, total } = ev {
                    moving.push((vm, now + total));
                }
            }
            live.retain(|(id, _)| t.fast.is_running(VmId(*id)));
        }
        t.fast.assert_consistent();
        t.scan.assert_consistent();
    }

    /// The event-driven sampler matches the full scan it replaces, round
    /// for round, over random walks through every fault domain.
    #[test]
    fn event_driven_sampling_matches_the_full_scan() {
        for seed in 1..=12u64 {
            differential_walk(seed);
        }
    }

    /// A live state is one a healthy sample would change; a closed
    /// breaker's trip count and hold are not live.
    #[test]
    fn distress_liveness_covers_every_state_a_healthy_sample_resets() {
        let quiet = VmDistress::default();
        assert!(!quiet.live());
        assert!(VmDistress {
            open: true,
            ..quiet
        }
        .live());
        assert!(VmDistress {
            consecutive: 1,
            ..quiet
        }
        .live());
        assert!(VmDistress {
            hard_since: Some(SimTime::ZERO),
            ..quiet
        }
        .live());
        let closed = VmDistress {
            trips: 2,
            hold: 4,
            ..quiet
        };
        assert!(!closed.live(), "a closed breaker's history is not live");
    }

    /// One server under a hypervisor-only cascade, so a donor's
    /// deflation swaps blindly and can push it into soft distress.
    fn grant_twins() -> Twins {
        let d = crate::distress::DistressConfig {
            enabled: true,
            emergency_reinflate: true,
            breaker_after: 1,
            breaker_cooldown: 2,
            grace_window: SimDuration::from_hours(10),
            floor_fraction: 0.0,
            ..crate::distress::DistressConfig::default()
        };
        Twins::new(ClusterManagerConfig {
            cascade: CascadeConfig::HYPERVISOR_ONLY,
            ..distress_cfg(d)
        })
    }

    /// Sets up a grant from `donor` to `victim` that the donor's open
    /// breaker blocks until it closes, then samples until the grant
    /// goes through. Returns that round's events and its start time; the
    /// round before it left the server's version unchanged, so the
    /// server was clean when the round began.
    fn blocked_grant_goes_through(
        t: &mut Twins,
        victim: VmId,
        donor: VmId,
    ) -> (SimTime, Vec<DistressEvent>) {
        t.both("launch", |m| m.launch(SimTime::ZERO, &req(0, true)));
        t.both("launch", |m| m.launch(SimTime::ZERO, &req(1, true)));
        // The victim thrashes: its resident set is far above its
        // deflated allocation.
        t.both("set_vm_usage", |m| m.set_vm_usage(victim, 16_000.0, 1.0));
        t.both("deflate", |m| force_oom(m, victim, 11_000.0));
        // Soak the freed memory exactly, so no grant comes from the pool.
        let hog = VmRequest {
            id: VmId(9),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec: ResourceVector::new(0.0, 11_000.0, 0.0, 0.0),
            type_name: "hog",
            low_priority: false,
            min_size: ResourceVector::ZERO,
        };
        t.both("hog", |m| m.launch(SimTime::ZERO, &hog));
        // The donor is out of memory, so it cannot give and its breaker
        // opens; then it recovers, and the breaker shields it for two
        // more healthy samples.
        t.both("set_vm_usage", |m| m.set_vm_usage(donor, 20_000.0, 1.0));
        t.sample(SimTime::from_secs(60));
        assert!(t.fast.breaker_open(donor));
        t.both("set_vm_usage", |m| m.set_vm_usage(donor, 6_000.0, 1.0));
        for round in 2..=4u64 {
            let now = SimTime::from_secs(60 * round);
            let version = t.fast.servers()[0].version();
            let events = t.sample(now);
            if t.fast.servers()[0].version() > version {
                assert!(round > 2, "the round after the usage change is dirty");
                return (now, events);
            }
        }
        panic!("the grant never went through");
    }

    fn slowed(events: &[DistressEvent], id: VmId) -> bool {
        events
            .iter()
            .any(|e| matches!(e, DistressEvent::Slowdown { vm, .. } if *vm == id))
    }

    /// A grant to a lower-id victim pushes a higher-id donor into
    /// distress on a server that was clean when the round began: the
    /// donor is sampled later in the same round, as the scan does.
    #[test]
    fn grant_that_distresses_a_later_donor_samples_it_the_same_round() {
        let mut t = grant_twins();
        let (victim, donor) = (VmId(0), VmId(1));
        let (_, events) = blocked_grant_goes_through(&mut t, victim, donor);
        assert!(
            slowed(&events, donor),
            "the harvested donor thrashes this round: {events:?}"
        );
    }

    /// A grant to a higher-id victim pushes a lower-id donor into
    /// distress after the donor's turn: the server's version moved after
    /// the round began, so the next round samples the donor.
    #[test]
    fn grant_that_distresses_an_earlier_donor_samples_it_next_round() {
        let mut t = grant_twins();
        let (victim, donor) = (VmId(1), VmId(0));
        let (at, events) = blocked_grant_goes_through(&mut t, victim, donor);
        assert!(
            !slowed(&events, donor),
            "the donor's turn came before the grant: {events:?}"
        );
        let events = t.sample(at + SimDuration::from_secs(60));
        assert!(
            slowed(&events, donor),
            "the harvested donor thrashes next round: {events:?}"
        );
    }

    /// A rescue migration reserves on a destination that was clean when
    /// the round began, deflating a higher-id guest there into distress:
    /// that guest is sampled in the same round.
    #[test]
    fn rescue_reservation_that_distresses_the_destination_samples_it_the_same_round() {
        let d = crate::distress::DistressConfig {
            grace_window: SimDuration::from_hours(10),
            floor_fraction: 0.0,
            ..crate::distress::DistressConfig::unguarded()
        };
        let mut t = Twins::new(ClusterManagerConfig {
            n_servers: 2,
            placement: PlacementPolicy::FirstFit,
            cascade: CascadeConfig::HYPERVISOR_ONLY,
            migration: crate::migration::MigrationPolicy::enabled(),
            ..distress_cfg(d)
        });
        let request = |id: u64, spec: ResourceVector, low: bool, min: ResourceVector| VmRequest {
            id: VmId(id),
            arrival: SimTime::ZERO,
            lifetime: SimDuration::from_hours(1),
            spec,
            type_name: "rescue",
            low_priority: low,
            min_size: min,
        };
        let guest = ResourceVector::new(2.0, 20_000.0, 50.0, 100.0);
        // Server 0: the source guest (not deflatable) and a hog that
        // fills its memory; server 1: the guest the reservation squeezes.
        let (src, dst) = (VmId(0), VmId(1));
        let launches = [
            request(0, guest, true, guest),
            request(
                9,
                ResourceVector::new(0.0, 12_768.0, 0.0, 0.0),
                false,
                ResourceVector::ZERO,
            ),
            request(1, guest, true, guest.scale(0.3)),
        ];
        for (r, want) in launches.iter().zip([0, 0, 1]) {
            assert_eq!(
                t.both("launch", |m| m.launch(SimTime::ZERO, r)),
                LaunchOutcome::Placed {
                    server: ServerId(want),
                    preempted: Vec::new()
                }
            );
        }
        t.both("set_vm_usage", |m| m.set_vm_usage(dst, 15_000.0, 1.0));
        assert!(t.sample(SimTime::from_secs(60)).is_empty());
        // Only the source's server moves before the next round.
        t.both("set_vm_usage", |m| m.set_vm_usage(src, 25_000.0, 1.0));
        let version = t.fast.servers()[1].version();
        let events = t.sample(SimTime::from_secs(120));
        assert!(
            t.fast.servers()[1].version() > version,
            "reserved on server 1"
        );
        assert!(
            matches!(
                events.as_slice(),
                [
                    DistressEvent::Migration { vm: a, .. },
                    DistressEvent::Slowdown { vm: b, .. },
                ] if *a == src && *b == dst
            ),
            "rescue of {src}, then the squeezed {dst} thrashes: {events:?}"
        );
    }
}
