//! Trace-driven cluster simulation (paper §6.3, Figs. 8c/8d).
//!
//! Replays a synthetic Eucalyptus-style trace against the cluster manager
//! on the `simkit` event engine and reports preemption probability,
//! utilization, and per-server overcommitment — the measurements behind
//! the paper's claims that deflation removes the risk of preemption up to
//! 1.6× cluster utilization and that deflatable VMs mask placement-policy
//! differences.
//!
//! # Cellular sharding
//!
//! The fleet can be partitioned into independent **cells** (see
//! [`ShardingConfig`]): each cell owns its own [`ClusterManager`] —
//! placement index, distress/breaker state, fault injector — and its own
//! event queue, wrapped in a [`SimCell`]. A deterministic federation
//! layer drives the cells in conservative time windows (*epochs*): within
//! a window every cell advances its sequentially-deterministic event
//! stream independently (in parallel across worker threads), and at the
//! window barrier cross-cell traffic — placement *spills* from cells that
//! could not fit an arrival — is settled in fixed ring order. Because no
//! cell ever observes another cell's state except at a barrier, the
//! result is a pure function of the configuration: independent of thread
//! count, core count, and scheduling interleavings. `cells = 1` takes the
//! monolithic code path and is byte-identical to the pre-sharding
//! simulator (pinned by the golden summaries).

use std::collections::{BTreeSet, HashMap, VecDeque};

use deflate_core::{ServerId, VmId};
use simkit::{
    metrics::TimeWeightedGauge, parallel_map_workers, run_until, AdmissionOverflow, FaultInjector,
    JsonValue, ManagerPlan, Scheduler, SeqHash, SimDuration, SimTime,
};

use crate::distress::{DistressConfig, DistressEvent};
use crate::manager::{ClusterManager, ClusterManagerConfig, ClusterStats, LaunchOutcome};
use crate::migration::MigrationPolicy;
use crate::traces::{TraceConfig, TraceGenerator, VmRequest};

/// Salt for the stateless arrival → home-cell route hash.
const SALT_ROUTE: u64 = 0x524f_5554_4530;
/// Salt for deriving per-cell seeds (placement RNG, fault streams).
const SALT_CELL: u64 = 0x4345_4c4c_5345;

/// How the fleet is split into independently simulated cells.
///
/// The default (`cells = 1`) is the monolithic simulator. With more
/// cells, servers are divided into contiguous shards, arrivals are
/// routed to a home cell by a stateless hash of the VM id, and the cells
/// execute in parallel worker threads under a conservative epoch
/// barrier. Every knob here is *execution* configuration: `threads`
/// never changes results (tested), and `cells`/`epoch`/`spill_fanout`
/// change results only in the documented, deterministic ways.
#[derive(Debug, Clone, Copy)]
pub struct ShardingConfig {
    /// Number of cells the fleet is partitioned into. `0` and `1` both
    /// mean monolithic; values above `n_servers` are clamped.
    pub cells: usize,
    /// Worker threads driving cells within an epoch window. `0` means
    /// one per available core. Results are independent of this value.
    pub threads: usize,
    /// Conservative barrier window: the minimum cross-cell latency.
    /// Cells advance independently inside a window; spills settle at its
    /// end. Zero falls back to the 60 s default.
    pub epoch: SimDuration,
    /// Ring neighbors probed when the home cell rejects an arrival.
    /// `0` disables spilling (a home-cell reject is final). Bounding the
    /// fan-out keeps a saturated fleet's per-arrival work at
    /// `O((1 + fanout) · n/cells)` instead of degrading back to `O(n)`.
    pub spill_fanout: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        ShardingConfig {
            cells: 1,
            threads: 0,
            epoch: SimDuration::from_secs(60),
            spill_fanout: 2,
        }
    }
}

impl ShardingConfig {
    /// Sharding over `n` cells with every other knob at its default.
    pub fn cells(n: usize) -> Self {
        ShardingConfig {
            cells: n,
            ..ShardingConfig::default()
        }
    }
}

/// Configuration of one cluster simulation run.
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    /// Manager / cluster parameters.
    pub manager: ClusterManagerConfig,
    /// Trace parameters.
    pub trace: TraceConfig,
    /// Simulated duration.
    pub horizon: SimDuration,
    /// Cellular sharding (default: monolithic).
    pub sharding: ShardingConfig,
}

impl Default for ClusterSimConfig {
    fn default() -> Self {
        ClusterSimConfig {
            manager: ClusterManagerConfig::default(),
            trace: TraceConfig::default(),
            horizon: SimDuration::from_hours(24),
            sharding: ShardingConfig::default(),
        }
    }
}

/// Aggregated results of one run.
#[derive(Debug, Clone)]
pub struct ClusterSimResult {
    /// Manager counters at the end of the run (summed over cells).
    pub stats: ClusterStats,
    /// Fraction of admitted low-priority VMs that were later preempted.
    pub preemption_probability: f64,
    /// Time-weighted mean cluster utilization (committed/capacity);
    /// capacity-weighted across cells when sharded.
    pub mean_utilization: f64,
    /// Offered load: requested spec-hours (admitted or not) over
    /// capacity-hours, on the dominant CPU dimension.
    pub offered_utilization: f64,
    /// Time-weighted mean cluster overcommitment (Σspec/capacity − 1);
    /// capacity-weighted across cells when sharded.
    pub mean_overcommitment: f64,
    /// Peak cluster overcommitment (max across cells when sharded — a
    /// cell is the overcommitment domain, so this is exact).
    pub peak_overcommitment: f64,
    /// Per-server time-weighted mean overcommitment, concatenated in
    /// cell order (cell 0's servers first).
    pub server_overcommitment: Vec<f64>,
    /// CPU-hours billed to high-priority (on-demand) VMs.
    pub high_pri_cpu_hours: f64,
    /// Nominal CPU-hours of running low-priority VMs (flat billing).
    pub low_pri_spec_cpu_hours: f64,
    /// Effective CPU-hours of running low-priority VMs (RaaS billing).
    pub low_pri_effective_cpu_hours: f64,
    /// Machine-readable observability report for the run (counters,
    /// gauges, histograms, span counts). Monolithic: the manager's
    /// registry verbatim. Sharded: summed counters plus the per-cell
    /// reports under `per_cell`.
    pub summary: simkit::JsonValue,
    /// Simulation events processed (arrivals + departures), for the
    /// timing harness's events/sec metric.
    pub events: u64,
}

enum Ev {
    Arrive(Box<VmRequest>),
    Depart(VmId),
    /// A whole server crashes (victim chosen among up servers at fire
    /// time). The payload is the crash ordinal, which seeds the victim
    /// pick.
    ServerCrash(u64),
    /// A crashed server rejoins placement.
    ServerUp(ServerId),
    /// A VM lost to a server crash or a guest OOM kill re-enters
    /// placement after its boot delay. `arrival` holds the loss instant
    /// so the restart latency (loss → running again) can be observed;
    /// `oom` distinguishes a distress kill from a crash so each path
    /// bills its own metric keys.
    Relaunch {
        req: Box<VmRequest>,
        oom: bool,
    },
    /// Periodic guest-distress sampling round (only scheduled when the
    /// distress loop is enabled).
    DistressSample,
    /// An in-flight live migration's copy window ended: cut over (or
    /// abort, if the VM died mid-copy). Only scheduled when migration
    /// is enabled.
    MigrationDone(VmId),
    /// Advance warning before scripted crash ordinal `k`: evacuate the
    /// victim via live migration. Only scheduled when migration is
    /// enabled and the fault plan carries a nonzero `crash_warning`.
    ServerDrain(u64),
    /// Periodic background defragmentation pass (only scheduled when
    /// migration is enabled with a nonzero `defrag_interval`).
    Defrag,
    /// A manager↔server partition window opens: the manager freezes its
    /// view and the server runs autonomously. Only scheduled when the
    /// fault plan carries a nonzero partition domain.
    PartitionStart(ServerId),
    /// The window closes: the manager reconciles the divergence log and
    /// relaunches VMs that died unobserved.
    PartitionEnd(ServerId),
    /// The cluster manager itself crashes: every reachable server is cut
    /// loose into autonomy and arrivals park in the admission queue.
    /// Only scheduled when the fault plan carries a nonzero
    /// [`ManagerPlan`].
    ManagerDown,
    /// The manager restarts and rebuilds its state by an inventory scan
    /// of every reachable server, then drains the admission queue.
    ManagerUp,
    /// A deferred arrival (admission queue overflowed under the `Defer`
    /// policy) retries. `parked_at` holds the first park instant so the
    /// queue-wait histogram spans the whole wait; `oom` is `Some` for
    /// relaunches, `None` for fresh arrivals.
    AdmissionRetry {
        req: Box<VmRequest>,
        oom: Option<bool>,
        parked_at: SimTime,
    },
}

/// An arrival parked in the admission queue while the manager is down:
/// the request, the instant it first parked (queue-wait accounting), and
/// which relaunch path it came from (`None` for fresh arrivals).
struct QueuedArrival {
    req: VmRequest,
    parked_at: SimTime,
    oom: Option<bool>,
}

/// Lifetime bookkeeping for a running VM, kept under a fault plan or the
/// distress loop: a crash or OOM kill needs the original request (to
/// relaunch the VM) and the scheduled departure (to compute the
/// remaining lifetime and to ignore the stale `Depart` of a superseded
/// incarnation — whether replaced by a relaunch or stretched by a
/// thrash slowdown).
struct LiveVm {
    req: VmRequest,
    depart_at: SimTime,
}

/// Builds the relaunch request for a VM lost at `lost_at` (server crash
/// or guest OOM kill) that reboots at `restart_at`: the new incarnation
/// carries the loss instant as `arrival` (restart-latency accounting)
/// and exactly the lifetime left after the reboot. `None` when the
/// original departure lands before the reboot finishes — a relaunched
/// VM never outlives its original `depart_at`.
fn relaunch_request(lv: LiveVm, lost_at: SimTime, restart_at: SimTime) -> Option<VmRequest> {
    if lv.depart_at <= restart_at {
        return None;
    }
    let mut req = lv.req;
    req.arrival = lost_at;
    req.lifetime = lv.depart_at - restart_at;
    Some(req)
}

/// Runs one trace-driven simulation with a synthetic generator.
pub fn run_cluster_sim(cfg: &ClusterSimConfig) -> ClusterSimResult {
    let gen = TraceGenerator::new(cfg.trace.clone());
    dispatch(cfg, Source::Generator(Box::new(gen)))
}

/// Replays an explicit request list (e.g. loaded from a CSV trace via
/// [`crate::traces::from_csv`]) instead of generating one.
pub fn run_cluster_replay(cfg: &ClusterSimConfig, requests: Vec<VmRequest>) -> ClusterSimResult {
    dispatch(cfg, Source::Replay(requests.into_iter()))
}

fn dispatch(cfg: &ClusterSimConfig, source: Source) -> ClusterSimResult {
    if cfg.sharding.cells > 1 && cfg.manager.n_servers > 1 {
        run_sharded(cfg, source)
    } else {
        run_with_source(cfg, source)
    }
}

enum Source {
    Generator(Box<TraceGenerator>),
    Replay(std::vec::IntoIter<VmRequest>),
}

impl Source {
    fn next_request(&mut self) -> Option<VmRequest> {
        match self {
            Source::Generator(g) => Some(g.next_request()),
            Source::Replay(it) => it.next(),
        }
    }
}

/// One independently simulated cell: a cluster manager (placement
/// index, distress/breaker state, fault injector) plus its private event
/// queue and the run-level bookkeeping the monolithic loop used to keep
/// on the stack. The monolithic simulator is exactly one `SimCell`
/// driven from `ZERO` to the horizon in a single window; the sharded
/// simulator drives many of them window by window and settles their
/// spill outboxes at each barrier.
struct SimCell {
    manager: ClusterManager,
    sched: Scheduler<Ev>,
    /// Arrival source. `Some` only in monolithic mode, where the next
    /// arrival is lazily scheduled from inside the `Arrive` handler
    /// (byte-identical to the pre-sharding event stream). Sharded cells
    /// have arrivals injected by the epoch driver instead.
    source: Option<Source>,
    injector: Option<FaultInjector>,
    /// Running VMs' requests and departure instants, kept while faults
    /// or distress may relaunch them. This map and `limbo` are only read,
    /// inserted into and removed from, never iterated, so they hash ids
    /// with [`SeqHash`] like the manager's VM maps.
    live: HashMap<VmId, LiveVm, SeqHash>,
    /// VMs that died behind a partition (unobserved crash or autonomous
    /// OOM kill): the manager has no placement authority over a server
    /// it cannot reach, so the relaunch decision parks here until the
    /// heal, alongside the loss instant for restart-latency accounting.
    limbo: HashMap<VmId, (LiveVm, SimTime), SeqHash>,
    /// Crash ordinal → server pinned at drain (warning) time.
    drained: HashMap<u64, ServerId>,
    /// The manager-crash domain of the fault plan (queue capacity,
    /// overflow policy, retry back-off). `ManagerPlan::none()` when the
    /// domain is disabled — no manager events are scheduled then.
    mgr_plan: ManagerPlan,
    /// Servers with an open *network* partition window, tracked by the
    /// cell so a restarting manager knows which servers cannot answer
    /// its inventory scan. Ordered for deterministic iteration.
    net_open: BTreeSet<u64>,
    /// Bounded admission queue: arrivals (and relaunches) that fired
    /// while the manager was down, drained FIFO at recovery.
    queue: VecDeque<QueuedArrival>,
    distress: DistressConfig,
    migration: MigrationPolicy,
    track_live: bool,
    horizon: SimTime,
    /// Whether a home-cell reject defers to the spill protocol instead
    /// of being final. `false` in monolithic mode — the reject paths are
    /// then byte-identical to the pre-sharding simulator.
    spill: bool,
    /// Arrivals this cell could not fit, awaiting ring settlement at the
    /// next epoch barrier.
    outbox: Vec<VmRequest>,
    offered_cpu_hours: f64,
    util_gauge: TimeWeightedGauge,
    over_gauge: TimeWeightedGauge,
    server_gauges: Vec<TimeWeightedGauge>,
    high_cpu: TimeWeightedGauge,
    low_spec_cpu: TimeWeightedGauge,
    low_eff_cpu: TimeWeightedGauge,
    events: u64,
    /// Reusable buffer for up-server crash-victim picks.
    ups_scratch: Vec<usize>,
}

impl SimCell {
    fn new(
        mcfg: ClusterManagerConfig,
        horizon: SimTime,
        mut source: Option<Source>,
        spill: bool,
    ) -> SimCell {
        let distress = mcfg.distress;
        let migration = mcfg.migration;
        let faults = mcfg.faults.clone();
        let mgr_plan = faults.manager.clone();
        let n_servers = mcfg.n_servers;
        let manager = ClusterManager::new(mcfg);

        let mut sched: Scheduler<Ev> = Scheduler::new();
        if let Some(src) = &mut source {
            if let Some(first) = src.next_request() {
                sched.at(first.arrival, Ev::Arrive(Box::new(first)));
            }
        }

        // Fault plumbing: the run's server-crash instants are a pure
        // function of the plan, so they are scheduled up front; `live`
        // tracks running VMs so a crash can relaunch its high-priority
        // losses. All of this is absent under the empty plan — the
        // fault-free event stream is byte-identical to one without fault
        // plumbing.
        let injector = if faults.is_none() {
            None
        } else {
            Some(FaultInjector::new(faults))
        };
        if let Some(inj) = &injector {
            for (k, t) in inj.server_crash_times(horizon).into_iter().enumerate() {
                sched.at(t, Ev::ServerCrash(k as u64));
            }
            // Partition windows are a pure function of the plan, scheduled
            // up front like crashes. Ends clamp to the horizon so every
            // window heals (and reconciles) before the run's books close.
            // The empty partition domain schedules nothing.
            if !inj.plan().partitions.is_none() {
                for s in 0..n_servers {
                    for (start, end) in inj.partition_windows(s as u64, horizon) {
                        sched.at(start, Ev::PartitionStart(ServerId(s as u64)));
                        sched.at(end.min(horizon), Ev::PartitionEnd(ServerId(s as u64)));
                    }
                }
            }
            // Manager-crash windows follow the same discipline: a pure
            // function of the plan, scheduled up front, ends clamped to
            // the horizon so every crash recovers (and the admission
            // queue drains) before the books close. The empty plan
            // schedules nothing.
            if !inj.plan().manager.is_none() {
                for (start, end) in inj.manager_windows(horizon) {
                    sched.at(start, Ev::ManagerDown);
                    sched.at(end.min(horizon), Ev::ManagerUp);
                }
            }
        }
        // Distress plumbing: a periodic sampling event drives the guest
        // OOM/thrash loop. Absent when disabled — the event stream (and
        // the run summary) is byte-identical to a build without it.
        let track_live = injector.is_some() || !distress.is_none();
        if !distress.is_none() {
            let first = SimTime::ZERO + distress.sample_interval;
            if first <= horizon {
                sched.at(first, Ev::DistressSample);
            }
        }
        // Migration plumbing: scripted crashes with advance warning get a
        // drain event `crash_warning` ahead of each crash — the drained
        // victim is pinned so the crash lands on the evacuated server —
        // and a periodic defragmentation pass runs when configured. All
        // absent when migration is off: the event stream stays
        // byte-identical to a build without migration plumbing.
        if !migration.is_none() {
            if let Some(inj) = &injector {
                let warn = inj.plan().crash_warning;
                if !warn.is_zero() {
                    for (k, t) in inj.server_crash_times(horizon).into_iter().enumerate() {
                        let drain_at = if t >= SimTime::ZERO + warn {
                            t - warn
                        } else {
                            SimTime::ZERO
                        };
                        sched.at(drain_at, Ev::ServerDrain(k as u64));
                    }
                }
            }
            if !migration.defrag_interval.is_zero() {
                let first = SimTime::ZERO + migration.defrag_interval;
                if first <= horizon {
                    sched.at(first, Ev::Defrag);
                }
            }
        }

        SimCell {
            manager,
            sched,
            source,
            injector,
            live: HashMap::default(),
            limbo: HashMap::default(),
            drained: HashMap::new(),
            mgr_plan,
            net_open: BTreeSet::new(),
            queue: VecDeque::new(),
            distress,
            migration,
            track_live,
            horizon,
            spill,
            outbox: Vec::new(),
            offered_cpu_hours: 0.0,
            util_gauge: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            over_gauge: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            server_gauges: (0..n_servers)
                .map(|_| TimeWeightedGauge::new(SimTime::ZERO, 0.0))
                .collect(),
            high_cpu: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            low_spec_cpu: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            low_eff_cpu: TimeWeightedGauge::new(SimTime::ZERO, 0.0),
            events: 0,
            ups_scratch: Vec::new(),
        }
    }

    /// Injects one routed arrival into this cell's event queue (sharded
    /// mode; the epoch driver calls this for arrivals inside the next
    /// window).
    fn push_arrival(&mut self, req: VmRequest) {
        self.sched.at(req.arrival, Ev::Arrive(Box::new(req)));
    }

    /// Drives this cell's event stream up to `until` (inclusive) and
    /// advances its clock there. Events beyond the bound stay queued for
    /// the next window.
    fn run_window(&mut self, until: SimTime) {
        let mut sched = std::mem::replace(&mut self.sched, Scheduler::new());
        run_until(&mut sched, until, |sched, now, ev| {
            self.handle(sched, now, ev);
        });
        self.sched = sched;
    }

    fn handle(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, ev: Ev) {
        self.events += 1;
        // The server mutated by this event, if any: only its gauge needs
        // refreshing (time-weighted gauges hold their last value over
        // elapsed intervals, so untouched servers need no update).
        let touched = self.dispatch_event(sched, now, ev);
        self.refresh_gauges(now, touched);
    }

    fn dispatch_event(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        ev: Ev,
    ) -> Option<ServerId> {
        match ev {
            Ev::Arrive(req) => {
                // Offered load bills each request only for the part of
                // its lifetime that falls inside the measured horizon —
                // a VM arriving near the end must not contribute hours
                // the run never observes.
                let billed_end = (req.arrival + req.lifetime).min(self.horizon);
                let billed_secs = (billed_end - req.arrival).as_secs_f64();
                self.offered_cpu_hours +=
                    req.spec.get(deflate_core::ResourceKind::Cpu) * billed_secs / 3_600.0;
                // While the manager is down the arrival parks in the
                // bounded admission queue; placement happens when the
                // restarted manager drains it.
                let touched = if self.manager.manager_down() {
                    self.enqueue_admission(sched, now, *req, None, now);
                    None
                } else {
                    self.admit_fresh(sched, now, *req)
                };
                // Schedule the next arrival (monolithic mode only; the
                // sharded driver injects arrivals per epoch window).
                if let Some(source) = &mut self.source {
                    if let Some(next) = source.next_request() {
                        if next.arrival <= self.horizon {
                            sched.at(next.arrival, Ev::Arrive(Box::new(next)));
                        }
                    }
                }
                touched
            }
            Ev::Depart(id) => {
                if self.track_live {
                    match self.live.get(&id) {
                        // A relaunch or a thrash slowdown pushed the
                        // departure later: this Depart is stale.
                        Some(lv) if lv.depart_at > now => None,
                        _ => {
                            self.live.remove(&id);
                            // A VM departing behind a partition exits
                            // through the server's local controller; the
                            // manager's frozen books catch up at heal.
                            if let Some(sid) = self.manager.partitioned_host(id) {
                                self.manager.autonomous_exit(now, id).then_some(sid)
                            } else {
                                self.manager.exit(now, id)
                            }
                        }
                    }
                } else {
                    self.manager.exit(now, id)
                }
            }
            Ev::ServerCrash(k) => {
                let SimCell {
                    manager,
                    injector,
                    live,
                    limbo,
                    drained,
                    ups_scratch,
                    ..
                } = self;
                let inj = injector
                    .as_ref()
                    .expect("crash events only exist under a fault plan");
                // A crash that was drained kills the server pinned at
                // warning time (if still up); otherwise the victim is
                // chosen among up servers at fire time. `drained` stays
                // empty when migration is off, so the disabled path is
                // byte-identical to the pre-drain behavior.
                let sid = drained
                    .remove(&k)
                    .filter(|sid| manager.servers()[sid.0 as usize].is_up())
                    .or_else(|| {
                        ups_scratch.clear();
                        ups_scratch.extend(
                            manager
                                .servers()
                                .iter()
                                .enumerate()
                                .filter(|(_, s)| s.is_up())
                                .map(|(i, _)| i),
                        );
                        (!ups_scratch.is_empty()).then(|| {
                            ServerId(ups_scratch[inj.crash_victim(k, ups_scratch.len())] as u64)
                        })
                    });
                if let Some(sid) = sid {
                    let plan = inj.plan();
                    if manager.is_partitioned(sid) {
                        // The crash lands behind a partition: the manager
                        // sees nothing. The server's controller clears
                        // itself and logs the crash; every lost VM parks
                        // in limbo until the heal decides its relaunch.
                        for id in manager.autonomous_crash(now, sid) {
                            if let Some(lv) = live.remove(&id) {
                                limbo.insert(id, (lv, now));
                            }
                        }
                    } else {
                        let failure = manager.fail_server(now, sid).expect("victim is up");
                        for id in &failure.lost_low {
                            live.remove(id);
                        }
                        // High-priority VMs with lifetime left re-enter
                        // placement through a normal launch once rebooted.
                        for id in &failure.lost_high {
                            if let Some(lv) = live.remove(id) {
                                let restart_at = now + plan.vm_restart;
                                // `arrival` holds the crash instant, for
                                // latency accounting.
                                if let Some(req) = relaunch_request(lv, now, restart_at) {
                                    sched.at(
                                        restart_at,
                                        Ev::Relaunch {
                                            req: Box::new(req),
                                            oom: false,
                                        },
                                    );
                                }
                            }
                        }
                    }
                    sched.at(now + plan.server_restart, Ev::ServerUp(sid));
                    Some(sid)
                } else {
                    None
                }
            }
            Ev::ServerUp(sid) => {
                // A reboot behind a still-open partition stays invisible
                // to the manager: the local controller just logs it.
                // During manager downtime a reachably-crashed server
                // rejoins as partitioned instead — autonomous like
                // everyone else until the inventory scan absorbs it.
                if self.manager.is_partitioned(sid) {
                    self.manager.autonomous_restart(now, sid);
                } else if self.manager.manager_down() {
                    self.manager.recover_server_isolated(now, sid);
                } else {
                    self.manager.recover_server(now, sid);
                }
                Some(sid)
            }
            Ev::Relaunch { req, oom } => {
                if self.manager.manager_down() {
                    // The reboot finished but there is no control plane
                    // to ask for placement: park in the admission queue.
                    self.enqueue_admission(sched, now, *req, Some(oom), now);
                    None
                } else {
                    self.admit_relaunch(sched, now, *req, oom)
                }
            }
            Ev::DistressSample => {
                let events = self.manager.sample_distress(now);
                self.apply_distress(sched, now, events, false);
                // Partitioned servers sample on their own clock with only
                // server-local state. No partitions → no servers here →
                // byte-identical to the pre-partition run.
                for sid in self.manager.partitioned_servers() {
                    let events = self.manager.autonomous_sample(now, sid);
                    self.apply_distress(sched, now, events, true);
                }
                // Distress handling may touch many servers (emergency
                // donor rounds, kills): refresh every per-server gauge.
                self.refresh_all_server_gauges(now);
                let next = now + self.distress.sample_interval;
                if next <= self.horizon {
                    sched.at(next, Ev::DistressSample);
                }
                None
            }
            Ev::MigrationDone(vm) => {
                // Cut over (or abort a stale move). The landed VM keeps
                // its scheduled departure: the blackout is charged to
                // the downtime histogram, not to lifetime.
                self.manager.finish_migration(now, vm);
                // Both endpoints (and a reinflation round) moved:
                // refresh every per-server gauge.
                self.refresh_all_server_gauges(now);
                None
            }
            Ev::ServerDrain(k) => {
                let SimCell {
                    manager,
                    injector,
                    drained,
                    ups_scratch,
                    ..
                } = self;
                let inj = injector
                    .as_ref()
                    .expect("drain events only exist under a fault plan");
                ups_scratch.clear();
                ups_scratch.extend(
                    manager
                        .servers()
                        .iter()
                        .enumerate()
                        .filter(|(_, s)| s.is_up())
                        .map(|(i, _)| i),
                );
                if !ups_scratch.is_empty() {
                    // Pick the crash victim now and pin it, so the
                    // scripted crash lands on the server just drained.
                    let sid = ServerId(ups_scratch[inj.crash_victim(k, ups_scratch.len())] as u64);
                    drained.insert(k, sid);
                    let moves = manager.drain_server(now, sid);
                    for (vm, total) in moves {
                        sched.at(now + total, Ev::MigrationDone(vm));
                    }
                    // Destination holds and donor deflations touch many
                    // servers: refresh every per-server gauge.
                    self.refresh_all_server_gauges(now);
                }
                None
            }
            Ev::Defrag => {
                for (vm, total) in self.manager.defrag_round(now) {
                    sched.at(now + total, Ev::MigrationDone(vm));
                }
                let next = now + self.migration.defrag_interval;
                if next <= self.horizon {
                    sched.at(next, Ev::Defrag);
                }
                self.refresh_all_server_gauges(now);
                None
            }
            Ev::PartitionStart(sid) => {
                // Freezes the manager's view and hands the server its
                // autonomy. A no-op when the server is already down (it
                // crashed reachably before the window opened). While the
                // manager is itself down every server is already
                // autonomous: the window only matters to the recovery
                // scan, which `net_open` tells about it.
                self.net_open.insert(sid.0);
                if !self.manager.manager_down() {
                    self.manager.partition_server(now, sid);
                }
                None
            }
            Ev::PartitionEnd(sid) => {
                self.net_open.remove(&sid.0);
                // Heal only a window that actually opened: the start may
                // have fired over a down server, and a window ending
                // during manager downtime is absorbed by the inventory
                // scan at recovery instead.
                if !self.manager.manager_down() && self.manager.is_partitioned(sid) {
                    if let Some(out) = self.manager.heal_server(now, sid) {
                        self.settle_reconcile(sched, now, &out);
                        // The settle may have moved any aggregate:
                        // refresh every per-server gauge.
                        self.refresh_all_server_gauges(now);
                    }
                }
                None
            }
            Ev::ManagerDown => {
                // The control plane dies: every reachable server is cut
                // loose into autonomy (semantically, all servers
                // partitioned at once). In-flight migrations abort
                // through the partition teardown; their scheduled
                // MigrationDone events find no session and are no-ops.
                self.manager.crash_manager(now);
                self.refresh_all_server_gauges(now);
                None
            }
            Ev::ManagerUp => {
                // Servers with an open network partition window cannot
                // answer the inventory scan: the manager carries their
                // frozen session until the window heals.
                let still: Vec<ServerId> = self.net_open.iter().map(|s| ServerId(*s)).collect();
                for out in self.manager.recover_manager(now, &still) {
                    self.settle_reconcile(sched, now, &out);
                }
                // Reconstruction done: drain the admission queue FIFO.
                while let Some(qa) = self.queue.pop_front() {
                    self.manager
                        .observability_mut()
                        .metrics
                        .observe("failover.queue_wait_s", (now - qa.parked_at).as_secs_f64());
                    match qa.oom {
                        None => {
                            self.admit_fresh(sched, now, qa.req);
                        }
                        Some(oom) => {
                            self.admit_relaunch(sched, now, qa.req, oom);
                        }
                    }
                }
                self.refresh_all_server_gauges(now);
                None
            }
            Ev::AdmissionRetry {
                req,
                oom,
                parked_at,
            } => {
                if self.manager.manager_down() {
                    // Still down: try to park again (or defer again).
                    self.enqueue_admission(sched, now, *req, oom, parked_at);
                    None
                } else {
                    // The manager recovered between the overflow and this
                    // retry: admit directly, charging the full wait.
                    self.manager
                        .observability_mut()
                        .metrics
                        .observe("failover.queue_wait_s", (now - parked_at).as_secs_f64());
                    match oom {
                        None => self.admit_fresh(sched, now, *req),
                        Some(oom) => self.admit_relaunch(sched, now, *req, oom),
                    }
                }
            }
        }
    }

    /// Acts on one sampling round's distress events. A guest the OOM
    /// killer took relaunches through the crash path after the reboot
    /// delay, with its remaining lifetime — unless it died behind a
    /// partition (`autonomous`): the manager has no placement authority
    /// there, so it parks in limbo until the heal. A thrashing guest
    /// completed only `perf` of an interval's work, so its remaining
    /// lifetime stretches and the old `Depart` is superseded. A rescue
    /// migration's cut-over lands when its copy window ends (the
    /// manager aborts moves gone stale); autonomous sampling never
    /// emits one.
    fn apply_distress(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        events: Vec<DistressEvent>,
        autonomous: bool,
    ) {
        for dev in events {
            match dev {
                DistressEvent::OomKill { vm, .. } => {
                    let Some(lv) = self.live.remove(&vm) else {
                        continue;
                    };
                    if autonomous {
                        self.limbo.insert(vm, (lv, now));
                        continue;
                    }
                    let restart_at = now + self.distress.restart_delay;
                    if let Some(req) = relaunch_request(lv, now, restart_at) {
                        sched.at(
                            restart_at,
                            Ev::Relaunch {
                                req: Box::new(req),
                                oom: true,
                            },
                        );
                    }
                }
                DistressEvent::Slowdown { vm, perf } => {
                    if let Some(lv) = self.live.get_mut(&vm) {
                        let stretch = self
                            .distress
                            .sample_interval
                            .mul_f64(1.0 / perf.max(0.05) - 1.0);
                        lv.depart_at += stretch;
                        sched.at(lv.depart_at, Ev::Depart(vm));
                    }
                }
                DistressEvent::Migration { vm, total } => {
                    sched.at(now + total, Ev::MigrationDone(vm));
                }
            }
        }
    }

    /// Places one fresh arrival on a live manager: the `Arrive` body
    /// minus offered-load billing and source scheduling, shared with the
    /// admission-queue drain at manager recovery.
    fn admit_fresh(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        req: VmRequest,
    ) -> Option<ServerId> {
        // A spilling cell defers the rejection verdict to the epoch
        // barrier; the monolithic path counts it here, byte-identical to
        // the pre-sharding simulator.
        let outcome = if self.spill {
            self.manager.launch_deferred(now, &req)
        } else {
            self.manager.launch(now, &req)
        };
        if let LaunchOutcome::Placed { server, .. } = &outcome {
            sched.after(req.lifetime, Ev::Depart(req.id));
            if self.track_live {
                let depart_at = now + req.lifetime;
                self.live.insert(req.id, LiveVm { req, depart_at });
            }
            Some(*server)
        } else {
            if self.spill {
                self.manager
                    .observability_mut()
                    .metrics
                    .incr("cluster.spills_offered");
                self.outbox.push(req);
            }
            None
        }
    }

    /// Re-places one relaunched VM (crash or OOM reboot) on a live
    /// manager, charging its path's restart-latency or reject key.
    fn admit_relaunch(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        req: VmRequest,
        oom: bool,
    ) -> Option<ServerId> {
        let lost_at = req.arrival;
        // Relaunches never spill: the VM's bookkeeping lives in this
        // cell, so a reject here is final either way.
        let outcome = self.manager.launch(now, &req);
        if let LaunchOutcome::Placed { server, .. } = &outcome {
            sched.after(req.lifetime, Ev::Depart(req.id));
            let depart_at = now + req.lifetime;
            self.live.insert(req.id, LiveVm { req, depart_at });
            // Loss → running-again latency: boot delay plus any
            // reclamation the new placement had to wait for.
            let key = if oom {
                "distress.restart_latency_s"
            } else {
                "fault.restart_latency_s"
            };
            self.manager
                .observability_mut()
                .metrics
                .observe(key, (now - lost_at).as_secs_f64());
            Some(*server)
        } else {
            let key = if oom {
                "distress.relaunch_rejected"
            } else {
                "fault.relaunch_rejected"
            };
            self.manager.observability_mut().metrics.incr(key);
            None
        }
    }

    /// Parks one admission (fresh arrival or relaunch) while the manager
    /// is down. A full queue falls to the plan's overflow policy:
    /// `Reject` charges the loss to the same accounting the live paths
    /// use; `Defer` schedules a client-side retry.
    fn enqueue_admission(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        req: VmRequest,
        oom: Option<bool>,
        parked_at: SimTime,
    ) {
        let metrics = &mut self.manager.observability_mut().metrics;
        if self.queue.len() < self.mgr_plan.queue_cap {
            metrics.incr("cluster.admission_queue_parked");
            self.queue.push_back(QueuedArrival {
                req,
                parked_at,
                oom,
            });
            return;
        }
        metrics.incr("cluster.admission_queue_overflow");
        match self.mgr_plan.overflow {
            AdmissionOverflow::Reject => {
                metrics.incr("cluster.admission_queue_rejected");
                match oom {
                    None => self.manager.reject_spill(now, req.id),
                    Some(true) => metrics.incr("distress.relaunch_rejected"),
                    Some(false) => metrics.incr("fault.relaunch_rejected"),
                }
            }
            AdmissionOverflow::Defer => {
                metrics.incr("cluster.admission_queue_deferred");
                sched.at(
                    now + self.mgr_plan.retry,
                    Ev::AdmissionRetry {
                        req: Box::new(req),
                        oom,
                        parked_at,
                    },
                );
            }
        }
    }

    /// Settles one reconcile outcome (partition heal or recovery scan):
    /// drops the limbo entries the reconcile already classified, and
    /// schedules relaunches for the deaths the manager would have
    /// relaunched had it watched — each on its own path's delay from the
    /// *loss* instant, never before the reconcile itself.
    fn settle_reconcile(
        &mut self,
        sched: &mut Scheduler<Ev>,
        now: SimTime,
        out: &crate::partition::ReconcileOutcome,
    ) {
        let SimCell {
            injector,
            limbo,
            distress,
            ..
        } = self;
        // Natural exits and low-priority crash losses settled in the
        // reconcile pass; just drop any limbo entries.
        for vm in out.exited.iter().chain(&out.lost_low) {
            limbo.remove(vm);
        }
        let inj = injector
            .as_ref()
            .expect("partition and manager events only exist under a fault plan");
        for (vm, oom, delay) in out
            .oom_killed
            .iter()
            .map(|vm| (vm, true, distress.restart_delay))
            .chain(
                out.lost_high
                    .iter()
                    .map(|vm| (vm, false, inj.plan().vm_restart)),
            )
        {
            if let Some((lv, lost_at)) = limbo.remove(vm) {
                let restart_at = (lost_at + delay).max(now);
                if let Some(req) = relaunch_request(lv, lost_at, restart_at) {
                    sched.at(
                        restart_at,
                        Ev::Relaunch {
                            req: Box::new(req),
                            oom,
                        },
                    );
                }
            }
        }
    }

    fn refresh_gauges(&mut self, now: SimTime, touched: Option<ServerId>) {
        let SimCell {
            manager,
            util_gauge,
            over_gauge,
            high_cpu,
            low_spec_cpu,
            low_eff_cpu,
            server_gauges,
            ..
        } = self;
        util_gauge.set(now, manager.utilization());
        over_gauge.set(now, manager.overcommitment());
        high_cpu.set(now, manager.high_pri_cpu());
        low_spec_cpu.set(now, manager.low_pri_spec_cpu());
        low_eff_cpu.set(now, manager.low_pri_effective_cpu());
        if let Some(sid) = touched {
            let si = sid.0 as usize;
            server_gauges[si].set(now, manager.servers()[si].overcommitment());
        }
    }

    fn refresh_all_server_gauges(&mut self, now: SimTime) {
        let SimCell {
            manager,
            server_gauges,
            ..
        } = self;
        for (i, s) in manager.servers().iter().enumerate() {
            server_gauges[i].set(now, s.overcommitment());
        }
    }

    /// Attempts to settle one spilled request in this (neighbor) cell at
    /// an epoch barrier. On success the cell takes full ownership of the
    /// VM: departure, liveness tracking and any later crash/distress
    /// handling run here. On refusal the manager is untouched — the
    /// reclaim session's rollback makes the probe state-neutral — so the
    /// driver can probe the next ring neighbor.
    fn try_spill_in(&mut self, now: SimTime, req: &VmRequest) -> bool {
        // A cell whose manager is down cannot admit spills: the probe
        // refuses and the driver tries the next ring neighbor.
        if self.manager.manager_down() {
            return false;
        }
        let LaunchOutcome::Placed { server, .. } = self.manager.launch_deferred(now, req) else {
            return false;
        };
        self.events += 1;
        self.sched.at(now + req.lifetime, Ev::Depart(req.id));
        if self.track_live {
            self.live.insert(
                req.id,
                LiveVm {
                    req: req.clone(),
                    depart_at: now + req.lifetime,
                },
            );
        }
        self.manager
            .observability_mut()
            .metrics
            .incr("cluster.spills_in");
        self.refresh_gauges(now, Some(server));
        true
    }

    /// Closes the cell's books: finalizes gauges and extracts the
    /// per-cell slice of the run result.
    fn finish(mut self, horizon: SimTime, horizon_d: SimDuration, label: &str) -> CellOutcome {
        let stats = self.manager.stats();
        let summary = self.manager.run_summary(horizon, label);
        let capacity_cpu = self
            .manager
            .total_capacity()
            .get(deflate_core::ResourceKind::Cpu);
        let hours = horizon_d.as_secs_f64() / 3_600.0;
        CellOutcome {
            stats,
            capacity_cpu,
            offered_cpu_hours: self.offered_cpu_hours,
            mean_utilization: self.util_gauge.finalized_mean(horizon),
            mean_overcommitment: self.over_gauge.finalized_mean(horizon),
            peak_overcommitment: self.over_gauge.peak(),
            server_overcommitment: self
                .server_gauges
                .iter_mut()
                .map(|g| g.finalized_mean(horizon))
                .collect(),
            high_pri_cpu_hours: self.high_cpu.finalized_mean(horizon) * hours,
            low_pri_spec_cpu_hours: self.low_spec_cpu.finalized_mean(horizon) * hours,
            low_pri_effective_cpu_hours: self.low_eff_cpu.finalized_mean(horizon) * hours,
            summary,
            events: self.events,
        }
    }
}

/// The per-cell slice of a run result, merged by [`merge_outcomes`].
struct CellOutcome {
    stats: ClusterStats,
    capacity_cpu: f64,
    offered_cpu_hours: f64,
    mean_utilization: f64,
    mean_overcommitment: f64,
    peak_overcommitment: f64,
    server_overcommitment: Vec<f64>,
    high_pri_cpu_hours: f64,
    low_pri_spec_cpu_hours: f64,
    low_pri_effective_cpu_hours: f64,
    summary: JsonValue,
    events: u64,
}

/// Moves whole cells between scoped worker threads at epoch boundaries.
///
/// # Safety
///
/// `SimCell` is not auto-`Send` because VM guest state is shared between
/// a server and its local controller via `Rc<RefCell<_>>`
/// ([`hypervisor::SharedVmState`]). A cell is a *closed ownership
/// domain* for those handles: every `Rc` clone is created and dropped
/// inside the owning cell (live migration moves VMs between servers of
/// the same manager, never across cells), and the only data that crosses
/// cells — spilled [`VmRequest`]s — is plain owned data. Cells move
/// between threads only at epoch barriers, when the scoped pool has
/// joined and no borrow is live, so reference counts are never touched
/// from two threads. (The hypervisor's thread-local leaked-session
/// counter may under-report across workers; it only registers on a
/// session-leak bug, which debug builds catch by panicking at the leak
/// site.)
struct CellSlot(SimCell);
#[allow(unsafe_code)]
unsafe impl Send for CellSlot {}

fn run_with_source(cfg: &ClusterSimConfig, source: Source) -> ClusterSimResult {
    let horizon = SimTime::ZERO + cfg.horizon;
    let mut cell = SimCell::new(cfg.manager.clone(), horizon, Some(source), false);
    cell.run_window(horizon);
    let out = cell.finish(horizon, cfg.horizon, "cluster_sim");
    merge_outcomes(cfg.horizon, vec![out], None)
}

/// The stateless arrival → home-cell route: a hash of the VM id, so any
/// component (driver, tests, future distributed frontends) can compute
/// it without shared state.
fn home_cell(seed: u64, id: VmId, cells: usize) -> usize {
    (simkit::fault::decide(seed, SALT_ROUTE, id.0, 0) % cells as u64) as usize
}

/// Derives cell `i`'s manager configuration from the fleet-wide one:
/// its shard of the servers, a decorrelated placement seed, and a fault
/// plan scaled to the shard (crash rate proportional to its share of the
/// fleet, scripted crashes dealt round-robin, decorrelated stream seed).
fn cell_manager_cfg(
    base: &ClusterManagerConfig,
    cell: usize,
    cells: usize,
    shard: usize,
    total: usize,
) -> ClusterManagerConfig {
    let mut m = base.clone();
    m.n_servers = shard;
    m.seed = simkit::fault::decide(base.seed, SALT_CELL, cell as u64, 0);
    if !base.faults.is_none() {
        m.faults.seed = simkit::fault::decide(base.faults.seed, SALT_CELL, cell as u64, 1);
        m.faults.server_crash_rate_per_hour =
            base.faults.server_crash_rate_per_hour * shard as f64 / total as f64;
        m.faults.scheduled_server_crashes = base
            .faults
            .scheduled_server_crashes
            .iter()
            .enumerate()
            .filter(|(k, _)| k % cells == cell)
            .map(|(_, t)| *t)
            .collect();
    }
    m
}

fn run_sharded(cfg: &ClusterSimConfig, mut source: Source) -> ClusterSimResult {
    let sh = cfg.sharding;
    let total = cfg.manager.n_servers;
    let cells_n = sh.cells.clamp(1, total);
    let horizon = SimTime::ZERO + cfg.horizon;
    let epoch = if sh.epoch.is_zero() {
        ShardingConfig::default().epoch
    } else {
        sh.epoch
    };
    let spill_fanout = sh.spill_fanout.min(cells_n - 1);

    // Contiguous server shards: cell i owns `base (+1)` servers; the
    // remainder goes to the lowest-indexed cells.
    let base = total / cells_n;
    let rem = total % cells_n;
    let mut cells: Vec<CellSlot> = (0..cells_n)
        .map(|i| {
            let shard = base + usize::from(i < rem);
            CellSlot(SimCell::new(
                cell_manager_cfg(&cfg.manager, i, cells_n, shard, total),
                horizon,
                None,
                spill_fanout > 0,
            ))
        })
        .collect();

    let route_seed = cfg.trace.seed;
    let mut pending = source.next_request();
    let mut spills_placed = 0u64;
    let mut spills_rejected = 0u64;
    let mut t0 = SimTime::ZERO;
    while t0 < horizon {
        let t1 = (t0 + epoch).min(horizon);
        // Route every arrival inside this window to its home cell. The
        // lookahead request is held over from the previous window, so
        // the generator is pulled exactly once per arrival.
        while let Some(req) = pending.take() {
            if req.arrival > t1 {
                pending = Some(req);
                break;
            }
            let c = home_cell(route_seed, req.id, cells_n);
            cells[c].0.push_arrival(req);
            pending = source.next_request();
        }
        // Advance every cell's private event stream to the barrier, in
        // parallel. Cells are independent inside a window, and the pool
        // returns them in index order, so the outcome is the same for
        // any worker count (tested: 1, 2 and 8 threads byte-identical).
        cells = parallel_map_workers(sh.threads, cells, |mut c| {
            c.0.run_window(t1);
            c
        });
        // Barrier: settle spill outboxes sequentially in cell order.
        // Each spilled request probes ring neighbors (home+1, home+2, …)
        // with a state-neutral reserve-or-refuse launch; the first
        // neighbor that fits commits and takes ownership of the VM. If
        // every probe refuses, the rejection is charged to the home
        // cell, exactly once.
        for home in 0..cells_n {
            if cells[home].0.outbox.is_empty() {
                continue;
            }
            let outbox = std::mem::take(&mut cells[home].0.outbox);
            for req in outbox {
                let mut placed = false;
                for d in 1..=spill_fanout {
                    let tgt = (home + d) % cells_n;
                    if cells[tgt].0.try_spill_in(t1, &req) {
                        placed = true;
                        break;
                    }
                }
                if placed {
                    spills_placed += 1;
                    cells[home]
                        .0
                        .manager
                        .observability_mut()
                        .metrics
                        .incr("cluster.spills_out");
                } else {
                    spills_rejected += 1;
                    cells[home].0.manager.reject_spill(t1, req.id);
                }
            }
        }
        t0 = t1;
    }

    let outs: Vec<CellOutcome> = cells
        .into_iter()
        .map(|c| c.0.finish(horizon, cfg.horizon, "cell"))
        .collect();
    let summary = merged_summary(cells_n, epoch, spills_placed, spills_rejected, &outs);
    merge_outcomes(cfg.horizon, outs, Some(summary))
}

/// The sharded run's observability report: counters summed across cells
/// (key-sorted, so the document is deterministic), the spill settlement
/// tallies, and every per-cell report under `per_cell`. Deliberately
/// excludes execution-only knobs (worker threads) so the document is
/// invariant under thread count.
fn merged_summary(
    cells_n: usize,
    epoch: SimDuration,
    spills_placed: u64,
    spills_rejected: u64,
    outs: &[CellOutcome],
) -> JsonValue {
    let mut totals: std::collections::BTreeMap<&str, f64> = std::collections::BTreeMap::new();
    for o in outs {
        if let Some(counters) = o.summary.get("counters").and_then(|c| c.as_object()) {
            for (k, v) in counters {
                if let Some(x) = v.as_f64() {
                    *totals.entry(k.as_str()).or_insert(0.0) += x;
                }
            }
        }
    }
    let mut counters = JsonValue::object();
    for (k, v) in totals {
        counters.set(k, v);
    }
    JsonValue::object()
        .with("run", "cluster_sim")
        .with("cells", cells_n)
        .with("epoch_s", epoch.as_secs_f64())
        .with(
            "spills",
            JsonValue::object()
                .with("placed", spills_placed)
                .with("rejected", spills_rejected),
        )
        .with("counters", counters)
        .with(
            "per_cell",
            JsonValue::Arr(outs.iter().map(|o| o.summary.clone()).collect()),
        )
}

/// Folds per-cell outcomes into one [`ClusterSimResult`]. With a single
/// cell (the monolithic path) every value passes through untouched, so
/// `cells = 1` stays bit-exact with the pre-sharding simulator; with
/// many, counters and CPU-hours sum, utilization/overcommitment means
/// are capacity-weighted, and the peak is the max across cells.
fn merge_outcomes(
    horizon_d: SimDuration,
    mut outs: Vec<CellOutcome>,
    sharded_summary: Option<JsonValue>,
) -> ClusterSimResult {
    let mut stats = ClusterStats::default();
    for o in &outs {
        stats.absorb(&o.stats);
    }
    let preemption_probability = if stats.launched_low == 0 {
        0.0
    } else {
        stats.preempted as f64 / stats.launched_low as f64
    };
    // Use the pool's actual total capacity: under `capacity_skew` with an
    // odd server count it differs from `server_capacity × n_servers`.
    let cap_total: f64 = outs.iter().map(|o| o.capacity_cpu).sum();
    let offered: f64 = outs.iter().map(|o| o.offered_cpu_hours).sum();
    let capacity_cpu_hours = cap_total * horizon_d.as_secs_f64() / 3_600.0;
    let (mean_utilization, mean_overcommitment, peak_overcommitment) = if outs.len() == 1 {
        (
            outs[0].mean_utilization,
            outs[0].mean_overcommitment,
            outs[0].peak_overcommitment,
        )
    } else {
        let w = cap_total.max(1e-9);
        (
            outs.iter()
                .map(|o| o.mean_utilization * o.capacity_cpu)
                .sum::<f64>()
                / w,
            outs.iter()
                .map(|o| o.mean_overcommitment * o.capacity_cpu)
                .sum::<f64>()
                / w,
            outs.iter()
                .map(|o| o.peak_overcommitment)
                .fold(0.0f64, f64::max),
        )
    };
    let server_overcommitment: Vec<f64> = outs
        .iter()
        .flat_map(|o| o.server_overcommitment.iter().copied())
        .collect();
    let high_pri_cpu_hours: f64 = outs.iter().map(|o| o.high_pri_cpu_hours).sum();
    let low_pri_spec_cpu_hours: f64 = outs.iter().map(|o| o.low_pri_spec_cpu_hours).sum();
    let low_pri_effective_cpu_hours: f64 = outs.iter().map(|o| o.low_pri_effective_cpu_hours).sum();
    let events: u64 = outs.iter().map(|o| o.events).sum();
    let summary = match sharded_summary {
        Some(s) => s,
        None => outs.pop().expect("monolithic run has one cell").summary,
    };
    ClusterSimResult {
        stats,
        preemption_probability,
        offered_utilization: offered / capacity_cpu_hours.max(1e-9),
        mean_utilization,
        mean_overcommitment,
        peak_overcommitment,
        server_overcommitment,
        high_pri_cpu_hours,
        low_pri_spec_cpu_hours,
        low_pri_effective_cpu_hours,
        summary,
        events,
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::PlacementPolicy;

    /// A small-but-loaded configuration that finishes quickly in tests.
    fn test_cfg(deflation: bool, arrivals_per_hour: f64) -> ClusterSimConfig {
        ClusterSimConfig {
            manager: ClusterManagerConfig {
                n_servers: 20,
                deflation_enabled: deflation,
                ..ClusterManagerConfig::default()
            },
            trace: TraceConfig {
                arrivals_per_hour,
                lifetime_median_mins: 120.0,
                ..TraceConfig::default()
            },
            horizon: SimDuration::from_hours(12),
            sharding: ShardingConfig::default(),
        }
    }

    #[test]
    fn deterministic_runs() {
        let cfg = test_cfg(true, 150.0);
        let a = run_cluster_sim(&cfg);
        let b = run_cluster_sim(&cfg);
        assert_eq!(a.stats.launched, b.stats.launched);
        assert_eq!(a.stats.preempted, b.stats.preempted);
        assert!((a.mean_utilization - b.mean_utilization).abs() < 1e-12);
        // The observability report is deterministic too.
        assert_eq!(a.summary.to_string(), b.summary.to_string());
    }

    /// End-to-end placement equivalence: whole simulations through the
    /// placement index, for the default fig8c configuration (100
    /// servers, 24 h, default trace seed) and, at reduced horizon, for
    /// every policy × availability-mode combination. Every placement and
    /// migration-destination query cross-checks the index against the
    /// naive scan oracles and panics on the first divergent decision.
    /// Those cross-checks exist only under `debug_assertions` (how the
    /// tier-1 suite runs); a release run of this test checks only that
    /// the configs simulate to completion.
    #[test]
    fn indexed_placement_matches_naive_scan_end_to_end() {
        // The default fig8c cell, full scale.
        let r = run_cluster_sim(&ClusterSimConfig::default());
        assert!(r.stats.launched > 1000, "run must be non-trivial");
        // Every policy × mode, smaller but still loaded.
        for policy in PlacementPolicy::ALL {
            for deflation in [true, false] {
                let mut cfg = test_cfg(deflation, 150.0);
                cfg.manager.placement = policy;
                cfg.horizon = SimDuration::from_hours(6);
                let r = run_cluster_sim(&cfg);
                assert!(
                    r.stats.launched > 0,
                    "{} deflation={deflation} placed nothing",
                    policy.name()
                );
            }
        }
    }

    #[test]
    fn sim_result_carries_run_summary() {
        let r = run_cluster_sim(&test_cfg(true, 150.0));
        let doc = &r.summary;
        assert_eq!(doc.get("run").and_then(|v| v.as_str()), Some("cluster_sim"));
        let launched = doc
            .get("counters")
            .and_then(|c| c.get("cluster.launched"))
            .and_then(|v| v.as_f64())
            .expect("launched counter present");
        assert_eq!(launched, r.stats.launched as f64);
        // Text round-trips through the parser.
        assert!(simkit::JsonValue::parse(&doc.to_pretty()).is_ok());
    }

    #[test]
    fn light_load_preempts_nothing() {
        let r = run_cluster_sim(&test_cfg(true, 30.0));
        assert!(r.stats.launched > 100);
        assert_eq!(r.stats.preempted, 0);
        assert_eq!(r.preemption_probability, 0.0);
        assert!(r.mean_overcommitment < 0.05);
    }

    #[test]
    fn deflation_beats_preemption_only_under_pressure() {
        // Same offered load (~1.6x capacity); deflation should preempt
        // far less often. A single trace seed makes the 2x margin a coin
        // flip (per-seed ratios range ~0.2-0.5), so compare means over a
        // few seeds instead of one lucky draw.
        let mut defl_sum = 0.0;
        let mut pre_sum = 0.0;
        let mut over_sum = 0.0;
        let seeds = [42u64, 43, 44];
        for seed in seeds {
            let mut on = test_cfg(true, 65.0);
            on.trace.seed = seed;
            let mut off = test_cfg(false, 65.0);
            off.trace.seed = seed;
            let defl = run_cluster_sim(&on);
            let pre = run_cluster_sim(&off);
            assert!(
                pre.preemption_probability > 0.05,
                "baseline should preempt (seed {seed}): {}",
                pre.preemption_probability
            );
            defl_sum += defl.preemption_probability;
            pre_sum += pre.preemption_probability;
            over_sum += defl.mean_overcommitment;
        }
        let n = seeds.len() as f64;
        assert!(
            defl_sum / n < pre_sum / n / 2.0,
            "deflation {} vs preemption-only {}",
            defl_sum / n,
            pre_sum / n
        );
        // And deflation sustains overcommitment.
        assert!(over_sum / n > 0.05);
    }

    #[test]
    fn overcommitment_grows_with_load() {
        let low = run_cluster_sim(&test_cfg(true, 45.0));
        let high = run_cluster_sim(&test_cfg(true, 90.0));
        assert!(high.mean_overcommitment > low.mean_overcommitment);
        assert!(high.peak_overcommitment >= high.mean_overcommitment);
    }

    #[test]
    fn replay_matches_generation() {
        // Generating and replaying the same trace must give identical
        // results (modulo the placement RNG, which is seeded).
        let cfg = test_cfg(true, 50.0);
        let generated = run_cluster_sim(&cfg);

        let horizon = simkit::SimTime::ZERO + cfg.horizon;
        let requests =
            crate::traces::TraceGenerator::new(cfg.trace.clone()).generate_until(horizon);
        let replayed = run_cluster_replay(&cfg, requests);

        assert_eq!(generated.stats.launched, replayed.stats.launched);
        assert_eq!(generated.stats.preempted, replayed.stats.preempted);
        assert!((generated.mean_utilization - replayed.mean_utilization).abs() < 1e-9);
    }

    #[test]
    fn csv_round_trip_replay() {
        let cfg = test_cfg(true, 50.0);
        let horizon = simkit::SimTime::ZERO + cfg.horizon;
        let requests =
            crate::traces::TraceGenerator::new(cfg.trace.clone()).generate_until(horizon);
        let csv = crate::traces::to_csv(&requests);
        let back = crate::traces::from_csv(&csv).expect("own CSV parses");
        let a = run_cluster_replay(&cfg, requests);
        let b = run_cluster_replay(&cfg, back);
        // CSV quantizes timestamps to milliseconds; the coarse outcomes
        // must survive the round trip.
        assert_eq!(a.stats.launched, b.stats.launched);
        assert!((a.mean_utilization - b.mean_utilization).abs() < 0.01);
    }

    #[test]
    fn proactive_headroom_cuts_highpri_latency() {
        // Same trace; proactive headroom should reduce the reclamation
        // latency high-priority launches wait for, without collapsing
        // admitted VM counts.
        let mut base = test_cfg(true, 60.0);
        let plain = run_cluster_sim(&base);
        base.manager.proactive_headroom = true;
        let proactive = run_cluster_sim(&base);

        let lat_plain = plain.stats.mean_highpri_alloc_latency_secs();
        let lat_pro = proactive.stats.mean_highpri_alloc_latency_secs();
        assert!(
            lat_pro < lat_plain,
            "proactive {lat_pro:.3}s vs plain {lat_plain:.3}s"
        );
        assert!(
            proactive.stats.launched as f64 > plain.stats.launched as f64 * 0.9,
            "headroom should not tank admissions"
        );
    }

    #[test]
    fn disabled_distress_knobs_change_nothing() {
        use crate::distress::DistressConfig;
        // A disabled DistressConfig must be inert no matter how its
        // knobs are set: the run summary is byte-identical to the
        // default's and registers no distress keys.
        let mut cfg = test_cfg(true, 150.0);
        cfg.horizon = SimDuration::from_hours(6);
        let base = run_cluster_sim(&cfg);
        let mut twisted = cfg.clone();
        twisted.manager.distress = DistressConfig {
            enabled: false,
            sample_interval: SimDuration::from_secs(13),
            grace_window: SimDuration::from_secs(31),
            thrash_threshold: 0.5,
            breaker_after: 7,
            floor_fraction: 0.2,
            swap_coef: 99.0,
            ..DistressConfig::none()
        };
        let b = run_cluster_sim(&twisted);
        assert_eq!(base.summary.to_string(), b.summary.to_string());
        let text = base.summary.to_string();
        assert!(!text.contains("distress."));
        assert!(!text.contains("cluster.oom_kills"));
        assert!(!text.contains("cluster.distress_seconds"));
    }

    /// A configuration where memory binds together with CPU (the VM
    /// mem:cpu ratio matches the server's), so reclamation rounds deflate
    /// memory and guest distress is reachable at all. The default mix is
    /// CPU-bound: servers run out of CPU long before memory, deflation
    /// only ever touches CPU, and no guest can OOM.
    fn memory_bound_cfg(arrivals_per_hour: f64) -> ClusterSimConfig {
        let mut cfg = test_cfg(true, arrivals_per_hour);
        cfg.manager.server_capacity =
            deflate_core::ResourceVector::new(16.0, 32_768.0, 400.0, 800.0);
        cfg.horizon = SimDuration::from_hours(6);
        cfg
    }

    #[test]
    fn unguarded_distress_kills_deterministically() {
        use crate::distress::DistressConfig;
        let mut cfg = memory_bound_cfg(150.0);
        cfg.manager.distress = DistressConfig::unguarded();
        let a = run_cluster_sim(&cfg);
        let b = run_cluster_sim(&cfg);
        assert_eq!(
            a.summary.to_string(),
            b.summary.to_string(),
            "distress runs must be deterministic"
        );
        assert!(
            a.stats.oom_kills > 0,
            "a loaded unguarded run must see guest OOM kills"
        );
        let counters = a.summary.get("counters").expect("counters");
        assert!(counters.get("cluster.oom_kills").is_some());
        assert!(counters.get("cluster.distress_seconds").is_some());
        assert!(counters.get("distress.lowpri_sample_seconds").is_some());
    }

    #[test]
    fn guarded_distress_reduces_kills() {
        use crate::distress::DistressConfig;
        let mut unguarded = memory_bound_cfg(150.0);
        unguarded.manager.distress = DistressConfig::unguarded();
        let mut guarded = unguarded.clone();
        guarded.manager.distress = DistressConfig::guarded();
        let u = run_cluster_sim(&unguarded);
        let g = run_cluster_sim(&guarded);
        assert!(
            u.stats.oom_kills > 0,
            "unguarded arm must see kills for the comparison to mean anything"
        );
        assert!(
            g.stats.oom_kills < u.stats.oom_kills,
            "guard loop must reduce kills: guarded {} vs unguarded {}",
            g.stats.oom_kills,
            u.stats.oom_kills
        );
    }

    #[test]
    fn soft_distress_slows_instead_of_killing() {
        use crate::distress::DistressConfig;
        // Without force-unplug the OS layer cannot cut below the resident
        // set, so reclamation lands on hypervisor overcommit: guests
        // swap and thrash (soft distress) but never OOM.
        let mut cfg = memory_bound_cfg(150.0);
        cfg.manager.distress = DistressConfig {
            force_unplug: false,
            ..DistressConfig::unguarded()
        };
        let a = run_cluster_sim(&cfg);
        let b = run_cluster_sim(&cfg);
        assert_eq!(a.summary.to_string(), b.summary.to_string());
        assert_eq!(a.stats.oom_kills, 0, "no OOM without force-unplug");
        let counters = a.summary.get("counters").expect("counters");
        let soft = counters
            .get("distress.soft_samples")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert!(soft > 0.0, "swap pressure must register as soft distress");
        assert!(counters.get("cluster.distress_seconds").is_some());
    }

    #[test]
    fn disabled_migration_knobs_change_nothing() {
        use crate::migration::MigrationPolicy;
        use hypervisor::MigrationConfig;
        // A disabled MigrationPolicy must be inert no matter how its
        // knobs are set: the run summary is byte-identical to the
        // default's and registers no migration keys.
        let mut cfg = test_cfg(true, 150.0);
        cfg.horizon = SimDuration::from_hours(6);
        let base = run_cluster_sim(&cfg);
        let mut twisted = cfg.clone();
        twisted.manager.migration = MigrationPolicy {
            enabled: false,
            session: MigrationConfig {
                bandwidth_mb_s: 10.0,
                stop_copy_mb: 1.0,
                ..MigrationConfig::default()
            },
            distress_rescue: false,
            defrag_interval: SimDuration::from_secs(30),
            max_defrag_per_round: 9,
        };
        let b = run_cluster_sim(&twisted);
        assert_eq!(base.summary.to_string(), b.summary.to_string());
        let text = base.summary.to_string();
        assert!(!text.contains("cluster.migration"));
        assert!(!text.contains("migration."));
        assert!(!text.contains("cluster.drains"));
        assert!(!text.contains("cluster.defrag"));

        // Under a fault plan, a crash warning without migration is inert
        // too: warnings only act through the drain path.
        let mut chaos = cfg.clone();
        chaos.manager.faults = simkit::FaultPlan::chaos(7);
        let chaos_base = run_cluster_sim(&chaos);
        let mut warned = chaos.clone();
        warned.manager.faults.crash_warning = SimDuration::from_secs(300);
        let w = run_cluster_sim(&warned);
        assert_eq!(chaos_base.summary.to_string(), w.summary.to_string());
    }

    #[test]
    fn distress_rescue_migrations_run_and_stay_deterministic() {
        use crate::distress::DistressConfig;
        use crate::migration::MigrationPolicy;
        let mut cfg = memory_bound_cfg(150.0);
        cfg.manager.distress = DistressConfig::guarded();
        cfg.manager.migration = MigrationPolicy::enabled();
        let a = run_cluster_sim(&cfg);
        let b = run_cluster_sim(&cfg);
        assert_eq!(
            a.summary.to_string(),
            b.summary.to_string(),
            "migration runs must be deterministic"
        );
        assert!(
            a.stats.migrations > 0,
            "a loaded distressed run must complete migrations"
        );
        let counters = a.summary.get("counters").expect("counters");
        let mb = counters
            .get("cluster.migration_mb")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert!(mb > 0.0, "migrations must ship bytes");
        assert!(counters.get("cluster.migrations_started").is_some());
    }

    #[test]
    fn crash_warning_drains_before_scripted_crash() {
        use crate::migration::MigrationPolicy;
        let mut cfg = memory_bound_cfg(60.0);
        cfg.manager.faults = simkit::FaultPlan {
            scheduled_server_crashes: vec![SimTime::ZERO + SimDuration::from_hours(3)],
            crash_warning: SimDuration::from_secs(600),
            ..simkit::FaultPlan::none()
        };
        cfg.manager.migration = MigrationPolicy::enabled();
        let r = run_cluster_sim(&cfg);
        assert_eq!(r.stats.server_crashes, 1, "the scripted crash must land");
        let counters = r.summary.get("counters").expect("counters");
        let drains = counters
            .get("cluster.drains")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert_eq!(drains, 1.0, "one warned crash, one drain");
        let started = counters
            .get("cluster.migrations_started")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert!(started > 0.0, "a loaded victim must evacuate VMs");
        let b = run_cluster_sim(&cfg);
        assert_eq!(r.summary.to_string(), b.summary.to_string());
    }

    #[test]
    fn disabled_partition_knobs_change_nothing() {
        use simkit::PartitionPlan;
        // A partition domain that can never open (prob 0) must be inert
        // no matter how its other knobs are set, even under an otherwise
        // active fault plan: byte-identical summary, no partition keys.
        let mut cfg = test_cfg(true, 150.0);
        cfg.horizon = SimDuration::from_hours(6);
        cfg.manager.faults = simkit::FaultPlan::chaos(7);
        let base = run_cluster_sim(&cfg);
        let mut twisted = cfg.clone();
        twisted.manager.faults.partitions = PartitionPlan {
            prob: 0.0,
            bucket: SimDuration::from_mins(7),
            duration: SimDuration::from_mins(90),
        };
        let b = run_cluster_sim(&twisted);
        assert_eq!(base.summary.to_string(), b.summary.to_string());
        let text = base.summary.to_string();
        assert!(!text.contains("partition"));
        assert!(!text.contains("cluster.fault_noops"));
    }

    #[test]
    fn partitions_open_heal_and_reconcile() {
        use simkit::PartitionPlan;
        // A pure-partition plan (no crashes, no message chaos): every
        // window that opens must heal by run end, and the run must be
        // deterministic.
        let mut cfg = test_cfg(true, 150.0);
        cfg.horizon = SimDuration::from_hours(12);
        cfg.manager.faults = simkit::FaultPlan {
            partitions: PartitionPlan {
                prob: 0.05,
                bucket: SimDuration::from_mins(30),
                duration: SimDuration::from_mins(20),
            },
            ..simkit::FaultPlan::none()
        };
        let a = run_cluster_sim(&cfg);
        let b = run_cluster_sim(&cfg);
        assert_eq!(
            a.summary.to_string(),
            b.summary.to_string(),
            "partition runs must be deterministic"
        );
        let counters = a.summary.get("counters").expect("counters");
        let opened = counters
            .get("cluster.partitions")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let healed = counters
            .get("cluster.partition_heals")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert!(opened > 0.0, "a loaded 12h run must open partitions");
        assert_eq!(opened, healed, "every window must heal by run end");
        // Without crashes or distress no server dies behind a partition
        // (load-pressure preemption still happens; that's orthogonal).
        assert_eq!(a.stats.server_crashes, 0);
    }

    #[test]
    fn partitions_with_chaos_and_distress_stay_consistent() {
        use crate::distress::DistressConfig;
        use simkit::PartitionPlan;
        // The full storm: crashes (some landing behind partitions), the
        // distress loop running autonomously on unreachable servers, and
        // anti-entropy reconciliation at every heal. Debug builds run
        // `assert_consistent` after each manager mutation, so simply
        // completing — deterministically — is the meat of this test.
        let mut cfg = memory_bound_cfg(150.0);
        cfg.manager.distress = DistressConfig::unguarded();
        cfg.manager.faults = simkit::FaultPlan {
            partitions: PartitionPlan {
                prob: 0.08,
                bucket: SimDuration::from_mins(30),
                duration: SimDuration::from_mins(25),
            },
            // The chaos default (~1 crash/day/100 servers) expects ~0
            // crashes over 6h on 20 servers; crank it so crashes land —
            // some of them behind open partition windows.
            server_crash_rate_per_hour: 2.0,
            ..simkit::FaultPlan::chaos(11)
        };
        let a = run_cluster_sim(&cfg);
        let b = run_cluster_sim(&cfg);
        assert_eq!(a.summary.to_string(), b.summary.to_string());
        let counters = a.summary.get("counters").expect("counters");
        let opened = counters
            .get("cluster.partitions")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let healed = counters
            .get("cluster.partition_heals")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert!(opened > 0.0);
        assert_eq!(opened, healed);
        assert!(a.stats.server_crashes > 0, "chaos must crash servers");
        // The divergence histogram registers once any window heals.
        assert!(a.summary.to_string().contains("partition.window_s"));
    }

    #[test]
    fn disabled_manager_knobs_change_nothing() {
        // A manager plan that can never crash (prob 0) must be inert no
        // matter how its other knobs are set, even under an otherwise
        // active fault plan: byte-identical summary, no failover keys.
        let mut cfg = test_cfg(true, 150.0);
        cfg.horizon = SimDuration::from_hours(6);
        cfg.manager.faults = simkit::FaultPlan::chaos(7);
        let base = run_cluster_sim(&cfg);
        let mut twisted = cfg.clone();
        twisted.manager.faults.manager = ManagerPlan {
            prob: 0.0,
            bucket: SimDuration::from_mins(7),
            downtime: SimDuration::from_mins(45),
            queue_cap: 3,
            overflow: AdmissionOverflow::Defer,
            retry: SimDuration::from_secs(15),
        };
        let b = run_cluster_sim(&twisted);
        assert_eq!(base.summary.to_string(), b.summary.to_string());
        let text = base.summary.to_string();
        assert!(!text.contains("manager_crash"));
        assert!(!text.contains("admission_queue"));
        assert!(!text.contains("cluster.recovery"));
        assert!(!text.contains("failover."));
    }

    #[test]
    fn manager_crashes_recover_and_drain_queue() {
        // A pure manager-crash plan: every crash must recover by run
        // end, a loaded run must park arrivals during downtime, and the
        // whole thing must be deterministic.
        let mut cfg = test_cfg(true, 150.0);
        cfg.horizon = SimDuration::from_hours(12);
        cfg.manager.faults = simkit::FaultPlan {
            manager: ManagerPlan {
                prob: 0.1,
                bucket: SimDuration::from_mins(30),
                downtime: SimDuration::from_mins(20),
                ..ManagerPlan::none()
            },
            ..simkit::FaultPlan::none()
        };
        let a = run_cluster_sim(&cfg);
        let b = run_cluster_sim(&cfg);
        assert_eq!(
            a.summary.to_string(),
            b.summary.to_string(),
            "failover runs must be deterministic"
        );
        assert!(
            a.stats.manager_crashes > 0,
            "a 12h run at 10%/30min must crash the manager"
        );
        let counters = a.summary.get("counters").expect("counters");
        let crashes = counters
            .get("fault.manager_crashes")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        let scans = counters
            .get("cluster.recovery_scans")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert_eq!(crashes, a.stats.manager_crashes as f64);
        assert_eq!(crashes, scans, "every crash must recover by run end");
        let parked = counters
            .get("cluster.admission_queue_parked")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        assert!(parked > 0.0, "a loaded run must park arrivals in downtime");
        let text = a.summary.to_string();
        assert!(text.contains("failover.downtime_s"));
        assert!(text.contains("failover.queue_wait_s"));
    }

    #[test]
    fn admission_overflow_policies_reject_or_defer() {
        // A tiny queue under long downtime: both policies overflow, but
        // Reject drops the excess outright while Defer retries it back
        // in — so the deferring run must admit strictly more VMs.
        let mk = |overflow| {
            let mut cfg = test_cfg(true, 150.0);
            cfg.horizon = SimDuration::from_hours(12);
            cfg.manager.faults = simkit::FaultPlan {
                manager: ManagerPlan {
                    prob: 0.1,
                    bucket: SimDuration::from_mins(30),
                    downtime: SimDuration::from_mins(30),
                    queue_cap: 4,
                    overflow,
                    retry: SimDuration::from_secs(120),
                },
                ..simkit::FaultPlan::none()
            };
            run_cluster_sim(&cfg)
        };
        let rej = mk(AdmissionOverflow::Reject);
        let def = mk(AdmissionOverflow::Defer);
        let count = |r: &ClusterSimResult, key: &str| {
            r.summary
                .get("counters")
                .and_then(|c| c.get(key))
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0)
        };
        assert!(
            count(&rej, "cluster.admission_queue_overflow") > 0.0,
            "cap 4 under 30min downtime must overflow"
        );
        assert!(count(&rej, "cluster.admission_queue_rejected") > 0.0);
        assert_eq!(count(&rej, "cluster.admission_queue_deferred"), 0.0);
        assert!(count(&def, "cluster.admission_queue_deferred") > 0.0);
        assert_eq!(count(&def, "cluster.admission_queue_rejected"), 0.0);
        assert!(
            def.stats.launched > rej.stats.launched,
            "deferred arrivals must come back: {} vs {}",
            def.stats.launched,
            rej.stats.launched
        );
    }

    #[test]
    fn sharded_cells_recover_managers_independently() {
        // Each cell recovers its own manager on a decorrelated schedule;
        // the merged result is thread-count invariant and the per-cell
        // crash counters sum to the fleet total.
        let mut cfg = test_cfg(true, 150.0);
        cfg.horizon = SimDuration::from_hours(12);
        cfg.manager.faults = simkit::FaultPlan {
            manager: ManagerPlan {
                prob: 0.1,
                bucket: SimDuration::from_mins(30),
                downtime: SimDuration::from_mins(20),
                ..ManagerPlan::none()
            },
            ..simkit::FaultPlan::none()
        };
        cfg.sharding = ShardingConfig::cells(4);
        cfg.sharding.threads = 1;
        let a = run_cluster_sim(&cfg);
        let mut wide = cfg.clone();
        wide.sharding.threads = 4;
        let b = run_cluster_sim(&wide);
        assert_eq!(
            a.summary.to_string(),
            b.summary.to_string(),
            "worker count must not change results"
        );
        assert!(a.stats.manager_crashes > 0);
        let per_cell = a.summary.get("per_cell").expect("sharded summary");
        let JsonValue::Arr(cells) = per_cell else {
            panic!("per_cell is an array");
        };
        let sum: f64 = cells
            .iter()
            .map(|c| {
                c.get("counters")
                    .and_then(|k| k.get("fault.manager_crashes"))
                    .and_then(|v| v.as_f64())
                    .unwrap_or(0.0)
            })
            .sum();
        assert_eq!(sum, a.stats.manager_crashes as f64);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The shared relaunch helper never lets a relaunched VM outlive
        /// its original departure: the new incarnation's lifetime ends
        /// exactly at the old `depart_at`, and a VM whose lifetime is
        /// spent by reboot time is not relaunched at all.
        #[test]
        fn relaunched_vm_never_outlives_original(
            life_s in 1u64..100_000,
            lost_s in 0u64..50_000,
            delay_s in 0u64..10_000,
        ) {
            let spec = deflate_core::ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
            let req = VmRequest {
                id: VmId(7),
                arrival: SimTime::ZERO,
                lifetime: SimDuration::from_secs(life_s),
                spec,
                type_name: "prop",
                low_priority: true,
                min_size: spec.scale(0.3),
            };
            let depart_at = SimTime::ZERO + req.lifetime;
            let lv = LiveVm { req, depart_at };
            let lost_at = SimTime::from_secs(lost_s);
            let restart_at = lost_at + SimDuration::from_secs(delay_s);
            match relaunch_request(lv, lost_at, restart_at) {
                Some(r) => {
                    assert!(depart_at > restart_at);
                    assert_eq!(r.arrival, lost_at, "arrival must hold the loss instant");
                    assert_eq!(
                        restart_at + r.lifetime,
                        depart_at,
                        "relaunch must depart exactly when the original would have"
                    );
                }
                None => assert!(
                    depart_at <= restart_at,
                    "only a spent lifetime may skip the relaunch"
                ),
            }
        }
    }

    /// The five golden-summary configurations of
    /// `tests/golden_summary.rs`, by name (`golden_cfgs_match_the_goldens`
    /// keeps the two copies in step).
    fn golden_cfgs() -> [(&'static str, ClusterSimConfig); 5] {
        use deflate_core::ResourceVector;
        use simkit::{FaultPlan, PartitionPlan};
        let plain = ClusterSimConfig {
            sharding: ShardingConfig::default(),
            manager: ClusterManagerConfig {
                n_servers: 20,
                ..ClusterManagerConfig::default()
            },
            trace: TraceConfig {
                arrivals_per_hour: 150.0,
                lifetime_median_mins: 120.0,
                ..TraceConfig::default()
            },
            horizon: SimDuration::from_hours(6),
        };
        let mut chaos = plain.clone();
        chaos.manager.faults = FaultPlan::chaos(7).scaled(2.0);
        let mut distress = plain.clone();
        distress.manager.server_capacity = ResourceVector::new(16.0, 32_768.0, 400.0, 800.0);
        distress.manager.distress = DistressConfig::guarded();
        let mut migration = distress.clone();
        migration.manager.migration = MigrationPolicy::enabled();
        let mut control_plane = migration.clone();
        control_plane.manager.migration.defrag_interval = SimDuration::from_mins(30);
        control_plane.manager.faults = FaultPlan {
            server_crash_rate_per_hour: 2.0,
            server_restart: SimDuration::from_mins(30),
            crash_warning: SimDuration::from_mins(5),
            partitions: PartitionPlan {
                prob: 0.3,
                bucket: SimDuration::from_mins(30),
                duration: SimDuration::from_mins(90),
            },
            manager: ManagerPlan {
                prob: 0.3,
                downtime: SimDuration::from_mins(30),
                queue_cap: 64,
                overflow: AdmissionOverflow::Defer,
                ..ManagerPlan::none()
            },
            ..FaultPlan::chaos(7).scaled(2.0)
        };
        [
            ("plain", plain),
            ("chaos", chaos),
            ("distress", distress),
            ("migration", migration),
            ("control_plane", control_plane),
        ]
    }

    #[test]
    fn golden_cfgs_match_the_goldens() {
        for (name, cfg) in golden_cfgs() {
            let path = format!("{}/tests/golden/{name}.json", env!("CARGO_MANIFEST_DIR"));
            let golden = std::fs::read_to_string(&path).expect("read golden");
            let got = run_cluster_sim(&cfg).summary.to_pretty();
            assert_eq!(got.trim(), golden.trim(), "{name}");
        }
    }

    /// Pins the rendered lifecycle trace, not just its counts: the
    /// FNV-1a hash of `TraceLog::to_json()` text after each golden run,
    /// with a capacity of 3000 records so four of the five runs drop
    /// records past the cap. Any change to a trace message, span kind,
    /// attribute, child span or to which records the cap keeps moves a
    /// hash.
    #[test]
    fn golden_trace_exports_are_pinned() {
        let expected = [
            ("plain", 0x786c_da48_c0e0_9cd2),
            ("chaos", 0x9ae1_2a73_58b1_8977),
            ("distress", 0x419f_130a_ba13_6ab4),
            ("migration", 0x5522_bb17_c081_01d5),
            ("control_plane", 0x31fb_c915_6b0c_4b33),
        ];
        let mut dropped = 0;
        let got: Vec<(&str, u64)> = golden_cfgs()
            .into_iter()
            .map(|(name, cfg)| {
                let horizon = SimTime::ZERO + cfg.horizon;
                let source = Source::Generator(Box::new(TraceGenerator::new(cfg.trace.clone())));
                let mut cell = SimCell::new(cfg.manager, horizon, Some(source), false);
                cell.manager.observability_mut().trace = simkit::TraceLog::with_capacity(3_000);
                cell.run_window(horizon);
                let log = cell.manager.log();
                dropped += log.dropped();
                (name, simkit::hash::fnv1a(&log.to_json().to_string()))
            })
            .collect();
        assert_eq!(got, expected, "a rendered trace export moved");
        assert!(dropped > 0, "the cap must drop records in some run");
    }

    #[test]
    fn placement_policies_all_work() {
        for p in PlacementPolicy::ALL {
            let mut cfg = test_cfg(true, 55.0);
            cfg.manager.placement = p;
            let r = run_cluster_sim(&cfg);
            assert!(r.stats.launched > 300, "{}: {}", p.name(), r.stats.launched);
            assert_eq!(r.server_overcommitment.len(), 20);
        }
    }
}
