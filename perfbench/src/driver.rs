//! The traced pass: drives a workload's trace through an event loop
//! owned by the benchmark and times every call into the simulator's
//! public API from outside.
//!
//! The loop is a `simkit::Scheduler`. For a fault-free single cell it
//! reproduces `run_cluster_replay` event for event: the same lazy
//! arrival chain, the same departure scheduling, the same calls into
//! `ClusterManager::launch` and `ClusterManager::exit`, so its final
//! `ClusterStats` must equal the replay's. Under a fault plan it
//! makes the same kinds of calls `SimCell` does, but does not copy its
//! relaunch or admission-queue logic: VMs lost to crashes or OOM kills
//! are not relaunched, and arrivals while the manager is down are
//! dropped (counted). Sharded configurations are driven as independent
//! cells of the same size on one thread, without the epoch barrier or
//! spills, which only companion runs can measure.
//!
//! A shadow `PlacementIndex` per cell answers the same placement query
//! the manager is about to make, so the placement layer's cost is timed
//! apart from the rest of `launch`.

use std::collections::{BTreeSet, HashMap};
use std::time::Instant;

use cluster::{
    AvailabilityMode, ClusterManager, ClusterSimConfig, ClusterStats, DistressConfig,
    DistressEvent, LaunchOutcome, MigrationPolicy, PlacementIndex, PlacementPolicy, VmRequest,
};
use deflate_core::{ServerId, VmId};
use simkit::{FaultInjector, Scheduler, SimRng, SimTime};

use crate::samples::Samples;

/// Consistency checks (`ClusterManager::assert_consistent` and
/// `PlacementIndex::assert_consistent`) run every this many events and
/// once at the end. Their time is kept out of the coverage ratio.
const CHECK_EVERY: u64 = 20_000;

/// Salt for the driver's own arrival-to-cell route.
const SALT_ROUTE: u64 = 0x7065_7266_726f;

enum Ev {
    Arrive(usize),
    Depart(usize, VmId),
    ServerCrash(u64),
    ServerUp(ServerId),
    DistressSample,
    MigrationDone(VmId),
    ServerDrain(u64),
    Defrag,
    PartitionStart(ServerId),
    PartitionEnd(ServerId),
    ManagerDown,
    ManagerUp,
}

/// Per-layer timings and counts gathered by one traced pass.
#[derive(Default)]
pub struct Layers {
    pub push: Samples,
    pub pop: Samples,
    pub choose: Samples,
    pub choose_none: Samples,
    pub free_tier: u64,
    pub refresh_ns: u64,
    pub refresh_calls: u64,
    pub decisions: u64,
    pub agree: u64,
    pub launch_free: Samples,
    pub launch_reclaim: Samples,
    pub launch_reject: Samples,
    pub deflations: u64,
    pub preemptions: u64,
    pub exit: Samples,
    pub reinflations: u64,
    pub distress: Samples,
    pub distress_events: u64,
    pub mig_begin: Samples,
    pub mig_finish: Samples,
    pub mig_commits: u64,
    pub defrag: Samples,
    pub isolate: Samples,
    pub heal: Samples,
    pub divergence: u64,
    pub mgr_crash: Samples,
    pub mgr_recover: Samples,
    pub fail_server: Samples,
    pub recover_server: Samples,
    /// Calls a partitioned or manager-less server handles alone
    /// (`autonomous_*`, `recover_server_isolated`).
    pub autonomous: Samples,
    pub summary: Samples,
    pub dropped_arrivals: u64,
    pub checks: u64,
    pub check_s: f64,
}

impl Layers {
    /// Wall time attributed to timed calls.
    pub fn timed_s(&self) -> f64 {
        let samples = [
            &self.push,
            &self.pop,
            &self.choose,
            &self.launch_free,
            &self.launch_reclaim,
            &self.launch_reject,
            &self.exit,
            &self.distress,
            &self.mig_begin,
            &self.mig_finish,
            &self.defrag,
            &self.isolate,
            &self.heal,
            &self.mgr_crash,
            &self.mgr_recover,
            &self.fail_server,
            &self.recover_server,
            &self.autonomous,
        ];
        samples.iter().map(|s| s.total_s()).sum::<f64>() + self.refresh_ns as f64 * 1e-9
    }
}

/// What one traced pass produced.
pub struct DriverRun {
    pub layers: Layers,
    /// Final manager counters, summed over cells.
    pub stats: ClusterStats,
    /// The run summary of each cell's manager.
    pub summaries: Vec<simkit::JsonValue>,
    /// Wall time of the event loop, consistency checks excluded.
    pub wall_s: f64,
    pub events: u64,
}

impl DriverRun {
    /// The record of a pass that did not complete.
    pub fn empty() -> DriverRun {
        DriverRun {
            layers: Layers::default(),
            stats: ClusterStats::default(),
            summaries: Vec::new(),
            wall_s: 0.0,
            events: 0,
        }
    }
}

struct Cell {
    mgr: ClusterManager,
    shadow: PlacementIndex,
}

struct Driver<'a> {
    cells: Vec<Cell>,
    reqs: &'a [VmRequest],
    horizon: SimTime,
    policy: PlacementPolicy,
    first_mode: AvailabilityMode,
    rng: SimRng,
    route_seed: u64,
    injector: Option<FaultInjector>,
    distress: DistressConfig,
    migration: MigrationPolicy,
    /// Scheduled departure per running VM, kept under a fault plan or
    /// the distress loop to skip departures a slowdown superseded.
    live: Option<HashMap<VmId, SimTime>>,
    drained: HashMap<u64, ServerId>,
    net_open: BTreeSet<u64>,
    t: Layers,
    events: u64,
    last_exit: Instant,
}

/// Nanoseconds since `t`.
fn ns(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Runs the traced pass of `cfg` over `reqs`, driving `cells` cells.
pub fn run(cfg: &ClusterSimConfig, reqs: &[VmRequest], cells: usize) -> DriverRun {
    let n = cfg.manager.n_servers;
    let cells_n = cells.clamp(1, n);
    let cells: Vec<Cell> = (0..cells_n)
        .map(|i| {
            let mut m = cfg.manager.clone();
            m.n_servers = n / cells_n + usize::from(i < n % cells_n);
            let mgr = ClusterManager::new(m);
            let shadow = PlacementIndex::new(mgr.servers());
            Cell { mgr, shadow }
        })
        .collect();
    let faults = &cfg.manager.faults;
    let injector = (cells_n == 1 && !faults.is_none()).then(|| FaultInjector::new(faults.clone()));
    let distress = cfg.manager.distress;
    let migration = cfg.manager.migration;
    let track_live = injector.is_some() || !distress.is_none();
    let mut d = Driver {
        cells,
        reqs,
        horizon: SimTime::ZERO + cfg.horizon,
        policy: cfg.manager.placement,
        first_mode: if cfg.manager.deflation_enabled {
            AvailabilityMode::Deflation
        } else {
            AvailabilityMode::PreemptionOnly
        },
        rng: SimRng::seed_from_u64(cfg.manager.seed),
        route_seed: cfg.trace.seed,
        injector,
        distress,
        migration,
        live: track_live.then(HashMap::new),
        drained: HashMap::new(),
        net_open: BTreeSet::new(),
        t: Layers::default(),
        events: 0,
        last_exit: Instant::now(),
    };

    let mut sched: Scheduler<Ev> = Scheduler::new();
    d.schedule_initial(&mut sched);
    let t0 = Instant::now();
    d.last_exit = Instant::now();
    let horizon = d.horizon;
    simkit::run_until(&mut sched, horizon, |sched, now, ev| {
        let entry = Instant::now();
        d.t.pop.push((entry - d.last_exit).as_nanos() as u64);
        d.handle(sched, now, ev);
        d.events += 1;
        if d.events.is_multiple_of(CHECK_EVERY) {
            d.check();
        }
        d.last_exit = Instant::now();
    });
    let wall_s = t0.elapsed().as_secs_f64() - d.t.check_s;
    d.check();

    let mut stats = ClusterStats::default();
    let mut summaries = Vec::new();
    for c in &mut d.cells {
        stats.absorb(&c.mgr.stats());
        let mgr = &mut c.mgr;
        summaries.push(d.t.summary.time(|| mgr.run_summary(horizon, "cluster_sim")));
    }
    DriverRun {
        layers: d.t,
        stats,
        summaries,
        wall_s,
        events: d.events,
    }
}

impl Driver<'_> {
    /// The initial event list, in the order `SimCell` builds it.
    fn schedule_initial(&mut self, sched: &mut Scheduler<Ev>) {
        if let Some(first) = self.reqs.first() {
            sched.at(first.arrival, Ev::Arrive(0));
        }
        let h = self.horizon;
        if let Some(inj) = &self.injector {
            for (k, t) in inj.server_crash_times(h).into_iter().enumerate() {
                sched.at(t, Ev::ServerCrash(k as u64));
            }
            if !inj.plan().partitions.is_none() {
                for s in 0..self.cells[0].mgr.servers().len() as u64 {
                    for (start, end) in inj.partition_windows(s, h) {
                        sched.at(start, Ev::PartitionStart(ServerId(s)));
                        sched.at(end.min(h), Ev::PartitionEnd(ServerId(s)));
                    }
                }
            }
            if !inj.plan().manager.is_none() {
                for (start, end) in inj.manager_windows(h) {
                    sched.at(start, Ev::ManagerDown);
                    sched.at(end.min(h), Ev::ManagerUp);
                }
            }
        }
        if !self.distress.is_none() {
            let first = SimTime::ZERO + self.distress.sample_interval;
            if first <= h {
                sched.at(first, Ev::DistressSample);
            }
        }
        if let Some(inj) = self.injector.as_ref().filter(|_| !self.migration.is_none()) {
            let warn = inj.plan().crash_warning;
            if !warn.is_zero() {
                for (k, t) in inj.server_crash_times(h).into_iter().enumerate() {
                    let at = if t >= SimTime::ZERO + warn {
                        t - warn
                    } else {
                        SimTime::ZERO
                    };
                    sched.at(at, Ev::ServerDrain(k as u64));
                }
            }
        }
        if !self.migration.is_none() && !self.migration.defrag_interval.is_zero() {
            let first = SimTime::ZERO + self.migration.defrag_interval;
            if first <= h {
                sched.at(first, Ev::Defrag);
            }
        }
    }

    fn push(&mut self, sched: &mut Scheduler<Ev>, at: SimTime, ev: Ev) {
        let t = Instant::now();
        sched.at(at, ev);
        self.t.push.push(ns(t));
    }

    fn home(&self, id: VmId) -> usize {
        let n = self.cells.len();
        if n == 1 {
            0
        } else {
            (simkit::fault::decide(self.route_seed, SALT_ROUTE, id.0, 0) % n as u64) as usize
        }
    }

    fn refresh(&mut self, c: usize, si: usize) {
        let cell = &mut self.cells[c];
        let t = Instant::now();
        cell.shadow.refresh(si, &cell.mgr.servers()[si]);
        self.t.refresh_ns += ns(t);
        self.t.refresh_calls += 1;
    }

    /// Refreshes every server of the (single) fault-injected cell, after
    /// events that may touch many servers at once.
    fn refresh_all(&mut self) {
        let cell = &mut self.cells[0];
        let servers = cell.mgr.servers();
        let t = Instant::now();
        for (i, s) in servers.iter().enumerate() {
            cell.shadow.refresh(i, s);
        }
        self.t.refresh_ns += ns(t);
        self.t.refresh_calls += servers.len() as u64;
    }

    fn check(&mut self) {
        let t = Instant::now();
        for c in &self.cells {
            c.mgr.assert_consistent();
            c.shadow.assert_consistent(c.mgr.servers());
        }
        self.t.checks += 1;
        self.t.check_s += t.elapsed().as_secs_f64();
    }

    fn live_remove(&mut self, id: &VmId) {
        if let Some(live) = &mut self.live {
            live.remove(id);
        }
    }

    /// Stretches a thrashing VM's remaining lifetime the way `SimCell`
    /// does and schedules its new departure.
    fn stretch(&mut self, sched: &mut Scheduler<Ev>, vm: VmId, perf: f64) {
        let stretch = self
            .distress
            .sample_interval
            .mul_f64(1.0 / perf.max(0.05) - 1.0);
        let Some(at) = self.live.as_mut().and_then(|l| l.get_mut(&vm)) else {
            return;
        };
        *at += stretch;
        let at = *at;
        self.push(sched, at, Ev::Depart(0, vm));
    }

    fn up_servers(&self) -> Vec<usize> {
        let servers = self.cells[0].mgr.servers();
        (0..servers.len()).filter(|&i| servers[i].is_up()).collect()
    }

    fn injector(&self) -> &FaultInjector {
        self.injector
            .as_ref()
            .expect("fault events only exist under a fault plan")
    }

    fn handle(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, ev: Ev) {
        match ev {
            Ev::Arrive(i) => {
                let reqs = self.reqs;
                let req = &reqs[i];
                let c = self.home(req.id);
                if self.cells[c].mgr.manager_down() {
                    self.t.dropped_arrivals += 1;
                } else {
                    self.launch(sched, now, c, req);
                }
                if let Some(next) = reqs.get(i + 1) {
                    if next.arrival <= self.horizon {
                        self.push(sched, next.arrival, Ev::Arrive(i + 1));
                    }
                }
            }
            Ev::Depart(c, id) => self.depart(now, c, id),
            Ev::ServerCrash(k) => {
                let pinned = self
                    .drained
                    .remove(&k)
                    .filter(|sid| self.cells[0].mgr.servers()[sid.0 as usize].is_up());
                let sid = pinned.or_else(|| {
                    let ups = self.up_servers();
                    (!ups.is_empty())
                        .then(|| ServerId(ups[self.injector().crash_victim(k, ups.len())] as u64))
                });
                if let Some(sid) = sid {
                    let mgr = &mut self.cells[0].mgr;
                    let lost = if mgr.is_partitioned(sid) {
                        self.t.autonomous.time(|| mgr.autonomous_crash(now, sid))
                    } else {
                        let f = self
                            .t
                            .fail_server
                            .time(|| mgr.fail_server(now, sid))
                            .expect("victim is up");
                        f.lost_high.into_iter().chain(f.lost_low).collect()
                    };
                    for id in &lost {
                        self.live_remove(id);
                    }
                    let restart = self.injector().plan().server_restart;
                    self.push(sched, now + restart, Ev::ServerUp(sid));
                    self.refresh_all();
                }
            }
            Ev::ServerUp(sid) => {
                let mgr = &mut self.cells[0].mgr;
                if mgr.is_partitioned(sid) {
                    self.t.autonomous.time(|| mgr.autonomous_restart(now, sid));
                } else if mgr.manager_down() {
                    self.t
                        .autonomous
                        .time(|| mgr.recover_server_isolated(now, sid));
                } else {
                    self.t.recover_server.time(|| mgr.recover_server(now, sid));
                }
                self.refresh_all();
            }
            Ev::DistressSample => {
                let mgr = &mut self.cells[0].mgr;
                let devs = self.t.distress.time(|| mgr.sample_distress(now));
                self.t.distress_events += devs.len() as u64;
                for dev in devs {
                    match dev {
                        DistressEvent::OomKill { vm, .. } => self.live_remove(&vm),
                        DistressEvent::Slowdown { vm, perf } => self.stretch(sched, vm, perf),
                        DistressEvent::Migration { vm, total } => {
                            self.push(sched, now + total, Ev::MigrationDone(vm));
                        }
                    }
                }
                for sid in self.cells[0].mgr.partitioned_servers() {
                    let mgr = &mut self.cells[0].mgr;
                    let devs = self.t.autonomous.time(|| mgr.autonomous_sample(now, sid));
                    for dev in devs {
                        match dev {
                            DistressEvent::OomKill { vm, .. } => self.live_remove(&vm),
                            DistressEvent::Slowdown { vm, perf } => self.stretch(sched, vm, perf),
                            DistressEvent::Migration { .. } => {}
                        }
                    }
                }
                self.refresh_all();
                let next = now + self.distress.sample_interval;
                if next <= self.horizon {
                    self.push(sched, next, Ev::DistressSample);
                }
            }
            Ev::MigrationDone(vm) => {
                let mgr = &mut self.cells[0].mgr;
                if self
                    .t
                    .mig_finish
                    .time(|| mgr.finish_migration(now, vm))
                    .is_some()
                {
                    self.t.mig_commits += 1;
                }
                self.refresh_all();
            }
            Ev::ServerDrain(k) => {
                let ups = self.up_servers();
                if !ups.is_empty() {
                    let si = ups[self.injector().crash_victim(k, ups.len())];
                    self.drained.insert(k, ServerId(si as u64));
                    // `drain_server` minus its bookkeeping: one
                    // `begin_migration` per hosted VM, in id order.
                    let server = &self.cells[0].mgr.servers()[si];
                    if server.placeable() {
                        let mut ids: Vec<VmId> = server.vms().map(|vm| vm.id()).collect();
                        ids.sort_unstable_by_key(|v| v.0);
                        for vm in ids {
                            let mgr = &mut self.cells[0].mgr;
                            if let Some(total) =
                                self.t.mig_begin.time(|| mgr.begin_migration(now, vm))
                            {
                                self.push(sched, now + total, Ev::MigrationDone(vm));
                            }
                        }
                    }
                    self.refresh_all();
                }
            }
            Ev::Defrag => {
                let mgr = &mut self.cells[0].mgr;
                for (vm, total) in self.t.defrag.time(|| mgr.defrag_round(now)) {
                    self.push(sched, now + total, Ev::MigrationDone(vm));
                }
                let next = now + self.migration.defrag_interval;
                if next <= self.horizon {
                    self.push(sched, next, Ev::Defrag);
                }
                self.refresh_all();
            }
            Ev::PartitionStart(sid) => {
                self.net_open.insert(sid.0);
                let mgr = &mut self.cells[0].mgr;
                if !mgr.manager_down() {
                    self.t.isolate.time(|| mgr.partition_server(now, sid));
                    self.refresh_all();
                }
            }
            Ev::PartitionEnd(sid) => {
                self.net_open.remove(&sid.0);
                let mgr = &mut self.cells[0].mgr;
                if !mgr.manager_down() && mgr.is_partitioned(sid) {
                    if let Some(out) = self.t.heal.time(|| mgr.heal_server(now, sid)) {
                        self.t.divergence += out.divergence as u64;
                        for id in out.exited.iter().chain(&out.lost_low) {
                            self.live_remove(id);
                        }
                    }
                    self.refresh_all();
                }
            }
            Ev::ManagerDown => {
                let mgr = &mut self.cells[0].mgr;
                self.t.mgr_crash.time(|| mgr.crash_manager(now));
                self.refresh_all();
            }
            Ev::ManagerUp => {
                let still: Vec<ServerId> = self.net_open.iter().map(|s| ServerId(*s)).collect();
                let mgr = &mut self.cells[0].mgr;
                self.t.mgr_recover.time(|| mgr.recover_manager(now, &still));
                self.refresh_all();
            }
        }
    }

    /// One arrival: the shadow placement query, then the manager's
    /// launch, classified by what it did to the manager's counters.
    fn launch(&mut self, sched: &mut Scheduler<Ev>, now: SimTime, c: usize, req: &VmRequest) {
        let Driver {
            cells,
            t,
            rng,
            policy,
            first_mode,
            ..
        } = self;
        let cell = &mut cells[c];
        let servers = cell.mgr.servers();
        let t0 = Instant::now();
        let mut choice = cell
            .shadow
            .choose(*policy, servers, &req.spec, *first_mode, rng);
        if choice.is_none() && !req.low_priority {
            choice = cell.shadow.choose(
                *policy,
                servers,
                &req.spec,
                AvailabilityMode::PreemptionOnly,
                rng,
            );
        }
        let dt = ns(t0);
        t.choose.push(dt);
        match choice {
            None => t.choose_none.push(dt),
            Some(x) if servers[x].free().dominates(&req.spec) => t.free_tier += 1,
            Some(_) => {}
        }

        let before = cell.mgr.stats();
        let t0 = Instant::now();
        let out = cell.mgr.launch(now, req);
        let dt = ns(t0);
        let after = cell.mgr.stats();
        let deflated = after.deflations - before.deflations;
        let preempted = after.preempted - before.preempted;
        if after.rejected > before.rejected {
            t.launch_reject.push(dt);
        } else if deflated + preempted > 0 {
            t.launch_reclaim.push(dt);
            t.deflations += deflated;
            t.preemptions += preempted;
        } else {
            t.launch_free.push(dt);
        }
        t.decisions += 1;
        let placed = match &out {
            LaunchOutcome::Placed { server, .. } => Some(server.0 as usize),
            LaunchOutcome::Rejected => None,
        };
        if placed == choice {
            t.agree += 1;
        }
        // A reject after a choice rolled that server back: refresh it.
        if let Some(si) = placed.or(choice) {
            self.refresh(c, si);
        }
        if placed.is_some() {
            let at = now + req.lifetime;
            self.push(sched, at, Ev::Depart(c, req.id));
            if let Some(live) = &mut self.live {
                live.insert(req.id, at);
            }
        }
    }

    fn depart(&mut self, now: SimTime, c: usize, id: VmId) {
        if let Some(live) = &mut self.live {
            if live.get(&id).is_some_and(|at| *at > now) {
                return;
            }
            live.remove(&id);
            let mgr = &mut self.cells[c].mgr;
            if let Some(sid) = mgr.partitioned_host(id) {
                self.t.autonomous.time(|| mgr.autonomous_exit(now, id));
                self.refresh(c, sid.0 as usize);
                return;
            }
        }
        let mgr = &mut self.cells[c].mgr;
        let before = mgr.stats().reinflations;
        let t0 = Instant::now();
        let out = mgr.exit(now, id);
        self.t.exit.push(ns(t0));
        self.t.reinflations += mgr.stats().reinflations - before;
        if let Some(sid) = out {
            self.refresh(c, sid.0 as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::outputs::{fnv1a, Outputs};
    use crate::workload::{generate, Workload};

    #[test]
    fn driver_reproduces_a_fault_free_replay() {
        // A tenth of the fleet at the same density saturates just as
        // the full one does, in a tenth of the time.
        let mut cfg = Workload::PaperFleet3k.config(5);
        cfg.manager.n_servers = 300;
        cfg.trace.arrivals_per_hour /= 10.0;
        let reqs = generate(&cfg);
        let d = run(&cfg, &reqs, 1);
        let replay = cluster::run_cluster_replay(&cfg, reqs);
        let r = Outputs::of(&replay);
        let s = d.stats;
        assert_eq!(
            (
                s.launched,
                s.rejected,
                s.preempted,
                s.deflations,
                s.reinflations
            ),
            (
                r.launched,
                r.rejected,
                r.preempted,
                r.deflations,
                r.reinflations
            )
        );
        assert_eq!(fnv1a(&d.summaries[0].to_string()), r.summary_hash);
        assert_eq!(d.layers.agree, d.layers.decisions);
        assert!(
            d.layers.launch_reclaim.calls() > 0,
            "the fleet must saturate"
        );
    }

    #[test]
    fn driver_survives_every_fault_domain() {
        let mut cfg = Workload::Chaos200.config(5);
        cfg.horizon = simkit::SimDuration::from_hours(24);
        let reqs = generate(&cfg);
        let d = run(&cfg, &reqs, 1);
        let l = &d.layers;
        assert!(l.checks > 0);
        for (name, s) in [
            ("distress", &l.distress),
            ("isolate", &l.isolate),
            ("heal", &l.heal),
            ("finish", &l.mig_finish),
            ("defrag", &l.defrag),
        ] {
            assert!(s.calls() > 0, "no {name} calls");
        }
    }
}
