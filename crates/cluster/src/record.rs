//! The cluster manager's lifecycle trace, as typed records.
//!
//! Every trace site in [`ClusterManager`](crate::manager::ClusterManager)
//! appends one [`ClusterRecord`]: a value made of ids, resource vectors,
//! counts and static strings. Nothing is formatted while the simulation
//! runs. A record becomes the flat [`TraceEvent`] or the [`Span`] tree
//! the manager used to build eagerly only when a reader renders it
//! ([`TraceLog::events`](simkit::TraceLog::events),
//! [`TraceLog::spans`](simkit::TraceLog::spans),
//! [`TraceLog::to_json`](simkit::TraceLog::to_json)).
//!
//! The rendered text is part of the behaviour contract: messages, span
//! kinds, attribute names and order, and child spans equal what the
//! eager trace produced, pinned by hash over the five golden runs.

use deflate_core::{CascadeOutcome, DeflateError, ResourceVector, ServerId, VmId};
use hypervisor::{make_room_span, ReclaimReport};
use simkit::{Rendered, Shape, SimDuration, SimTime, Span, TraceEvent, TraceRecord};

/// One `make_room` that deflated or preempted something: the parts of
/// its [`ReclaimReport`] that the `server.make_room` span shows, one
/// `(VmId, CascadeOutcome)` pair per deflated VM (the paper's Fig. 3
/// cascade per layer) plus the preempted ids.
#[derive(Debug)]
pub struct MakeRoom {
    /// When the reclamation started.
    pub at: SimTime,
    /// The server that made room.
    pub server: ServerId,
    /// Reclamation latency (the slowest per-VM cascade).
    pub latency: SimDuration,
    /// Whether the demand became satisfiable.
    pub satisfied: bool,
    /// Resources freed by deflation and preemption.
    pub freed: ResourceVector,
    /// Per-VM cascade outcomes.
    pub outcomes: Box<[(VmId, CascadeOutcome)]>,
    /// VMs preempted because deflation fell short.
    pub preempted: Box<[VmId]>,
}

impl MakeRoom {
    /// Moves the per-VM outcomes out of a committed report and copies
    /// the rest of what the span shows; the preempted ids stay, since
    /// the launch hands them on to its caller.
    pub fn take(at: SimTime, server: ServerId, report: &mut ReclaimReport) -> Self {
        MakeRoom {
            at,
            server,
            latency: report.latency,
            satisfied: report.satisfied,
            freed: report.freed,
            outcomes: std::mem::take(&mut report.outcomes).into_boxed_slice(),
            preempted: report.preempted.as_slice().into(),
        }
    }

    /// The `server.make_room` span, as [`ReclaimReport::to_span`] builds
    /// it.
    pub fn to_span(&self) -> Span {
        make_room_span(
            self.at,
            self.server,
            self.latency,
            self.satisfied,
            &self.freed,
            &self.outcomes,
            &self.preempted,
        )
    }
}

/// One lifecycle-trace record of the cluster manager. Event variants
/// render to a [`TraceEvent`] in the category named in their doc;
/// `…Span` variants and the others documented with a dotted kind render
/// to a root [`Span`].
#[derive(Debug)]
pub enum ClusterRecord {
    /// `reject`: a request found no room.
    Reject {
        at: SimTime,
        vm: VmId,
        why: &'static str,
    },
    /// `deflate`: one VM's cascade gave `by` to make room for `for_vm`.
    Deflate {
        at: SimTime,
        vm: VmId,
        by: ResourceVector,
        for_vm: VmId,
    },
    /// `preempt`: a VM was preempted to make room for `for_vm`.
    Preempt { at: SimTime, vm: VmId, for_vm: VmId },
    /// `launch`: a VM was placed.
    Launch {
        at: SimTime,
        vm: VmId,
        server: ServerId,
        type_name: &'static str,
    },
    /// `exit`: a VM left on its own.
    Exit {
        at: SimTime,
        vm: VmId,
        freed: ResourceVector,
    },
    /// `oom_kill`: the guest OOM killer took a VM.
    OomKill {
        at: SimTime,
        vm: VmId,
        freed: ResourceVector,
    },
    /// `reinflate`: an exit handed `by` back to a deflated VM.
    Reinflate {
        at: SimTime,
        vm: VmId,
        by: ResourceVector,
    },
    /// `emergency_reinflate`: a distressed VM was granted memory.
    EmergencyReinflate {
        at: SimTime,
        vm: VmId,
        granted_mb: f64,
        needed_mb: f64,
    },
    /// `migrate_start`: a live migration reserved its destination.
    MigrateStart {
        at: SimTime,
        vm: VmId,
        src: ServerId,
        dst: ServerId,
        rounds: u32,
    },
    /// `migrate`: a live migration committed.
    Migrate {
        at: SimTime,
        vm: VmId,
        src: ServerId,
        dst: ServerId,
    },
    /// `migrate_abort`: a parked migration released its hold on `dst`.
    MigrateAbort {
        at: SimTime,
        vm: VmId,
        dst: ServerId,
    },
    /// `partition`: a server became unreachable.
    Partition { at: SimTime, server: ServerId },
    /// `partition_heal`: a partitioned server reconciled.
    PartitionHeal {
        at: SimTime,
        server: ServerId,
        divergence: usize,
    },
    /// `manager_crash`: the manager went down.
    ManagerCrash { at: SimTime, isolated: usize },
    /// `server_up`: a crashed server rejoined placement.
    ServerUp { at: SimTime, server: ServerId },
    /// `server_up`: a server rebooted while the manager was down.
    ServerUpIsolated { at: SimTime, server: ServerId },
    /// `manager_recover`: the manager's inventory scan finished.
    ManagerRecover {
        at: SimTime,
        scanned: u64,
        divergence: u64,
    },
    /// `unresponsive`: a VM's agent missed too many cascade deadlines.
    Unresponsive {
        at: SimTime,
        vm: VmId,
        missed_deadlines: u32,
    },
    /// `server_crash`: a server died with its VMs.
    ServerCrash {
        at: SimTime,
        server: ServerId,
        lost_high: usize,
        lost_low: usize,
    },
    /// `server.make_room`, with one `cascade.deflate` child per VM.
    MakeRoom(Box<MakeRoom>),
    /// `cluster.agent_unresponsive`.
    AgentUnresponsive {
        at: SimTime,
        vm: VmId,
        missed_deadlines: u32,
    },
    /// `cluster.server_crash`.
    ServerCrashSpan {
        at: SimTime,
        server: ServerId,
        lost_high: usize,
        lost_low: usize,
    },
    /// `cluster.guest_oom_kill`.
    GuestOomKill {
        at: SimTime,
        vm: VmId,
        server: ServerId,
    },
    /// `cluster.breaker_open`.
    BreakerOpen {
        at: SimTime,
        vm: VmId,
        trips: u32,
        hold_samples: u32,
    },
    /// `cluster.emergency_reinflate`.
    EmergencyReinflateSpan {
        at: SimTime,
        vm: VmId,
        server: ServerId,
        needed_mb: f64,
        granted_mb: f64,
    },
    /// `cluster.migration`.
    Migration {
        at: SimTime,
        vm: VmId,
        src: ServerId,
        dst: ServerId,
        rounds: u32,
        copied_mb: f64,
    },
    /// `cluster.drain`.
    Drain {
        at: SimTime,
        server: ServerId,
        hosted: usize,
        moves: usize,
    },
    /// `cluster.defrag`.
    Defrag {
        at: SimTime,
        server: ServerId,
        moves: usize,
    },
    /// `cluster.partition`.
    PartitionSpan {
        at: SimTime,
        server: ServerId,
        hosted: usize,
    },
    /// `cluster.partition_heal`.
    PartitionHealSpan {
        at: SimTime,
        server: ServerId,
        divergence: usize,
        exited: usize,
        oom_killed: usize,
        lost_high: usize,
        lost_low: usize,
    },
    /// `cluster.manager_crash`.
    ManagerCrashSpan { at: SimTime, isolated: usize },
    /// `cluster.manager_recover`.
    ManagerRecoverSpan {
        at: SimTime,
        scanned: u64,
        divergence: u64,
    },
}

impl ClusterRecord {
    /// The category or span kind, as [`TraceRecord::shape`] reports it.
    fn kind(&self) -> Shape<'static> {
        use ClusterRecord::*;
        match self {
            Reject { .. } => Shape::Event("reject"),
            Deflate { .. } => Shape::Event("deflate"),
            Preempt { .. } => Shape::Event("preempt"),
            Launch { .. } => Shape::Event("launch"),
            Exit { .. } => Shape::Event("exit"),
            OomKill { .. } => Shape::Event("oom_kill"),
            Reinflate { .. } => Shape::Event("reinflate"),
            EmergencyReinflate { .. } => Shape::Event("emergency_reinflate"),
            MigrateStart { .. } => Shape::Event("migrate_start"),
            Migrate { .. } => Shape::Event("migrate"),
            MigrateAbort { .. } => Shape::Event("migrate_abort"),
            Partition { .. } => Shape::Event("partition"),
            PartitionHeal { .. } => Shape::Event("partition_heal"),
            ManagerCrash { .. } => Shape::Event("manager_crash"),
            ServerUp { .. } | ServerUpIsolated { .. } => Shape::Event("server_up"),
            ManagerRecover { .. } => Shape::Event("manager_recover"),
            Unresponsive { .. } => Shape::Event("unresponsive"),
            ServerCrash { .. } => Shape::Event("server_crash"),
            MakeRoom(_) => Shape::Span("server.make_room"),
            AgentUnresponsive { .. } => Shape::Span("cluster.agent_unresponsive"),
            ServerCrashSpan { .. } => Shape::Span("cluster.server_crash"),
            GuestOomKill { .. } => Shape::Span("cluster.guest_oom_kill"),
            BreakerOpen { .. } => Shape::Span("cluster.breaker_open"),
            EmergencyReinflateSpan { .. } => Shape::Span("cluster.emergency_reinflate"),
            Migration { .. } => Shape::Span("cluster.migration"),
            Drain { .. } => Shape::Span("cluster.drain"),
            Defrag { .. } => Shape::Span("cluster.defrag"),
            PartitionSpan { .. } => Shape::Span("cluster.partition"),
            PartitionHealSpan { .. } => Shape::Span("cluster.partition_heal"),
            ManagerCrashSpan { .. } => Shape::Span("cluster.manager_crash"),
            ManagerRecoverSpan { .. } => Shape::Span("cluster.manager_recover"),
        }
    }

    /// An event variant's time and message.
    fn message(&self) -> (SimTime, String) {
        use ClusterRecord::*;
        match *self {
            Reject { at, vm, why } => (at, format!("{vm} ({why})")),
            Deflate { at, vm, by, for_vm } => (at, format!("{vm} by {by} for {for_vm}")),
            Preempt { at, vm, for_vm } => (at, format!("{vm} for {for_vm}")),
            Launch {
                at,
                vm,
                server,
                type_name,
            } => (at, format!("{vm} on {server} ({type_name})")),
            Exit { at, vm, freed } | OomKill { at, vm, freed } => {
                (at, format!("{vm} freeing {freed}"))
            }
            Reinflate { at, vm, by } => (at, format!("{vm} by {by}")),
            EmergencyReinflate {
                at,
                vm,
                granted_mb,
                needed_mb,
            } => (
                at,
                format!("{vm} granted {granted_mb:.0} MiB of {needed_mb:.0} needed"),
            ),
            MigrateStart {
                at,
                vm,
                src,
                dst,
                rounds,
            } => (
                at,
                format!("{vm} from {src} to {dst} ({rounds} rounds planned)"),
            ),
            Migrate { at, vm, src, dst } => (at, format!("{vm} from {src} to {dst}")),
            MigrateAbort { at, vm, dst } => (at, format!("{vm} (hold on {dst} released)")),
            Partition { at, server } => (at, format!("{server} unreachable")),
            PartitionHeal {
                at,
                server,
                divergence,
            } => (
                at,
                format!("{server} reconciled: {divergence} divergent events"),
            ),
            ManagerCrash { at, isolated } => {
                (at, format!("manager down, {isolated} servers autonomous"))
            }
            ServerUp { at, server } => (at, format!("{server} rejoined placement")),
            ServerUpIsolated { at, server } => (at, format!("{server} rebooted, manager down")),
            ManagerRecover {
                at,
                scanned,
                divergence,
            } => (
                at,
                format!("inventory scan over {scanned} servers, {divergence} divergent events"),
            ),
            Unresponsive {
                at,
                vm,
                missed_deadlines,
            } => (
                at,
                DeflateError::AgentUnresponsive {
                    vm,
                    missed_deadlines,
                }
                .to_string(),
            ),
            ServerCrash {
                at,
                server,
                lost_high,
                lost_low,
            } => (
                at,
                format!("{server} lost {lost_high} high-pri / {lost_low} low-pri VMs"),
            ),
            _ => unreachable!("{:?} renders to a span", self.kind()),
        }
    }

    /// A span variant's root span, of kind `kind`.
    fn span(&self, kind: &'static str) -> Span {
        use ClusterRecord::*;
        match *self {
            MakeRoom(ref room) => room.to_span(),
            AgentUnresponsive {
                at,
                vm,
                missed_deadlines,
            } => Span::new(kind, at)
                .with_attr("vm", vm.to_string())
                .with_attr("missed_deadlines", u64::from(missed_deadlines)),
            ServerCrashSpan {
                at,
                server,
                lost_high,
                lost_low,
            } => Span::new(kind, at)
                .with_attr("server", server.0)
                .with_attr("lost_high", lost_high)
                .with_attr("lost_low", lost_low),
            GuestOomKill { at, vm, server } => Span::new(kind, at)
                .with_attr("vm", vm.to_string())
                .with_attr("server", server.0),
            BreakerOpen {
                at,
                vm,
                trips,
                hold_samples,
            } => Span::new(kind, at)
                .with_attr("vm", vm.to_string())
                .with_attr("trips", u64::from(trips))
                .with_attr("hold_samples", u64::from(hold_samples)),
            EmergencyReinflateSpan {
                at,
                vm,
                server,
                needed_mb,
                granted_mb,
            } => Span::new(kind, at)
                .with_attr("vm", vm.to_string())
                .with_attr("server", server.0)
                .with_attr("needed_mb", needed_mb as u64)
                .with_attr("granted_mb", granted_mb as u64),
            Migration {
                at,
                vm,
                src,
                dst,
                rounds,
                copied_mb,
            } => Span::new(kind, at)
                .with_attr("vm", vm.to_string())
                .with_attr("src", src.0)
                .with_attr("dst", dst.0)
                .with_attr("rounds", u64::from(rounds))
                .with_attr("copied_mb", copied_mb as u64),
            Drain {
                at,
                server,
                hosted,
                moves,
            } => Span::new(kind, at)
                .with_attr("server", server.0)
                .with_attr("hosted", hosted)
                .with_attr("moves", moves),
            Defrag { at, server, moves } => Span::new(kind, at)
                .with_attr("server", server.0)
                .with_attr("moves", moves),
            PartitionSpan { at, server, hosted } => Span::new(kind, at)
                .with_attr("server", server.0)
                .with_attr("hosted", hosted),
            PartitionHealSpan {
                at,
                server,
                divergence,
                exited,
                oom_killed,
                lost_high,
                lost_low,
            } => Span::new(kind, at)
                .with_attr("server", server.0)
                .with_attr("divergence", divergence)
                .with_attr("exited", exited)
                .with_attr("oom_killed", oom_killed)
                .with_attr("lost_high", lost_high)
                .with_attr("lost_low", lost_low),
            ManagerCrashSpan { at, isolated } => {
                Span::new(kind, at).with_attr("isolated", isolated)
            }
            ManagerRecoverSpan {
                at,
                scanned,
                divergence,
            } => Span::new(kind, at)
                .with_attr("scanned", scanned)
                .with_attr("divergence", divergence),
            _ => unreachable!("{:?} renders to an event", self.kind()),
        }
    }
}

impl TraceRecord for ClusterRecord {
    fn shape(&self) -> Shape<'_> {
        self.kind()
    }

    fn render(&self) -> Rendered {
        match self.kind() {
            Shape::Event(category) => {
                let (at, message) = self.message();
                Rendered::Event(TraceEvent {
                    at,
                    category,
                    message,
                })
            }
            Shape::Span(kind) => Rendered::Span(self.span(kind)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hypervisor::{LocalController, PhysicalServer, Vm, VmPriority};

    fn ev(at: SimTime, category: &'static str, message: &str) -> Rendered {
        Rendered::Event(TraceEvent {
            at,
            category,
            message: message.to_string(),
        })
    }

    /// Every variant renders to exactly the event or span the manager
    /// used to build eagerly at its trace site, with the shape it
    /// announces.
    #[test]
    fn every_variant_renders_its_eager_form() {
        use ClusterRecord::*;
        let at = SimTime::from_millis(1_500);
        let (vm, other) = (VmId(7), VmId(9));
        let (s1, s2) = (ServerId(1), ServerId(2));
        let v = ResourceVector::new(1.5, 2_048.0, 10.0, 20.0);
        let v_text = "(cpu=1.50, mem=2048MiB, disk=10MB/s, net=20MB/s)";
        let cases: Vec<(ClusterRecord, Rendered)> = vec![
            (
                Reject {
                    at,
                    vm,
                    why: "no server fits",
                },
                ev(at, "reject", "vm-7 (no server fits)"),
            ),
            (
                Deflate {
                    at,
                    vm,
                    by: v,
                    for_vm: other,
                },
                ev(at, "deflate", &format!("vm-7 by {v_text} for vm-9")),
            ),
            (
                Preempt {
                    at,
                    vm,
                    for_vm: other,
                },
                ev(at, "preempt", "vm-7 for vm-9"),
            ),
            (
                Launch {
                    at,
                    vm,
                    server: s1,
                    type_name: "m1.small",
                },
                ev(at, "launch", "vm-7 on server-1 (m1.small)"),
            ),
            (
                Exit { at, vm, freed: v },
                ev(at, "exit", &format!("vm-7 freeing {v_text}")),
            ),
            (
                OomKill { at, vm, freed: v },
                ev(at, "oom_kill", &format!("vm-7 freeing {v_text}")),
            ),
            (
                Reinflate { at, vm, by: v },
                ev(at, "reinflate", &format!("vm-7 by {v_text}")),
            ),
            (
                EmergencyReinflate {
                    at,
                    vm,
                    granted_mb: 511.6,
                    needed_mb: 1_024.4,
                },
                ev(
                    at,
                    "emergency_reinflate",
                    "vm-7 granted 512 MiB of 1024 needed",
                ),
            ),
            (
                MigrateStart {
                    at,
                    vm,
                    src: s1,
                    dst: s2,
                    rounds: 3,
                },
                ev(
                    at,
                    "migrate_start",
                    "vm-7 from server-1 to server-2 (3 rounds planned)",
                ),
            ),
            (
                Migrate {
                    at,
                    vm,
                    src: s1,
                    dst: s2,
                },
                ev(at, "migrate", "vm-7 from server-1 to server-2"),
            ),
            (
                MigrateAbort { at, vm, dst: s2 },
                ev(at, "migrate_abort", "vm-7 (hold on server-2 released)"),
            ),
            (
                Partition { at, server: s1 },
                ev(at, "partition", "server-1 unreachable"),
            ),
            (
                PartitionHeal {
                    at,
                    server: s1,
                    divergence: 4,
                },
                ev(
                    at,
                    "partition_heal",
                    "server-1 reconciled: 4 divergent events",
                ),
            ),
            (
                ManagerCrash { at, isolated: 5 },
                ev(at, "manager_crash", "manager down, 5 servers autonomous"),
            ),
            (
                ServerUp { at, server: s1 },
                ev(at, "server_up", "server-1 rejoined placement"),
            ),
            (
                ServerUpIsolated { at, server: s1 },
                ev(at, "server_up", "server-1 rebooted, manager down"),
            ),
            (
                ManagerRecover {
                    at,
                    scanned: 6,
                    divergence: 2,
                },
                ev(
                    at,
                    "manager_recover",
                    "inventory scan over 6 servers, 2 divergent events",
                ),
            ),
            (
                Unresponsive {
                    at,
                    vm,
                    missed_deadlines: 3,
                },
                ev(
                    at,
                    "unresponsive",
                    &DeflateError::AgentUnresponsive {
                        vm,
                        missed_deadlines: 3,
                    }
                    .to_string(),
                ),
            ),
            (
                ServerCrash {
                    at,
                    server: s1,
                    lost_high: 1,
                    lost_low: 2,
                },
                ev(
                    at,
                    "server_crash",
                    "server-1 lost 1 high-pri / 2 low-pri VMs",
                ),
            ),
            (
                AgentUnresponsive {
                    at,
                    vm,
                    missed_deadlines: 3,
                },
                Rendered::Span(
                    Span::new("cluster.agent_unresponsive", at)
                        .with_attr("vm", "vm-7")
                        .with_attr("missed_deadlines", 3u64),
                ),
            ),
            (
                ServerCrashSpan {
                    at,
                    server: s1,
                    lost_high: 1,
                    lost_low: 2,
                },
                Rendered::Span(
                    Span::new("cluster.server_crash", at)
                        .with_attr("server", 1u64)
                        .with_attr("lost_high", 1usize)
                        .with_attr("lost_low", 2usize),
                ),
            ),
            (
                GuestOomKill { at, vm, server: s2 },
                Rendered::Span(
                    Span::new("cluster.guest_oom_kill", at)
                        .with_attr("vm", "vm-7")
                        .with_attr("server", 2u64),
                ),
            ),
            (
                BreakerOpen {
                    at,
                    vm,
                    trips: 2,
                    hold_samples: 8,
                },
                Rendered::Span(
                    Span::new("cluster.breaker_open", at)
                        .with_attr("vm", "vm-7")
                        .with_attr("trips", 2u64)
                        .with_attr("hold_samples", 8u64),
                ),
            ),
            (
                EmergencyReinflateSpan {
                    at,
                    vm,
                    server: s2,
                    needed_mb: 1_024.4,
                    granted_mb: 511.6,
                },
                Rendered::Span(
                    Span::new("cluster.emergency_reinflate", at)
                        .with_attr("vm", "vm-7")
                        .with_attr("server", 2u64)
                        .with_attr("needed_mb", 1_024u64)
                        .with_attr("granted_mb", 511u64),
                ),
            ),
            (
                Migration {
                    at,
                    vm,
                    src: s1,
                    dst: s2,
                    rounds: 3,
                    copied_mb: 4_096.9,
                },
                Rendered::Span(
                    Span::new("cluster.migration", at)
                        .with_attr("vm", "vm-7")
                        .with_attr("src", 1u64)
                        .with_attr("dst", 2u64)
                        .with_attr("rounds", 3u64)
                        .with_attr("copied_mb", 4_096u64),
                ),
            ),
            (
                Drain {
                    at,
                    server: s1,
                    hosted: 4,
                    moves: 3,
                },
                Rendered::Span(
                    Span::new("cluster.drain", at)
                        .with_attr("server", 1u64)
                        .with_attr("hosted", 4usize)
                        .with_attr("moves", 3usize),
                ),
            ),
            (
                Defrag {
                    at,
                    server: s2,
                    moves: 2,
                },
                Rendered::Span(
                    Span::new("cluster.defrag", at)
                        .with_attr("server", 2u64)
                        .with_attr("moves", 2usize),
                ),
            ),
            (
                PartitionSpan {
                    at,
                    server: s1,
                    hosted: 4,
                },
                Rendered::Span(
                    Span::new("cluster.partition", at)
                        .with_attr("server", 1u64)
                        .with_attr("hosted", 4usize),
                ),
            ),
            (
                PartitionHealSpan {
                    at,
                    server: s1,
                    divergence: 4,
                    exited: 1,
                    oom_killed: 2,
                    lost_high: 3,
                    lost_low: 5,
                },
                Rendered::Span(
                    Span::new("cluster.partition_heal", at)
                        .with_attr("server", 1u64)
                        .with_attr("divergence", 4usize)
                        .with_attr("exited", 1usize)
                        .with_attr("oom_killed", 2usize)
                        .with_attr("lost_high", 3usize)
                        .with_attr("lost_low", 5usize),
                ),
            ),
            (
                ManagerCrashSpan { at, isolated: 5 },
                Rendered::Span(
                    Span::new("cluster.manager_crash", at).with_attr("isolated", 5usize),
                ),
            ),
            (
                ManagerRecoverSpan {
                    at,
                    scanned: 6,
                    divergence: 2,
                },
                Rendered::Span(
                    Span::new("cluster.manager_recover", at)
                        .with_attr("scanned", 6u64)
                        .with_attr("divergence", 2u64),
                ),
            ),
        ];
        for (record, want) in &cases {
            let got = record.render();
            assert_eq!(&got, want, "{record:?}");
            assert_eq!(record.shape(), want.shape(), "{record:?}");
        }
    }

    /// A stored `make_room` renders the span its report would have.
    #[test]
    fn make_room_renders_its_report_span() {
        let spec = ResourceVector::new(4.0, 16_384.0, 100.0, 200.0);
        let mut s = PhysicalServer::new(ServerId(3), spec.scale(2.0));
        for i in 0..2 {
            s.add_vm(Vm::new(VmId(i), spec, VmPriority::Low).with_min(spec.scale(0.3)));
        }
        let ctl = LocalController::new(deflate_core::CascadeConfig::FULL);
        let mut report = ctl.make_room(SimTime::ZERO, &mut s, &spec).commit();
        assert!(!report.outcomes.is_empty());
        let at = SimTime::from_secs(5);
        let want = report.to_span(at, ServerId(3));
        let room = MakeRoom::take(at, ServerId(3), &mut report);
        let record = ClusterRecord::MakeRoom(Box::new(room));
        assert_eq!(record.shape(), Shape::Span("server.make_room"));
        assert_eq!(record.render(), Rendered::Span(want.clone()));
        assert!(want.children.iter().all(|c| c.kind == "cascade.deflate"));
        assert!(want.attr("freed.cpu").and_then(|a| a.as_f64()).unwrap() > 0.0);
    }
}
