//! Manager↔server network partitions: reachability tracking, the
//! divergence log a partitioned server accumulates while it runs
//! autonomously, and the reconcile outcome the manager produces when the
//! partition heals.
//!
//! A partition is the *reachable-but-disconnected* failure mode: the
//! server keeps running its VMs and its local controller keeps making
//! decisions (distress sampling, emergency reinflation, breaker
//! bookkeeping, guest OOM kills), but the manager can neither command
//! nor observe it. The manager freezes its view of the server — the
//! cached [`hypervisor::ServerAggregates`] contribution, the hosted-VM
//! set, the placement-index bucket — at the last observed snapshot, and
//! the local controller records everything it does alone in a typed
//! [`DivergenceLog`]. On heal,
//! [`ClusterManager::heal_server`](crate::manager::ClusterManager::heal_server)
//! replays the log delta-exactly against the stale snapshot so the
//! manager's books converge with reality in one anti-entropy pass.
//!
//! Reachability state machine (one per server):
//!
//! ```text
//!            partition_server            fail_server
//!    Up ────────────────────▶ Partitioned    Up ──────────▶ Down
//!     ▲                           │            ▲              │
//!     │   heal_server (up)        │            │ recover      │
//!     └───────────────────────────┤            └──────────────┘
//!                                 │ heal_server (crashed
//!                                 ▼  behind the partition)
//!                               Down
//! ```

use std::collections::{HashMap, HashSet};

use deflate_core::{ServerId, VmId};
use hypervisor::ServerAggregates;
use simkit::{SeqHash, SimTime};

use crate::manager::DistressMap;

/// The manager's view of one server's control-plane liveness. Orthogonal
/// to the server's physical `up` flag: a partitioned server may be
/// running fine (the common case) or may crash behind the partition —
/// the manager only learns which at heal time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reachability {
    /// Connected and observable; the normal state.
    Up,
    /// Physically up (as far as the manager knows) but unreachable: no
    /// commands, no observations, placement excluded, totals frozen.
    Partitioned,
    /// Observed down (crashed while reachable, or discovered crashed at
    /// heal time).
    Down,
}

/// One action a partitioned server's local controller took while the
/// manager could not observe it. Replayed at heal time to settle
/// counters and lifecycle maps the manager missed.
#[derive(Debug, Clone, PartialEq)]
pub enum DivergenceEvent {
    /// A VM's lifetime ended naturally; survivors were reinflated
    /// locally.
    Exited {
        /// When the VM departed.
        at: SimTime,
        /// The departed VM.
        vm: VmId,
    },
    /// Sustained hard distress outlived the grace window and the guest
    /// OOM killer fired; survivors were reinflated locally. The manager
    /// relaunches the VM only after the heal — autonomous mode has no
    /// placement authority.
    OomKilled {
        /// When the killer fired.
        at: SimTime,
        /// The killed VM.
        vm: VmId,
    },
    /// Emergency reinflation granted a distressed guest memory from the
    /// local free pool and healthy co-located donors.
    EmergencyReinflated {
        /// When the rescue ran.
        at: SimTime,
        /// The rescued VM.
        vm: VmId,
        /// Memory granted (MiB).
        granted_mb: f64,
    },
    /// The per-VM deflation circuit breaker tripped open locally.
    BreakerOpened {
        /// When it tripped.
        at: SimTime,
        /// The shielded VM.
        vm: VmId,
        /// Lifetime trip count after this trip.
        trips: u32,
    },
    /// The breaker closed after enough healthy samples.
    BreakerClosed {
        /// When it closed.
        at: SimTime,
        /// The VM whose breaker closed.
        vm: VmId,
    },
    /// A migration reservation stranded by the partition (the manager
    /// held capacity here for an inbound move it can no longer command)
    /// was cleared locally: hold released, donors made whole.
    ReservationCleared {
        /// When the local controller cleared it.
        at: SimTime,
        /// The VM whose inbound move the reservation served.
        vm: VmId,
    },
    /// The server crashed behind the partition: every hosted VM died
    /// unobserved. The manager discovers the losses at heal time.
    Crashed {
        /// When the crash landed.
        at: SimTime,
    },
    /// The server rebooted behind the partition (empty, still
    /// unreachable).
    Restarted {
        /// When it came back up.
        at: SimTime,
    },
    /// Compaction summary: `pairs` complete breaker open→close cycles
    /// for one VM, coalesced from `2·pairs` raw log entries so replay
    /// cost stays bounded on long outages. Replays as `pairs` trips and
    /// `pairs` closes; the VM's *final* breaker state still travels in
    /// the session's parked distress map, never in the log.
    BreakerCycles {
        /// The VM whose breaker churned.
        vm: VmId,
        /// Complete open→close cycles coalesced.
        pairs: u32,
    },
}

/// Log length at which [`DivergenceLog::push`] first auto-compacts;
/// after that the trigger doubles with the surviving length, so
/// compaction cost stays amortized-O(1) per push on arbitrarily long
/// outages. Short partitions (the common case, and every golden run)
/// never reach it and keep their raw logs byte-for-byte.
const COMPACT_THRESHOLD: usize = 256;

/// Append-only, typed record of everything a partitioned server did
/// while the manager could not watch. Replayed in order at heal time.
/// Long logs self-compact: redundant breaker open→close churn coalesces
/// into [`DivergenceEvent::BreakerCycles`] and superseded
/// reservation-clear entries drop, preserving replay semantics exactly
/// (see [`replay_summary`](Self::replay_summary)).
#[derive(Debug, Clone)]
pub struct DivergenceLog {
    events: Vec<DivergenceEvent>,
    /// Length at which the next `push` triggers auto-compaction.
    next_compact: usize,
}

impl Default for DivergenceLog {
    fn default() -> Self {
        DivergenceLog {
            events: Vec::new(),
            next_compact: COMPACT_THRESHOLD,
        }
    }
}

impl PartialEq for DivergenceLog {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl DivergenceLog {
    /// Appends one autonomous action, auto-compacting once the log
    /// outgrows its current trigger length.
    pub fn push(&mut self, ev: DivergenceEvent) {
        self.events.push(ev);
        if self.events.len() >= self.next_compact {
            self.compact();
            self.next_compact = (self.events.len() * 2).max(COMPACT_THRESHOLD);
        }
    }

    /// Number of divergent events accumulated.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when the partition window saw no autonomous activity —
    /// reconciliation of an empty log is state-neutral.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The events, in the order they happened.
    pub fn events(&self) -> &[DivergenceEvent] {
        &self.events
    }

    /// Coalesces replay-redundant entries in place and returns how many
    /// were removed. Two rules, both replay-equivalence-preserving:
    ///
    /// * **Breaker churn**: complete open→close cycles of one VM's
    ///   breaker collapse into a single [`DivergenceEvent::BreakerCycles`]
    ///   (at the position of the VM's first breaker event); an unmatched
    ///   trailing open — or an unmatched leading close, when the breaker
    ///   entered the window already open — survives in place.
    /// * **Reservation clears**: replay ignores them entirely, so only
    ///   the last clear per VM is kept as the informational record.
    pub fn compact(&mut self) -> usize {
        use DivergenceEvent as E;
        let before = self.events.len();
        // Pass 1: per-VM breaker tallies and last reservation-clear.
        let mut opens: HashMap<VmId, u32> = HashMap::new();
        let mut closes: HashMap<VmId, u32> = HashMap::new();
        let mut prior_pairs: HashMap<VmId, u32> = HashMap::new();
        let mut last_clear: HashMap<VmId, usize> = HashMap::new();
        for (i, ev) in self.events.iter().enumerate() {
            match ev {
                E::BreakerOpened { vm, .. } => *opens.entry(*vm).or_insert(0) += 1,
                E::BreakerClosed { vm, .. } => *closes.entry(*vm).or_insert(0) += 1,
                E::BreakerCycles { vm, pairs } => *prior_pairs.entry(*vm).or_insert(0) += pairs,
                E::ReservationCleared { vm, .. } => {
                    last_clear.insert(*vm, i);
                }
                _ => {}
            }
        }
        // Pass 2: rebuild, emitting one summary per churning VM at its
        // first breaker event and keeping only the unmatched extremes.
        let mut summarized: HashSet<VmId> = HashSet::new();
        let mut kept_open: HashMap<VmId, u32> = HashMap::new();
        let mut kept_close: HashMap<VmId, u32> = HashMap::new();
        let old = std::mem::take(&mut self.events);
        for (i, ev) in old.into_iter().enumerate() {
            let vm = match &ev {
                E::BreakerOpened { vm, .. }
                | E::BreakerClosed { vm, .. }
                | E::BreakerCycles { vm, .. } => *vm,
                E::ReservationCleared { vm, .. } => {
                    if last_clear[vm] == i {
                        self.events.push(ev);
                    }
                    continue;
                }
                _ => {
                    self.events.push(ev);
                    continue;
                }
            };
            let o = opens.get(&vm).copied().unwrap_or(0);
            let c = closes.get(&vm).copied().unwrap_or(0);
            let pairs = o.min(c) + prior_pairs.get(&vm).copied().unwrap_or(0);
            // A leading unmatched close (the breaker entered the window
            // already open) precedes the coalesced cycles in time …
            if matches!(ev, E::BreakerClosed { .. }) && c > o {
                let seen = kept_close.entry(vm).or_insert(0);
                *seen += 1;
                if *seen == 1 {
                    self.events.push(ev.clone());
                }
            }
            if summarized.insert(vm) && pairs > 0 {
                self.events.push(E::BreakerCycles { vm, pairs });
            }
            // … and the trailing unmatched open (final in-log state)
            // follows them.
            if matches!(ev, E::BreakerOpened { .. }) && o > c {
                let seen = kept_open.entry(vm).or_insert(0);
                *seen += 1;
                if *seen == o {
                    self.events.push(ev);
                }
            }
        }
        before - self.events.len()
    }

    /// Folds the log into the totals heal-time replay needs: which VMs
    /// exited or were OOM-killed, how many emergency reinflations,
    /// breaker trips/closes and reboots happened, and whether the server
    /// crashed. Compaction is exactly the transformation that leaves
    /// this summary unchanged.
    pub(crate) fn replay_summary(&self) -> ReplaySummary {
        let mut s = ReplaySummary::default();
        for ev in &self.events {
            match ev {
                DivergenceEvent::Exited { vm, .. } => {
                    s.exited.insert(*vm);
                }
                DivergenceEvent::OomKilled { vm, .. } => {
                    s.oom_killed.insert(*vm);
                }
                DivergenceEvent::EmergencyReinflated { .. } => s.emergency += 1,
                DivergenceEvent::BreakerOpened { .. } => s.trips += 1,
                DivergenceEvent::BreakerClosed { .. } => s.closes += 1,
                DivergenceEvent::BreakerCycles { pairs, .. } => {
                    s.trips += u64::from(*pairs);
                    s.closes += u64::from(*pairs);
                }
                DivergenceEvent::ReservationCleared { .. } => {}
                DivergenceEvent::Crashed { .. } => s.crashed = true,
                DivergenceEvent::Restarted { .. } => s.restarts += 1,
            }
        }
        s
    }
}

/// The counter/lifecycle totals one divergence log replays into the
/// manager at heal or recovery time.
#[derive(Debug, Default)]
pub(crate) struct ReplaySummary {
    /// VMs that departed naturally while unobserved.
    pub(crate) exited: HashSet<VmId, SeqHash>,
    /// VMs the local OOM killer took.
    pub(crate) oom_killed: HashSet<VmId, SeqHash>,
    /// Emergency reinflation rounds run locally.
    pub(crate) emergency: u64,
    /// Breaker trips (including coalesced cycles).
    pub(crate) trips: u64,
    /// Breaker closes (including coalesced cycles).
    pub(crate) closes: u64,
    /// Reboots behind the window.
    pub(crate) restarts: u64,
    /// Whether the server crashed behind the window.
    pub(crate) crashed: bool,
}

/// Everything the manager parks for one partitioned server: the frozen
/// aggregate snapshot backing the cached cluster totals, the frozen
/// hosted-VM view, the per-VM distress state handed to the local
/// controller, and the divergence log.
#[derive(Debug)]
pub(crate) struct PartitionSession {
    /// When the partition opened.
    pub(crate) since: SimTime,
    /// The server's aggregate contribution at partition time. The
    /// cached [`ClusterTotals`](crate::manager) keep carrying exactly
    /// this until heal, when one `apply_delta(frozen, live)` settles
    /// the whole window.
    pub(crate) frozen: ServerAggregates,
    /// VMs hosted at partition time — the manager's (stale) index view.
    pub(crate) vms: HashSet<VmId, SeqHash>,
    /// The low-priority subset of `vms`, so crash losses discovered at
    /// heal time can be classified without the dead VM objects.
    pub(crate) low: HashSet<VmId, SeqHash>,
    /// Distress/breaker state parked from the manager's map at
    /// partition time and advanced locally by `autonomous_sample`.
    pub(crate) distress: DistressMap,
    /// Missed-cascade-deadline counters parked when the *manager*
    /// crashes: the server-side agent owns this liveness state, so a
    /// restarted manager rebuilds it from the inventory scan. Empty for
    /// plain network partitions — the manager keeps its own copies
    /// across those.
    pub(crate) missed: HashMap<VmId, u32, SeqHash>,
    /// Unresponsive (hypervisor-only) set, parked on manager crash with
    /// the same carve-out as `missed`.
    pub(crate) unresponsive: HashSet<VmId, SeqHash>,
    /// What the server did alone.
    pub(crate) log: DivergenceLog,
}

/// What one anti-entropy pass at heal time found and repaired.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileOutcome {
    /// The healed server.
    pub server: ServerId,
    /// Divergence-log length (autonomous events replayed).
    pub divergence: usize,
    /// VMs that departed naturally while partitioned.
    pub exited: Vec<VmId>,
    /// VMs the local OOM killer took; candidates for relaunch now that
    /// the manager can place again.
    pub oom_killed: Vec<VmId>,
    /// High-priority VMs that died with an unobserved crash; the caller
    /// relaunches them through normal placement.
    pub lost_high: Vec<VmId>,
    /// Low-priority VMs that died with an unobserved crash; counted as
    /// preempted.
    pub lost_low: Vec<VmId>,
    /// Whether the server crashed behind the partition.
    pub crashed: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn divergence_log_orders_and_counts() {
        let mut log = DivergenceLog::default();
        assert!(log.is_empty());
        log.push(DivergenceEvent::Exited {
            at: SimTime::from_secs(10),
            vm: VmId(1),
        });
        log.push(DivergenceEvent::Crashed {
            at: SimTime::from_secs(20),
        });
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert!(matches!(
            log.events()[0],
            DivergenceEvent::Exited { vm: VmId(1), .. }
        ));
        assert!(matches!(log.events()[1], DivergenceEvent::Crashed { .. }));
    }

    fn churn_log(cycles: u32, trailing_open: bool) -> DivergenceLog {
        let mut log = DivergenceLog::default();
        log.push(DivergenceEvent::Exited {
            at: SimTime::from_secs(1),
            vm: VmId(9),
        });
        for i in 0..cycles {
            log.push(DivergenceEvent::BreakerOpened {
                at: SimTime::from_secs(10 + 2 * u64::from(i)),
                vm: VmId(1),
                trips: i + 1,
            });
            log.push(DivergenceEvent::BreakerClosed {
                at: SimTime::from_secs(11 + 2 * u64::from(i)),
                vm: VmId(1),
            });
            log.push(DivergenceEvent::ReservationCleared {
                at: SimTime::from_secs(11 + 2 * u64::from(i)),
                vm: VmId(2),
            });
        }
        if trailing_open {
            log.push(DivergenceEvent::BreakerOpened {
                at: SimTime::from_secs(1000),
                vm: VmId(1),
                trips: cycles + 1,
            });
        }
        log
    }

    fn summaries_eq(a: &ReplaySummary, b: &ReplaySummary) -> bool {
        a.exited == b.exited
            && a.oom_killed == b.oom_killed
            && a.emergency == b.emergency
            && a.trips == b.trips
            && a.closes == b.closes
            && a.restarts == b.restarts
            && a.crashed == b.crashed
    }

    #[test]
    fn compaction_preserves_replay_and_bounds_length() {
        for trailing in [false, true] {
            let mut log = churn_log(40, trailing);
            let full = log.replay_summary();
            let removed = log.compact();
            assert!(removed > 0, "40 cycles must compact");
            assert!(
                summaries_eq(&log.replay_summary(), &full),
                "compacted replay diverged (trailing={trailing}): {:?} vs {full:?}",
                log.replay_summary()
            );
            // One Exited + one BreakerCycles + one ReservationCleared
            // (+ the trailing unmatched open).
            assert_eq!(log.len(), 3 + usize::from(trailing));
            assert!(log.events().iter().any(|e| matches!(
                e,
                DivergenceEvent::BreakerCycles {
                    vm: VmId(1),
                    pairs: 40
                }
            )));
            // Idempotent: a second pass removes nothing.
            assert_eq!(log.compact(), 0);
            assert!(summaries_eq(&log.replay_summary(), &full));
        }
    }

    #[test]
    fn compaction_keeps_leading_unmatched_close() {
        // A breaker that entered the window already open: Close, then a
        // full cycle. opens=1, closes=2 → one pair + leading close kept.
        let mut log = DivergenceLog::default();
        log.push(DivergenceEvent::BreakerClosed {
            at: SimTime::from_secs(1),
            vm: VmId(3),
        });
        log.push(DivergenceEvent::BreakerOpened {
            at: SimTime::from_secs(2),
            vm: VmId(3),
            trips: 5,
        });
        log.push(DivergenceEvent::BreakerClosed {
            at: SimTime::from_secs(3),
            vm: VmId(3),
        });
        let full = log.replay_summary();
        assert_eq!((full.trips, full.closes), (1, 2));
        log.compact();
        let got = log.replay_summary();
        assert!(summaries_eq(&got, &full), "{got:?} vs {full:?}");
        assert!(matches!(
            log.events()[0],
            DivergenceEvent::BreakerClosed { vm: VmId(3), .. }
        ));
    }

    #[test]
    fn long_logs_auto_compact_on_push() {
        let mut log = DivergenceLog::default();
        for i in 0..10_000u64 {
            log.push(DivergenceEvent::BreakerOpened {
                at: SimTime::from_secs(2 * i),
                vm: VmId(1),
                trips: 1,
            });
            log.push(DivergenceEvent::BreakerClosed {
                at: SimTime::from_secs(2 * i + 1),
                vm: VmId(1),
            });
        }
        assert!(
            log.len() < 300,
            "10k-cycle churn must stay bounded, got {}",
            log.len()
        );
        let s = log.replay_summary();
        assert_eq!((s.trips, s.closes), (10_000, 10_000));
    }
}
