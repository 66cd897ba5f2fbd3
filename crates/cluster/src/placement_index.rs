//! Incrementally-maintained placement index: exact BestFit, FirstFit
//! and most-headroom queries over *classes of identical servers*.
//!
//! A placement query looks at one cached vector per server (its free
//! resources, or free plus reclaimable availability) and nothing else,
//! so servers whose vector is bit-identical are interchangeable: they
//! fit the same demands and have the same cosine and the same norm. Per
//! availability notion (free, deflation, preemption) the index keeps a
//! **class table**: one row per distinct vector among the placeable
//! servers, holding the vector, its norm and the ids of its
//! members. A query reads one entry per fitting class instead of one per
//! server. While a 3000-server fleet fills, its servers share fewer than
//! ten distinct vectors. Saturated, they still share free vectors (about
//! 940 classes) but few deflation vectors (about 2200 classes), and a
//! 200-server fleet busy with many VM sizes has one class per server.
//!
//! **Fit lists.** A class's vector never changes while the class exists,
//! so for a given demand neither whether the class fits nor its BestFit
//! score `(cos, norm)` can change either. Each class table therefore
//! keeps up to eight fit lists, one per recently queried demand (keyed by
//! the demand's bits): the slots of the classes that fit it, each with its
//! score and its current row. A list changes only when a class is founded
//! (tested against every listed demand and, if it fits, scored with the
//! oracle's expression), when one is dissolved (swap-removed through a
//! per-slot position array), or when a dissolve moves another class's
//! row. Every query reads the list of its demand: over one replay of a
//! 3000-server BestFit fleet that fills and saturates, a free-tier query
//! read 59 entries on average where a sweep would test 377 classes, and
//! a deflation-tier one 717 of 1,452. A demand with no list gets one
//! built by one sweep over the rows, which costs what a query cost
//! before the lists; it replaces the least recently used list when all
//! eight are taken. Placement asks for catalog sizes, so a catalog of at
//! most eight never evicts; migration destinations are asked for a
//! deflated VM's current size, which rarely repeats, and those builds
//! evict. Lists start empty and fill on first use, so building the index
//! does no list work.
//! [`fit_list_counters`](PlacementIndex::fit_list_counters) counts hits,
//! builds, evictions and scores.
//!
//! Exactness: every query returns the server its scan oracle
//! ([`choose_server_with`](crate::placement::choose_server_with),
//! [`best_headroom_with`](crate::placement::best_headroom_with)) picks.
//! Cached vectors are the bit-exact values the oracle recomputes from
//! server state, cached norms are `norm()` of those vectors, and a class's
//! cosine is the oracle's expression (`dot / (|A| |D|)`, zero when the
//! denominator is zero), so fits and scores agree bitwise. A fit list
//! holds exactly the classes that fit its demand, because a class joins
//! every list it fits when founded and leaves every list when dissolved;
//! and its cached scores are the ones a sweep would compute, because
//! neither the class's vector nor the demand can change in between.
//!
//! * **FirstFit** is the smallest member id over the fitting classes.
//! * **Most headroom** is the largest norm over the fitting classes,
//!   ties to the smallest member id other than the excluded server.
//! * **BestFit** needs care: [`better`](crate::placement::better) treats
//!   cosines within `1e-9` as ties broken by norm, which makes it
//!   intransitive, so the oracle's winner depends on its ascending-id
//!   scan order. Three steps reproduce that scan over classes.
//!   1. *Tie set.* Order the fitting classes by cosine, descending, and
//!      keep the chain hanging from the top by gaps that `better` calls
//!      ties. Every class below the first wider gap loses to every class
//!      in the chain and never beats one, so once the scan meets its
//!      first chain member no outsider can displace the best: the scan
//!      over all candidates ends where the scan over the chain ends.
//!      The cut uses `better`'s own expression, and float rounding is
//!      monotone, so a gap wide enough between neighbours is wide enough
//!      between any two classes it separates. The chain grows from the
//!      maximum cosine by linear passes, each taking in what lies within
//!      the fuzz of its bottom; on the benchmark workloads one pass
//!      reaches the gap in all but at most 1.4 queries in 10,000.
//!   2. *Norm closure.* When the whole tie set ties on cosine, `better`
//!      is the fuzzy norm comparison alone, and the same argument keeps
//!      only the norm chain hanging from the largest norm. If no member
//!      of that chain beats another, nothing displaces the scan's first
//!      member: the answer is the chain's lowest member id.
//!   3. *Replay.* Otherwise the oracle's scan is replayed over the
//!      members of the remaining classes, sorted by id. On the benchmark
//!      workloads fewer than two BestFit queries in 10,000 get here.
//!
//! Invalidation rides on [`PhysicalServer::version`]: every mutation
//! choke point (`add_vm` / `remove_vm` / `deflate_vm` / `reinflate_vm` /
//! `set_up`) bumps the counter, and the cluster manager calls
//! [`PlacementIndex::refresh`] on the touched server afterwards.
//! `refresh` is a no-op when the version is unchanged; otherwise it
//! moves the server between classes (one hash lookup and one sorted
//! insert per notion whose vector changed, plus the fit-list updates of
//! a founded or dissolved class). Debug builds cross-check the whole
//! index, fit lists included, against recomputation from live server
//! state on every launch/exit ([`PlacementIndex::assert_consistent`]).

use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use deflate_core::{ResourceKind, ResourceVector};
use hypervisor::PhysicalServer;
use simkit::{SeqHash, SimRng};

use crate::placement::{avail_from_free, better, draw_pair, score, AvailabilityMode};
use crate::PlacementPolicy;

/// Cached availability notions: free, free+deflatable, free+preemptible.
const NOTIONS: usize = 3;
/// Class sentinel for servers that are not placeable — down or
/// partitioned — and therefore in no class.
const NO_CLASS: u32 = u32::MAX;
/// The fuzz of [`better`]: cosines closer than this tie, and a tied
/// candidate must exceed the best's norm by more than this to win.
const FUZZ: f64 = 1e-9;
/// Most demands a class table keeps a fit list for; a new demand evicts
/// the least recently used list.
const FIT_LISTS: usize = 8;
/// Fit-list position sentinel: the slot's class is not on the list.
const ABSENT: u32 = u32::MAX;

/// Index of a cached availability notion in [`Cached::vecs`].
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

/// The bit pattern of a cached vector: servers with equal keys share a
/// class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Key([u64; 4]);

impl Key {
    fn of(v: &ResourceVector) -> Key {
        Key(ResourceKind::ALL.map(|k| v.get(k).to_bits()))
    }
}

impl Hash for Key {
    /// Folds the four words into one `write_u64`, so the hasher never
    /// takes the byte-at-a-time path. Each word gets its own odd
    /// multiplier, and the four products are independent.
    fn hash<H: Hasher>(&self, state: &mut H) {
        let [a, b, c, d] = self.0;
        state.write_u64(
            a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                ^ b.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
                ^ c.wrapping_mul(0x1656_67B1_9E37_79F9)
                ^ d.wrapping_mul(0xFF51_AFD7_ED55_8CCD),
        );
    }
}

/// One class as a query sweeps it.
#[derive(Debug)]
struct Row {
    /// The members' shared cached vector.
    vec: ResourceVector,
    /// `vec.norm()`: BestFit's magnitude component and the headroom rank.
    norm: f64,
    /// The smallest member id.
    min: u32,
    /// The class's stable handle into [`ClassTable::slots`].
    slot: u32,
}

/// A class's stable home: its members and where its row sits.
#[derive(Debug, Default)]
struct Slot {
    /// Member server ids, descending, so that the smallest (the one a
    /// query picks, and so the one most often leaving) pops off the end.
    members: Vec<u32>,
    /// Position of the class's row in [`ClassTable::rows`].
    row: u32,
}

/// One notion's classes. Rows are dense, so a build sweeps contiguous
/// memory; slots are stable handles that servers keep while rows move.
#[derive(Debug, Default)]
struct ClassTable {
    /// Vector bits → slot.
    slot_of: HashMap<Key, u32, SeqHash>,
    /// A dissolved class's slot keeps its member allocation for the next
    /// class, so class churn allocates nothing.
    slots: Vec<Slot>,
    /// Slots of dissolved classes, ready for reuse.
    free: Vec<u32>,
    /// One row per class, in no particular order.
    rows: Vec<Row>,
    /// The fitting classes of the demands queried most recently. Queries
    /// take `&self` and reach them through the cell; class changes take
    /// `&mut self` and reach them directly.
    fit: RefCell<FitLists>,
}

impl ClassTable {
    /// Adds server `id` to the class of `vec`, founding it if needed, and
    /// returns the class's slot.
    fn insert(&mut self, id: u32, vec: &ResourceVector) -> u32 {
        match self.slot_of.entry(Key::of(vec)) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                let s = &mut self.slots[slot as usize];
                let pos = s.members.partition_point(|&m| m > id);
                s.members.insert(pos, id);
                if pos == s.members.len() - 1 {
                    self.rows[s.row as usize].min = id;
                }
                slot
            }
            Entry::Vacant(e) => {
                let slot = self.free.pop().unwrap_or_else(|| {
                    self.slots.push(Slot::default());
                    (self.slots.len() - 1) as u32
                });
                e.insert(slot);
                let r = self.rows.len() as u32;
                let s = &mut self.slots[slot as usize];
                s.members.push(id);
                s.row = r;
                let row = Row {
                    vec: *vec,
                    norm: vec.norm(),
                    min: id,
                    slot,
                };
                self.fit.get_mut().found(&row, r);
                self.rows.push(row);
                slot
            }
        }
    }

    /// Removes server `id` from the class at `slot`, dissolving the class
    /// when it empties.
    fn remove(&mut self, id: u32, slot: u32) {
        let s = &mut self.slots[slot as usize];
        let pos = s
            .members
            .binary_search_by(|m| id.cmp(m))
            .expect("server missing from its class");
        s.members.remove(pos);
        let row = s.row as usize;
        if let Some(&min) = s.members.last() {
            self.rows[row].min = min;
            return;
        }
        self.slot_of.remove(&Key::of(&self.rows[row].vec));
        self.rows.swap_remove(row);
        let fit = self.fit.get_mut();
        fit.dissolve(slot);
        if let Some(moved) = self.rows.get(row) {
            self.slots[moved.slot as usize].row = row as u32;
            fit.moved(moved.slot, row as u32);
        }
        self.free.push(slot);
    }

    /// A row's member ids, descending.
    fn members(&self, row: &Row) -> &[u32] {
        &self.slots[row.slot as usize].members
    }
}

/// Cached placement-relevant state of one server.
#[derive(Debug, Clone)]
struct Cached {
    /// Cached vectors, indexed by [`Notion`]. Bit-exact copies of what
    /// the scan oracle computes from live server state.
    vecs: [ResourceVector; NOTIONS],
    /// The server's mutation counter at the last refresh.
    version: u64,
    /// The slot of the server's class per notion; [`NO_CLASS`] in every
    /// notion while the server is not [`PhysicalServer::placeable`].
    class: [u32; NOTIONS],
}

impl Cached {
    /// Whether the server was placeable at its last refresh.
    fn up(&self) -> bool {
        self.class[0] != NO_CLASS
    }
}

/// A fitting class on a fit list, and in a BestFit query: its score and
/// its row.
#[derive(Debug, Clone, Copy)]
struct Cand {
    cos: f64,
    norm: f64,
    row: u32,
}

/// [`ResourceVector::dominates`] without short-circuiting, so a sweep
/// over many classes runs free of unpredictable branches.
#[inline]
fn fits(avail: &ResourceVector, demand: &ResourceVector) -> bool {
    let fit = ResourceKind::ALL
        .iter()
        .fold(true, |ok, &k| ok & (avail.get(k) + 1e-9 >= demand.get(k)));
    debug_assert_eq!(fit, avail.dominates(demand));
    fit
}

/// A class's BestFit cosine against `demand`, whose norm is `nd`: the
/// oracle's `score` with both norms precomputed. Same expression, same
/// inputs, same bits.
#[inline]
fn cosine(row: &Row, demand: &ResourceVector, nd: f64) -> f64 {
    let denom = row.norm * nd;
    let cos = if denom == 0.0 {
        0.0
    } else {
        row.vec.dot(demand) / denom
    };
    debug_assert_eq!((cos, row.norm), score(&row.vec, demand));
    cos
}

/// Work counters of the fit lists, summed over the class tables. Plain
/// counts for tests and probes; the run summary does not carry them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FitListCounters {
    /// Queries answered from an existing list.
    pub hits: u64,
    /// Lists built by a sweep because no list held the demand.
    pub builds: u64,
    /// Builds that evicted the least recently used list.
    pub evictions: u64,
    /// Founded classes that fit a listed demand and were scored onto its
    /// list.
    pub scored: u64,
}

/// The classes of one table that fit one demand, with their BestFit
/// scores and current rows. Structure of arrays: entry `i` is `cands[i]`
/// and `slots[i]`, in no particular order.
#[derive(Debug)]
struct FitList {
    /// The demand's bits.
    key: Key,
    demand: ResourceVector,
    /// `demand.norm()`.
    nd: f64,
    /// The table's query clock at this list's last query.
    used: u64,
    /// Each fitting class's score and row: what BestFit ranks.
    cands: Vec<Cand>,
    /// Each fitting class's slot.
    slots: Vec<u32>,
    /// Entry index by slot; [`ABSENT`], or past the end, for a slot whose
    /// class is not on the list.
    pos: Vec<u32>,
}

impl FitList {
    fn new(demand: &ResourceVector) -> FitList {
        FitList {
            key: Key::of(demand),
            demand: *demand,
            nd: demand.norm(),
            used: 0,
            cands: Vec::new(),
            slots: Vec::new(),
            pos: Vec::new(),
        }
    }

    /// Empties the list and rekeys it to `demand`, keeping its memory.
    fn reset(&mut self, demand: &ResourceVector) {
        for &s in &self.slots {
            self.pos[s as usize] = ABSENT;
        }
        self.cands.clear();
        self.slots.clear();
        (self.key, self.demand, self.nd) = (Key::of(demand), *demand, demand.norm());
    }

    /// Where the class at `slot` sits on the list, if it is on it.
    fn position(&self, slot: u32) -> Option<usize> {
        match self.pos.get(slot as usize) {
            Some(&p) if p != ABSENT => Some(p as usize),
            _ => None,
        }
    }

    /// Lists the class at `slot`, whose row is `row` at index `r`, when it
    /// fits the demand; returns whether it did.
    fn offer(&mut self, row: &Row, r: u32) -> bool {
        if !fits(&row.vec, &self.demand) {
            return false;
        }
        let s = row.slot as usize;
        if self.pos.len() <= s {
            self.pos.resize(s + 1, ABSENT);
        }
        self.pos[s] = self.cands.len() as u32;
        self.cands.push(Cand {
            cos: cosine(row, &self.demand, self.nd),
            norm: row.norm,
            row: r,
        });
        self.slots.push(row.slot);
        true
    }
}

/// A class table's fit lists: at most [`FIT_LISTS`], one per demand.
#[derive(Debug, Default)]
struct FitLists {
    lists: Vec<FitList>,
    /// Counts queries; a list's `used` is the count at its last query.
    clock: u64,
    counters: FitListCounters,
}

impl FitLists {
    /// The list of `demand`. On a miss, one sweep over `rows` builds it,
    /// in place of the least recently used list when all are taken.
    fn get(&mut self, rows: &[Row], demand: &ResourceVector) -> &FitList {
        self.clock += 1;
        let key = Key::of(demand);
        let i = match self.lists.iter().position(|l| l.key == key) {
            Some(i) => {
                self.counters.hits += 1;
                i
            }
            None => {
                self.counters.builds += 1;
                let i = if self.lists.len() < FIT_LISTS {
                    self.lists.push(FitList::new(demand));
                    self.lists.len() - 1
                } else {
                    self.counters.evictions += 1;
                    let lru = (0..FIT_LISTS).min_by_key(|&i| self.lists[i].used);
                    let i = lru.expect("FIT_LISTS is not zero");
                    self.lists[i].reset(demand);
                    i
                };
                for (r, row) in rows.iter().enumerate() {
                    self.lists[i].offer(row, r as u32);
                }
                i
            }
        };
        let list = &mut self.lists[i];
        list.used = self.clock;
        list
    }

    /// A class was founded at row index `r`: list it where it fits.
    fn found(&mut self, row: &Row, r: u32) {
        for list in &mut self.lists {
            self.counters.scored += u64::from(list.offer(row, r));
        }
    }

    /// The class at `slot` was dissolved: take it off every list.
    fn dissolve(&mut self, slot: u32) {
        for list in &mut self.lists {
            let Some(p) = list.position(slot) else {
                continue;
            };
            list.pos[slot as usize] = ABSENT;
            list.cands.swap_remove(p);
            list.slots.swap_remove(p);
            if let Some(&last) = list.slots.get(p) {
                list.pos[last as usize] = p as u32;
            }
        }
    }

    /// The row of the class at `slot` moved to index `r`.
    fn moved(&mut self, slot: u32, r: u32) {
        for list in &mut self.lists {
            if let Some(p) = list.position(slot) {
                list.cands[p].row = r;
            }
        }
    }
}

/// Moves the *top chain* of `set` to its front and returns its length
/// with the chain's largest and smallest keys. The top chain is what
/// sorting by `key`, descending, and cutting at the first neighbours
/// that are `apart` would keep. It grows from the largest key, one pass
/// over the candidates left out at a time, by every one not apart from
/// its current bottom, until the largest key left out is apart from the
/// bottom too. `apart(hi, lo)` must be monotone (it holds for any key at
/// or above `hi` against any at or below `lo`), so every candidate left
/// out is apart from every candidate in the chain, and the chain is every
/// key at or above its bottom.
fn top_chain(
    set: &mut [Cand],
    key: impl Fn(&Cand) -> f64,
    apart: impl Fn(f64, f64) -> bool,
) -> (usize, f64, f64) {
    // Plain comparisons rather than `f64::max`/`min`: keys are never NaN,
    // and the NaN handling would lengthen each loop's dependency chain.
    let mut top = f64::NEG_INFINITY;
    for c in set.iter() {
        let k = key(c);
        top = if k > top { k } else { top };
    }
    let (mut len, mut bottom) = (0, top);
    loop {
        // With nothing left out, `rest` stays at -inf, which every key is
        // apart from.
        let (mut lowest, mut rest) = (bottom, f64::NEG_INFINITY);
        let left_out = len;
        for i in left_out..set.len() {
            let k = key(&set[i]);
            if apart(bottom, k) {
                rest = if k > rest { k } else { rest };
            } else {
                lowest = if k < lowest { k } else { lowest };
                set.swap(len, i);
                len += 1;
            }
        }
        bottom = lowest;
        if apart(bottom, rest) {
            return (len, top, bottom);
        }
    }
}

/// The class-table placement index. See the module docs.
pub struct PlacementIndex {
    entries: Vec<Cached>,
    /// One class table per [`Notion`].
    tables: [ClassTable; NOTIONS],
    /// BestFit's copy of a fit list, which its steps reorder; kept across
    /// queries so that a query allocates nothing.
    cands: RefCell<Vec<Cand>>,
}

impl std::fmt::Debug for PlacementIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlacementIndex")
            .field("servers", &self.entries.len())
            .field("classes", &self.tables.each_ref().map(|t| t.rows.len()))
            .finish()
    }
}

impl PlacementIndex {
    /// Builds the index for a fleet.
    pub fn new(servers: &[PhysicalServer]) -> Self {
        let mut index = PlacementIndex {
            entries: vec![
                Cached {
                    vecs: [ResourceVector::ZERO; NOTIONS],
                    // Sentinel: forces the first refresh (live versions
                    // start at 0 and only ever increment).
                    version: u64::MAX,
                    class: [NO_CLASS; NOTIONS],
                };
                servers.len()
            ],
            tables: Default::default(),
            cands: RefCell::default(),
        };
        // Highest id first: members are kept descending, so every insert
        // appends.
        for (i, s) in servers.iter().enumerate().rev() {
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

    /// Re-derives one server's cached entry from live state and moves it
    /// between classes; no-op when the server's mutation counter matches
    /// the cache.
    pub fn refresh(&mut self, i: usize, server: &PhysicalServer) {
        let version = server.version();
        let e = &mut self.entries[i];
        if e.version == version {
            return;
        }
        let free = server.free();
        let vecs = [
            free,
            avail_from_free(server, &free, AvailabilityMode::Deflation),
            avail_from_free(server, &free, AvailabilityMode::PreemptionOnly),
        ];
        let up = server.placeable();
        let id = i as u32;
        for (n, table) in self.tables.iter_mut().enumerate() {
            let old = e.class[n];
            if old != NO_CLASS {
                if up && Key::of(&e.vecs[n]) == Key::of(&vecs[n]) {
                    continue;
                }
                table.remove(id, old);
            }
            e.class[n] = if up {
                table.insert(id, &vecs[n])
            } else {
                NO_CLASS
            };
        }
        e.vecs = vecs;
        e.version = version;
    }

    /// Lowest-index server whose cached `notion` vector dominates
    /// `demand`: the smallest member over the fitting classes.
    fn first_fit(&self, notion: Notion, demand: &ResourceVector) -> Option<usize> {
        let table = &self.tables[notion as usize];
        let mut fit = table.fit.borrow_mut();
        let list = fit.get(&table.rows, demand);
        list.cands
            .iter()
            .map(|c| table.rows[c.row as usize].min as usize)
            .min()
    }

    /// The server the oracle's ascending-index BestFit scan over the
    /// cached `notion` vectors ends on, found class by class (see the
    /// module docs for why each step is exact).
    fn best_fit(&self, notion: Notion, demand: &ResourceVector) -> Option<usize> {
        let table = &self.tables[notion as usize];
        let mut fit = table.fit.borrow_mut();
        let list = fit.get(&table.rows, demand);
        if list.cands.is_empty() {
            return None;
        }
        let mut cands = self.cands.borrow_mut();
        cands.clear();
        cands.extend_from_slice(&list.cands);
        let cands = &mut cands[..];
        // Step 1, the tie set: cut where `better`'s cosine test stops calling
        // neighbours ties.
        let (k, hi, lo) = top_chain(cands, |c| c.cos, |hi, lo| hi - lo >= FUZZ);
        let mut set = &mut cands[..k];
        if hi - lo < FUZZ {
            // Step 2: every pair ties on cosine, so `better` compares norms
            // alone: keep the norm chain under the largest norm.
            let (j, hi, lo) = top_chain(set, |c| c.norm, |hi, lo| hi > lo + FUZZ);
            set = &mut set[..j];
            if hi <= lo + FUZZ {
                // No member beats another: the scan keeps its first.
                return set
                    .iter()
                    .map(|c| table.rows[c.row as usize].min as usize)
                    .min();
            }
        }
        Some(Self::replay(table, set))
    }

    /// Step 3: replays the oracle's ascending-index scan over the members of
    /// `set`'s classes and returns the server it ends on.
    fn replay(table: &ClassTable, set: &[Cand]) -> usize {
        // `(member id, candidate)` pairs in id order.
        let mut scan: Vec<(u32, u32)> = set
            .iter()
            .enumerate()
            .flat_map(|(i, c)| {
                let members = table.members(&table.rows[c.row as usize]);
                members.iter().map(move |&id| (id, i as u32))
            })
            .collect();
        scan.sort_unstable();
        let score = |i: u32| (set[i as usize].cos, set[i as usize].norm);
        let (mut best_id, mut best) = scan[0];
        for &(id, i) in &scan[1..] {
            if better(score(i), score(best)) {
                (best_id, best) = (id, i);
            }
        }
        best_id as usize
    }

    /// Indexed [`choose_server_with`](crate::placement::choose_server_with):
    /// same policy semantics, same two-tier free-then-availability
    /// preference, same RNG consumption, same chosen server — one
    /// fit-list entry per fitting class instead of a fleet scan.
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
                // The better fitting one of the pair in notion `n`, if any.
                let pair = |n: Notion| {
                    let vec = |i: usize| &self.entries[i].vecs[n as usize];
                    let fits = |i: usize| self.entries[i].up() && vec(i).dominates(demand);
                    match (fits(a), fits(b)) {
                        (true, true) => Some(if score(vec(a), demand) >= score(vec(b), demand) {
                            a
                        } else {
                            b
                        }),
                        (true, false) => Some(a),
                        (false, true) => Some(b),
                        (false, false) => None,
                    }
                };
                pair(Notion::Free)
                    .or_else(|| self.first_fit(Notion::Free, demand))
                    .or_else(|| pair(avail))
                    .or_else(|| self.first_fit(avail, demand))
            }
        }
    }

    /// Deterministic "most headroom" query for migration targeting: the
    /// up server (other than `exclude`, usually the migration source)
    /// whose cached Deflation-notion availability dominates `demand`,
    /// ranked by that availability's norm and read from the demand's
    /// deflation-notion fit list. Unlike [`choose`](Self::choose), this
    /// draws no RNG and prefers the *roomiest* host rather than the
    /// tightest fit — a migration destination should absorb the VM with
    /// as little donor deflation as possible. Ties keep the lowest server
    /// index.
    /// The naive oracle is
    /// [`best_headroom_with`](crate::placement::best_headroom_with).
    pub fn best_headroom(
        &self,
        servers: &[PhysicalServer],
        demand: &ResourceVector,
        exclude: Option<usize>,
    ) -> Option<usize> {
        debug_assert_eq!(self.entries.len(), servers.len(), "index covers the fleet");
        let table = &self.tables[Notion::Deflation as usize];
        let mut fit = table.fit.borrow_mut();
        let mut best: Option<(f64, u32)> = None;
        for c in &fit.get(&table.rows, demand).cands {
            let row = &table.rows[c.row as usize];
            // The class's lowest member other than the excluded server.
            let id = if Some(row.min as usize) == exclude {
                match table.members(row).iter().rev().nth(1) {
                    Some(&id) => id,
                    None => continue,
                }
            } else {
                row.min
            };
            if best.map_or(true, |(bn, bid)| {
                row.norm > bn || (row.norm == bn && id < bid)
            }) {
                best = Some((row.norm, id));
            }
        }
        best.map(|(_, id)| id as usize)
    }

    /// Panics when any cached entry, class membership, class row, cached
    /// norm or fit list disagrees with a full recomputation from live
    /// server state — the index's analogue of the manager's aggregate
    /// checks.
    /// O(servers + classes × fit lists); debug builds run it on every
    /// launch/exit, tests may call it in release too.
    pub fn assert_consistent(&self, servers: &[PhysicalServer]) {
        assert_eq!(
            self.entries.len(),
            servers.len(),
            "index entry count != fleet size"
        );
        let mut up = 0usize;
        for (i, (e, s)) in self.entries.iter().zip(servers).enumerate() {
            assert_eq!(e.version, s.version(), "server {i}: stale index version");
            assert_eq!(e.up(), s.placeable(), "server {i}: stale placeability flag");
            let free = s.free();
            let fresh = [
                free,
                avail_from_free(s, &free, AvailabilityMode::Deflation),
                avail_from_free(s, &free, AvailabilityMode::PreemptionOnly),
            ];
            for (n, (fresh_n, table)) in fresh.iter().zip(&self.tables).enumerate() {
                assert_eq!(
                    e.vecs[n], *fresh_n,
                    "server {i}: cached vector desync (notion {n})"
                );
                if e.up() {
                    assert_eq!(
                        table.slot_of.get(&Key::of(fresh_n)),
                        Some(&e.class[n]),
                        "server {i}: wrong class (notion {n})"
                    );
                    let members = &table.slots[e.class[n] as usize].members;
                    assert!(
                        members.binary_search_by(|m| (i as u32).cmp(m)).is_ok(),
                        "server {i}: missing from its class (notion {n})"
                    );
                }
            }
            up += usize::from(e.up());
        }
        for (n, table) in self.tables.iter().enumerate() {
            assert_eq!(
                table.slot_of.len(),
                table.rows.len(),
                "class map size != class rows (notion {n})"
            );
            let mut total = 0usize;
            for (r, row) in table.rows.iter().enumerate() {
                let members = table.members(row);
                assert!(
                    members.windows(2).all(|w| w[0] > w[1]),
                    "class members out of order (notion {n}, row {r})"
                );
                assert_eq!(
                    members.last(),
                    Some(&row.min),
                    "stale class minimum (notion {n}, row {r})"
                );
                assert_eq!(
                    table.slots[row.slot as usize].row as usize, r,
                    "slot → row map desync (notion {n}, row {r})"
                );
                assert_eq!(
                    row.norm.to_bits(),
                    row.vec.norm().to_bits(),
                    "cached norm desync (notion {n}, row {r})"
                );
                for &m in members {
                    assert_eq!(
                        self.entries[m as usize].class[n], row.slot,
                        "server {m}: member of a class it does not name (notion {n})"
                    );
                }
                total += members.len();
            }
            assert_eq!(
                total, up,
                "class membership count != up servers (notion {n})"
            );
            Self::assert_fit_lists(table, n);
        }
    }

    /// Panics when a fit list is not exactly its demand's fitting classes
    /// with their scores' bits and current rows.
    fn assert_fit_lists(table: &ClassTable, n: usize) {
        let fit = table.fit.borrow();
        assert!(
            fit.lists.len() <= FIT_LISTS,
            "too many fit lists (notion {n})"
        );
        for (l, list) in fit.lists.iter().enumerate() {
            let d = &list.demand;
            assert_eq!(list.key, Key::of(d), "fit list key desync (notion {n})");
            assert_eq!(
                list.nd.to_bits(),
                d.norm().to_bits(),
                "fit list demand norm desync (notion {n})"
            );
            assert!(
                fit.lists[..l].iter().all(|o| o.key != list.key),
                "two fit lists for {d:?} (notion {n})"
            );
            assert_eq!(list.cands.len(), list.slots.len(), "fit list arrays differ");
            let fitting = table.rows.iter().filter(|r| r.vec.dominates(d)).count();
            assert_eq!(
                list.cands.len(),
                fitting,
                "fit list length != fitting classes for {d:?} (notion {n})"
            );
            // Entries name distinct live classes (a position per slot), each
            // fitting, and as many as fit: they are the fitting set.
            for (p, (c, &slot)) in list.cands.iter().zip(&list.slots).enumerate() {
                assert_eq!(list.position(slot), Some(p), "fit list position desync");
                let r = table.slots[slot as usize].row;
                assert_eq!(c.row, r, "fit list row desync for {d:?} (notion {n})");
                let row = &table.rows[r as usize];
                assert_eq!(row.slot, slot, "dissolved class on a fit list (notion {n})");
                assert!(
                    row.vec.dominates(d),
                    "unfit class on a fit list (notion {n})"
                );
                let (cos, norm) = score(&row.vec, d);
                assert_eq!(
                    (c.cos.to_bits(), c.norm.to_bits()),
                    (cos.to_bits(), norm.to_bits()),
                    "fit list score desync for {d:?} (notion {n})"
                );
            }
            assert_eq!(
                list.pos.iter().filter(|&&p| p != ABSENT).count(),
                list.slots.len(),
                "stale fit list positions (notion {n})"
            );
        }
    }

    /// The fit lists' work counters, summed over the class tables.
    pub fn fit_list_counters(&self) -> FitListCounters {
        self.tables.iter().fold(FitListCounters::default(), |a, t| {
            let c = t.fit.borrow().counters;
            FitListCounters {
                hits: a.hits + c.hits,
                builds: a.builds + c.builds,
                evictions: a.evictions + c.evictions,
                scored: a.scored + c.scored,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{best_headroom_with, choose_server_with};
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

    /// Every policy × mode placement query, and the destination query
    /// with no exclusion and with each of `excludes`, agrees with its
    /// scan oracle.
    fn assert_agrees(
        index: &PlacementIndex,
        servers: &[PhysicalServer],
        demand: &ResourceVector,
        excludes: &[usize],
    ) {
        index.assert_consistent(servers);
        for policy in PlacementPolicy::ALL {
            for mode in [
                AvailabilityMode::Deflation,
                AvailabilityMode::PreemptionOnly,
            ] {
                let mut r1 = SimRng::seed_from_u64(5);
                let mut r2 = SimRng::seed_from_u64(5);
                assert_eq!(
                    index.choose(policy, servers, demand, mode, &mut r1),
                    choose_server_with(policy, servers, demand, mode, &mut r2),
                    "{} {mode:?} for {demand:?}",
                    policy.name()
                );
            }
        }
        for exclude in std::iter::once(None).chain(excludes.iter().copied().map(Some)) {
            assert_eq!(
                index.best_headroom(servers, demand, exclude),
                best_headroom_with(servers, demand, exclude),
                "best_headroom for {demand:?} excluding {exclude:?}"
            );
        }
    }

    /// Empty servers, one per capacity: each one's free vector (and both
    /// availability vectors) is exactly its capacity.
    fn fleet_of(caps: &[ResourceVector]) -> Vec<PhysicalServer> {
        caps.iter()
            .enumerate()
            .map(|(i, &c)| PhysicalServer::new(ServerId(i as u64), c))
            .collect()
    }

    /// A vector whose cosine with a CPU-only demand is `cos` and whose
    /// norm is `norm`, both up to rounding.
    fn shaped(cos: f64, norm: f64) -> ResourceVector {
        let x = cos * norm;
        ResourceVector::new(x, (norm * norm - x * x).sqrt(), 0.0, 0.0)
    }

    /// Each of the six orders of three shapes over server ids 0..3.
    fn orders<T: Copy>([a, b, c]: [T; 3]) -> [[T; 3]; 6] {
        [
            [a, b, c],
            [a, c, b],
            [b, a, c],
            [b, c, a],
            [c, a, b],
            [c, b, a],
        ]
    }

    fn classes(index: &PlacementIndex, notion: Notion) -> Vec<&[u32]> {
        let table = &index.tables[notion as usize];
        table.rows.iter().map(|r| table.members(r)).collect()
    }

    #[test]
    fn a_thousand_identical_empty_servers_form_one_class() {
        let mut servers = fleet(1000);
        let mut index = PlacementIndex::new(&servers);
        for n in [Notion::Free, Notion::Deflation, Notion::Preemption] {
            let c = classes(&index, n);
            assert_eq!((c.len(), c[0].len()), (1, 1000));
        }
        for cpu in [1.0, 16.0, 17.0] {
            assert_agrees(&index, &servers, &spec(cpu), &[0, 1, 999]);
        }
        // Every tenth server takes a VM: two classes, and the roomy one
        // no longer starts at id 0.
        for i in (0..1000).step_by(10) {
            servers[i].add_vm(Vm::new(VmId(i as u64), spec(2.0), VmPriority::Low));
            index.refresh(i, &servers[i]);
        }
        assert_eq!(classes(&index, Notion::Free).len(), 2);
        for cpu in [1.0, 14.0, 15.0, 16.0] {
            assert_agrees(&index, &servers, &spec(cpu), &[0, 1, 990, 999]);
        }
    }

    #[test]
    fn a_cosine_chain_with_norms_ulps_apart_is_replayed() {
        // Cosines 0.6 + {1.2, 0.6, 0}e-9 chain through the fuzz: the top
        // beats the bottom, neighbours tie, and the norms (all 1 up to a
        // few ulps) break no tie. So no shortcut applies, and the answer
        // depends on the id order.
        let demand = ResourceVector::cpu(0.1);
        let shapes = [
            shaped(0.6 + 1.2e-9, 1.0),
            shaped(0.6 + 0.6e-9, 1.0),
            shaped(0.6, 1.0),
        ];
        let [a, b, c] = shapes.map(|v| score(&v, &demand));
        assert!(better(a, c) && !better(c, a), "top beats bottom");
        for (x, y) in [(a, b), (b, a), (b, c), (c, b)] {
            assert!(!better(x, y), "neighbours tie");
        }
        assert!((a.1 - c.1).abs() < 1e-15, "norms a few ulps apart");
        for order in orders(shapes) {
            let servers = fleet_of(&order);
            let index = PlacementIndex::new(&servers);
            assert_agrees(&index, &servers, &demand, &[0, 1, 2]);
        }
        // Bottom, middle, top: the scan keeps the bottom past the middle
        // and then yields to the top, so the lowest id is not the answer.
        let servers = fleet_of(&[shapes[2], shapes[1], shapes[0]]);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            PlacementIndex::new(&servers).choose(
                PlacementPolicy::BestFit,
                &servers,
                &demand,
                AvailabilityMode::Deflation,
                &mut rng,
            ),
            Some(2)
        );
    }

    #[test]
    fn a_norm_chain_within_one_cosine_is_replayed() {
        // One cosine, norms 1 + {0, 0.6, 1.2}e-9: the top norm beats the
        // bottom one, neighbours tie. A far smaller norm falls outside
        // the chain.
        let demand = ResourceVector::cpu(0.1);
        let shapes = [
            shaped(0.6, 1.0 + 1.2e-9),
            shaped(0.6, 1.0 + 0.6e-9),
            shaped(0.6, 1.0),
        ];
        let [a, b, c] = shapes.map(|v| score(&v, &demand));
        assert!((a.0 - c.0).abs() < 1e-15, "one cosine up to rounding");
        assert!(
            better(a, c) && !better(a, b) && !better(b, c),
            "a norm chain"
        );
        let small = shaped(0.6, 0.5);
        for [x, y, z] in orders(shapes) {
            let servers = fleet_of(&[x, small, y, z, x]);
            let index = PlacementIndex::new(&servers);
            assert_agrees(&index, &servers, &demand, &[0, 1]);
        }
        let servers = fleet_of(&[small, shapes[2], shapes[1], shapes[0]]);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            PlacementIndex::new(&servers).choose(
                PlacementPolicy::BestFit,
                &servers,
                &demand,
                AvailabilityMode::Deflation,
                &mut rng,
            ),
            Some(3),
            "the top norm displaces the bottom one; the middle one cannot"
        );
    }

    #[test]
    fn a_long_chain_grows_pass_by_pass_and_is_replayed() {
        // Cosines 0.6 + k·0.6e-9 for k in 0..24: each gap is a tie, so
        // the chain grows by a class or two per pass and takes them all.
        // In ascending order every second server displaces the best.
        let demand = ResourceVector::cpu(0.1);
        let shapes: Vec<ResourceVector> = (0..24)
            .map(|k| shaped(0.6 + k as f64 * 0.6e-9, 1.0))
            .collect();
        let mut shuffled = shapes.clone();
        let mut rng = SimRng::seed_from_u64(9);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.index(i + 1));
        }
        let descending: Vec<_> = shapes.iter().rev().copied().collect();
        let below = shaped(0.5, 1.0);
        for order in [shapes.clone(), descending, shuffled] {
            let mut caps = vec![below];
            caps.extend(order);
            let servers = fleet_of(&caps);
            let index = PlacementIndex::new(&servers);
            assert_agrees(&index, &servers, &demand, &[0, 1]);
        }
        let servers = fleet_of(&shapes);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(
            PlacementIndex::new(&servers).choose(
                PlacementPolicy::BestFit,
                &servers,
                &demand,
                AvailabilityMode::Deflation,
                &mut rng,
            ),
            Some(22),
            "0 yields to 2, 2 to 4, …, 20 to 22; 23 only ties with 22"
        );
    }

    #[test]
    fn an_intransitive_triple_follows_the_scan_order() {
        // a beats c on cosine; c beats b and b beats a on norm inside the
        // cosine fuzz. Plus a clear loser on cosine and a roomier one.
        let demand = ResourceVector::cpu(0.1);
        let shapes = [
            shaped(0.6 + 1.2e-9, 1.0),
            shaped(0.6 + 0.6e-9, 1.0 + 2e-9),
            shaped(0.6, 1.0 + 4e-9),
        ];
        let [a, b, c] = shapes.map(|v| score(&v, &demand));
        assert!(better(a, c) && better(c, b) && better(b, a), "a cycle");
        assert!(!better(c, a) && !better(b, c) && !better(a, b), "one way");
        let loser = shaped(0.5, 2.0);
        for [x, y, z] in orders(shapes) {
            // Interleaved members, with the loser first and in between.
            let servers = fleet_of(&[loser, x, y, z, x, loser, z, y, x, y, z]);
            let index = PlacementIndex::new(&servers);
            assert_agrees(&index, &servers, &demand, &[0, 1, 4]);
            for cut in 1..servers.len() {
                // Every prefix of the fleet is a fleet too: the members a
                // scan meets last change the answer along the way.
                let head = &servers[..cut];
                assert_agrees(&PlacementIndex::new(head), head, &demand, &[0]);
            }
        }
    }

    #[test]
    fn exclude_can_hit_the_only_member_of_the_roomiest_class() {
        let half = capacity().scale(0.5);
        let servers = fleet_of(&[half, capacity(), half, half]);
        let index = PlacementIndex::new(&servers);
        let demand = spec(1.0);
        assert_eq!(index.best_headroom(&servers, &demand, None), Some(1));
        assert_eq!(index.best_headroom(&servers, &demand, Some(1)), Some(0));
        assert_eq!(index.best_headroom(&servers, &demand, Some(0)), Some(1));
        assert_agrees(&index, &servers, &demand, &[0, 1, 2, 3]);
        assert_agrees(&index, &servers, &spec(9.0), &[0, 1, 2, 3]);
    }

    #[test]
    fn down_and_partitioned_servers_leave_and_rejoin_a_shared_class() {
        let mut servers = fleet(6);
        let mut index = PlacementIndex::new(&servers);
        servers[0].set_up(false);
        servers[3].set_connected(false);
        for i in [0, 3] {
            index.refresh(i, &servers[i]);
        }
        assert_eq!(classes(&index, Notion::Free), vec![&[5u32, 4, 2, 1][..]]);
        assert_agrees(&index, &servers, &spec(1.0), &[0, 1, 2, 3]);
        // The partitioned server changes while away, then both return:
        // the down one to the shared class, the other to a class of its
        // own.
        servers[3].add_vm(Vm::new(VmId(1), spec(2.0), VmPriority::Low));
        index.refresh(3, &servers[3]);
        assert_eq!(classes(&index, Notion::Free).len(), 1);
        servers[0].set_up(true);
        servers[3].set_connected(true);
        for i in [0, 3] {
            index.refresh(i, &servers[i]);
        }
        let mut shared = classes(&index, Notion::Free);
        shared.sort_by_key(|m| m.len());
        assert_eq!(shared, vec![&[3u32][..], &[5, 4, 2, 1, 0][..]]);
        for cpu in [1.0, 14.0, 15.0] {
            assert_agrees(&index, &servers, &spec(cpu), &[0, 1, 3]);
        }
    }
}
