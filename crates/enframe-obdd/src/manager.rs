//! The hash-consed OBDD manager.
//!
//! Ordered binary decision diagrams in the classic Brace–Rudell–Bryant
//! style: a global *unique table* guarantees that every variable/cofactor
//! triple is stored exactly once, so two functions are equal iff their
//! [`Bdd`] handles are equal; all Boolean connectives reduce to the
//! ternary [`Manager::ite`] operator, memoised in a computed-table; and
//! negation is **constant time** via complement edges — a [`Bdd`] is a
//! node index plus a complement bit, and `¬f` just flips the bit.
//!
//! Canonical form with complement edges requires one invariant: the
//! *then* edge of a stored node is never complemented ([`Manager::node`]
//! re-normalises by complementing the output instead). There is a single
//! terminal, ⊤; ⊥ is its complement.
//!
//! ## Variables, levels, and reordering
//!
//! Nodes are labelled with **variable indices** (plain `u32`s, stable for
//! the life of the manager); the manager separately keeps a mutable
//! permutation mapping each variable to its current **level** (smaller
//! levels sit closer to the root). Dynamic reordering (see
//! [`Manager::reorder`]) swaps adjacent levels *in place* over the unique
//! table — node indices and therefore [`Bdd`] handles keep denoting the
//! same Boolean function across reorders. The mapping between variables
//! and the engine's [`enframe_core::Var`]s lives in [`crate::ObddEngine`],
//! keeping the manager reusable for any variable universe.
//!
//! ## Storage
//!
//! The unique table is split into one **open-addressed subtable per
//! variable** (power-of-two capacity, linear probing, FxHash mixing from
//! [`enframe_core::fxhash`], load-factor-driven resizing) — per-variable
//! tables make the adjacent-level swap of sifting a local operation. The
//! `ite` computed-table is a **bounded, direct-mapped, epoch-tagged
//! cache**: collisions overwrite, so memory never grows past a fixed cap,
//! and invalidation after GC or reordering is a single epoch bump.
//!
//! ## Garbage collection
//!
//! [`Manager::collect_garbage`] is a mark-and-sweep rooted at the
//! [`Manager::protect`]-registered external handles: dead nodes return to
//! a free list, every subtable is rehashed to fit its survivors, and the
//! `ite` computed-table is invalidated by one epoch bump. Automatic
//! maintenance ([`Manager::maybe_maintain`]) runs GC — and, past a second
//! threshold, sifting — when the live-node count crosses growth triggers
//! derived from [`ReorderPolicy`]. Maintenance only ever happens inside
//! `maybe_maintain`/`collect_garbage`/`reorder`, never inside `ite` or
//! `node`, so handles stay valid throughout any apply operation; callers
//! must protect whatever they hold across an explicit maintenance point.

use enframe_core::fxhash::{mix2, mix3, FxHashMap};
use enframe_telemetry::{self as telemetry, Counter, Phase};

/// A handle to a Boolean function: node index and complement bit packed
/// into one word. Copy-cheap; equality is function equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant-true function.
    pub const TRUE: Bdd = Bdd(0);
    /// The constant-false function (complement of the terminal).
    pub const FALSE: Bdd = Bdd(1);

    fn pack(index: u32, complement: bool) -> Bdd {
        Bdd(index << 1 | complement as u32)
    }

    pub(crate) fn index(self) -> u32 {
        self.0 >> 1
    }

    pub(crate) fn raw(self) -> u32 {
        self.0
    }

    /// Whether this edge carries the complement bit.
    pub fn is_complement(self) -> bool {
        self.0 & 1 == 1
    }

    /// `¬f`, in constant time (also available as the `!` operator).
    pub fn complement(self) -> Bdd {
        Bdd(self.0 ^ 1)
    }

    /// Whether this is one of the two constant functions.
    pub fn is_const(self) -> bool {
        self.index() == 0
    }
}

impl std::ops::Not for Bdd {
    type Output = Bdd;
    fn not(self) -> Bdd {
        self.complement()
    }
}

/// Variable label of the terminal node.
const TERMINAL_VAR: u32 = u32::MAX;
/// Variable label marking a freed node slot (on the free list).
const FREE_VAR: u32 = u32::MAX - 1;
/// Level reported for constants: below every decision level.
const TERMINAL_LEVEL: u32 = u32::MAX;

/// One stored decision node.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NodeData {
    /// Variable label (stable across reordering).
    pub(crate) var: u32,
    /// The *then* cofactor; never complemented (canonical form).
    pub(crate) hi: Bdd,
    /// The *else* cofactor; may be complemented.
    pub(crate) lo: Bdd,
}

/// Whether the manager maintains itself.
///
/// Automatic maintenance runs at *safe points* ([`Manager::maybe_maintain`],
/// called by the compiler between apply steps and by the engine between
/// queries — never inside an apply operation): once the live-node count
/// crosses the GC trigger (first at 256), dead nodes are swept; if the
/// survivors still reach the reorder trigger (first at 384), group
/// sifting runs. After each pass the triggers are re-derived from the
/// surviving size (2× for both, floored at those first values), so
/// maintenance cost stays proportional to real growth.
///
/// ```
/// use enframe_obdd::{Manager, ReorderPolicy};
///
/// // An explicitly managed manager: no automatic passes.
/// let mut man = Manager::with_policy(ReorderPolicy::disabled());
/// let x = man.var(0);
/// let y = man.var(1);
/// let f = man.and(x, y);
/// let g = man.or(f, x); // == x ∨ y ... garbage: none yet, g shares f's nodes
///
/// // Protect what must survive, then collect and sift on demand.
/// man.protect(g);
/// man.collect_garbage();
/// man.reorder();
/// assert_eq!(man.stats().reorders, 1);
/// // Handles still denote the same functions after GC + reorder.
/// assert!(man.eval(g, |v| v == 0));
/// man.unprotect(g);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReorderPolicy {
    /// Whether automatic maintenance (GC + sifting) runs at safe points.
    pub auto: bool,
}

impl Default for ReorderPolicy {
    fn default() -> Self {
        ReorderPolicy { auto: true }
    }
}

impl ReorderPolicy {
    /// No automatic maintenance; [`Manager::collect_garbage`] and
    /// [`Manager::reorder`] still work when called explicitly.
    pub fn disabled() -> Self {
        ReorderPolicy { auto: false }
    }
}

/// Live-node count that first triggers an automatic GC.
const GC_THRESHOLD: usize = 256;
/// Live-node count (post-GC) that first triggers automatic sifting.
const REORDER_THRESHOLD: usize = 384;
/// Sifting aborts a block's walk once the manager grows past this
/// factor times the best size seen for that block.
pub(crate) const MAX_GROWTH: f64 = 1.2;

/// A live snapshot of the manager's health counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ManagerStats {
    /// Decision nodes currently alive (terminal excluded).
    pub live_nodes: usize,
    /// High-water mark of live decision nodes.
    pub peak_nodes: usize,
    /// Mark-and-sweep passes run so far.
    pub gc_runs: u64,
    /// Sifting passes run so far.
    pub reorders: u64,
    /// Live unique-table entries over total allocated capacity.
    pub load_factor: f64,
    /// `ite` computed-table hits so far.
    pub cache_hits: u64,
    /// Estimated peak resident bytes: peak nodes × per-node storage
    /// (node data + stored-edge refcount) plus the current unique-table
    /// slot capacity and `ite` computed-table capacity. Node counts
    /// alone hide memory walls; this makes them visible in the CSV.
    pub peak_bytes: usize,
}

// ---------------------------------------------------------------------
// Unique subtables: open addressing, linear probing, FxHash indexing.
// ---------------------------------------------------------------------

const EMPTY: u32 = u32::MAX;
const TOMB: u32 = u32::MAX - 1;

/// The unique table of one variable: an open-addressed set of node
/// indices keyed by the nodes' `(hi, lo)` edge pair.
#[derive(Debug, Default, Clone)]
pub(crate) struct Subtable {
    /// Power-of-two slot array of node indices ([`EMPTY`]/[`TOMB`]
    /// sentinels); empty until first insert.
    slots: Vec<u32>,
    /// Live entries.
    len: usize,
    /// Tombstones left by removals (cleared on rebuild).
    tombs: usize,
}

impl Subtable {
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    fn slot_of(&self, hash: u64, step: usize) -> usize {
        let mask = self.slots.len() - 1;
        ((hash >> (64 - self.slots.len().trailing_zeros())) as usize + step) & mask
    }

    fn find(&self, nodes: &[NodeData], hi: Bdd, lo: Bdd) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let h = mix2(hi.raw(), lo.raw());
        for step in 0..self.slots.len() {
            match self.slots[self.slot_of(h, step)] {
                EMPTY => return None,
                TOMB => {}
                idx => {
                    let n = &nodes[idx as usize];
                    if n.hi == hi && n.lo == lo {
                        return Some(idx);
                    }
                }
            }
        }
        None
    }

    /// Inserts `idx` (key must be absent). Grows/rebuilds beforehand when
    /// occupancy (entries + tombstones) would exceed ¾ of capacity.
    pub(crate) fn insert(&mut self, nodes: &[NodeData], idx: u32) {
        if (self.len + self.tombs + 1) * 4 > self.capacity() * 3 {
            self.rebuild(nodes);
        }
        let n = &nodes[idx as usize];
        let h = mix2(n.hi.raw(), n.lo.raw());
        for step in 0..self.slots.len() {
            let s = self.slot_of(h, step);
            if self.slots[s] == EMPTY || self.slots[s] == TOMB {
                if self.slots[s] == TOMB {
                    self.tombs -= 1;
                }
                self.slots[s] = idx;
                self.len += 1;
                return;
            }
        }
        unreachable!("subtable kept below load factor");
    }

    pub(crate) fn remove(&mut self, nodes: &[NodeData], hi: Bdd, lo: Bdd) {
        let h = mix2(hi.raw(), lo.raw());
        for step in 0..self.slots.len() {
            let s = self.slot_of(h, step);
            match self.slots[s] {
                EMPTY => break,
                TOMB => {}
                idx => {
                    let n = &nodes[idx as usize];
                    if n.hi == hi && n.lo == lo {
                        self.slots[s] = TOMB;
                        self.len -= 1;
                        self.tombs += 1;
                        return;
                    }
                }
            }
        }
        debug_assert!(false, "removing a key absent from its subtable");
    }

    /// Re-slots every live entry into a fresh array sized for the current
    /// population (min 8), clearing tombstones.
    fn rebuild(&mut self, nodes: &[NodeData]) {
        telemetry::count(Counter::UniqueResize);
        let cap = ((self.len + 1) * 2).next_power_of_two().max(8);
        let old = std::mem::replace(&mut self.slots, vec![EMPTY; cap]);
        self.tombs = 0;
        self.len = 0;
        for idx in old {
            if idx != EMPTY && idx != TOMB {
                self.insert(nodes, idx);
            }
        }
    }

    /// Live node indices, in table order.
    pub(crate) fn indices(&self) -> Vec<u32> {
        self.slots
            .iter()
            .copied()
            .filter(|&i| i != EMPTY && i != TOMB)
            .collect()
    }

    fn clear_for(&mut self, expected: usize) {
        let cap = ((expected + 1) * 2).next_power_of_two().max(8);
        self.slots.clear();
        self.slots.resize(cap, EMPTY);
        self.len = 0;
        self.tombs = 0;
    }
}

// ---------------------------------------------------------------------
// The ite computed-table: bounded, direct-mapped, epoch-tagged.
// ---------------------------------------------------------------------

const ITE_MIN_BITS: u32 = 10;
const ITE_MAX_BITS: u32 = 18;

#[derive(Debug, Clone, Copy)]
struct IteEntry {
    f: u32,
    g: u32,
    h: u32,
    r: u32,
    stamp: u32,
}

const ITE_EMPTY: IteEntry = IteEntry {
    f: 0,
    g: 0,
    h: 0,
    r: 0,
    stamp: 0,
};

#[derive(Debug)]
struct IteCache {
    entries: Vec<IteEntry>,
    /// Valid-entry tag; bumping it invalidates everything at once.
    stamp: u32,
    /// Insertions since the last growth step.
    inserts: u64,
}

impl IteCache {
    fn new() -> Self {
        IteCache {
            entries: vec![ITE_EMPTY; 1 << ITE_MIN_BITS],
            stamp: 1,
            inserts: 0,
        }
    }

    fn slot(&self, f: Bdd, g: Bdd, h: Bdd) -> usize {
        let bits = self.entries.len().trailing_zeros();
        (mix3(f.raw(), g.raw(), h.raw()) >> (64 - bits)) as usize
    }

    fn lookup(&self, f: Bdd, g: Bdd, h: Bdd) -> Option<Bdd> {
        let e = &self.entries[self.slot(f, g, h)];
        (e.stamp == self.stamp && e.f == f.raw() && e.g == g.raw() && e.h == h.raw())
            .then_some(Bdd(e.r))
    }

    fn store(&mut self, f: Bdd, g: Bdd, h: Bdd, r: Bdd) {
        // Churn-driven growth: once insertions since the last resize
        // exceed twice the capacity the cache is evicting hot entries —
        // double it (re-slotting the survivors: they are hot, just-
        // computed results), up to the hard cap.
        if self.inserts > 2 * self.entries.len() as u64 && self.entries.len() < (1 << ITE_MAX_BITS)
        {
            let cap = self.entries.len() * 2;
            let old = std::mem::replace(&mut self.entries, vec![ITE_EMPTY; cap]);
            for e in old {
                if e.stamp == self.stamp {
                    let s = self.slot(Bdd(e.f), Bdd(e.g), Bdd(e.h));
                    self.entries[s] = e;
                }
            }
            self.inserts = 0;
        }
        let s = self.slot(f, g, h);
        let prev = &self.entries[s];
        if prev.stamp == self.stamp && (prev.f, prev.g, prev.h) != (f.raw(), g.raw(), h.raw()) {
            telemetry::count(Counter::IteEviction);
        }
        self.entries[s] = IteEntry {
            f: f.raw(),
            g: g.raw(),
            h: h.raw(),
            r: r.raw(),
            stamp: self.stamp,
        };
        self.inserts += 1;
    }

    fn invalidate(&mut self) {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            // Tag wrapped: old entries would look fresh again, so wipe.
            self.entries.fill(ITE_EMPTY);
            self.stamp = 1;
        }
    }
}

// ---------------------------------------------------------------------
// The manager.
// ---------------------------------------------------------------------

/// The shared store of all BDD nodes: per-variable unique subtables, the
/// `ite` computed-table, the root registry for GC, and the level
/// permutation for dynamic reordering.
#[derive(Debug)]
pub struct Manager {
    pub(crate) nodes: Vec<NodeData>,
    /// Stored-edge reference counts: how many *stored* nodes point at
    /// each index. External handles are tracked in `roots` instead.
    pub(crate) refs: Vec<u32>,
    /// Freed node slots available for reuse.
    pub(crate) free: Vec<u32>,
    /// One unique subtable per variable.
    pub(crate) subtables: Vec<Subtable>,
    /// Variable → current level.
    pub(crate) perm: Vec<u32>,
    /// Current level → variable.
    pub(crate) invperm: Vec<u32>,
    /// Group-sifting blocks: sizes of the contiguous level ranges that
    /// move as units (a partition of the level space, in level order).
    pub(crate) blocks: Vec<u32>,
    /// Protected external handles: node index → protection count.
    pub(crate) roots: FxHashMap<u32, u32>,
    cache: IteCache,
    pub(crate) policy: ReorderPolicy,
    gc_trigger: usize,
    reorder_trigger: usize,
    /// Bumped by every GC and reorder; epoch-keyed state (the ite
    /// computed-table) discards entries from older epochs.
    epoch: u64,
    pub(crate) live: usize,
    peak: usize,
    gc_runs: u64,
    pub(crate) reorders: u64,
    cache_hits: u64,
}

impl Default for Manager {
    fn default() -> Self {
        Manager::new()
    }
}

impl Manager {
    /// An empty manager holding only the terminal, with the default
    /// (automatic) [`ReorderPolicy`].
    pub fn new() -> Self {
        Manager::with_policy(ReorderPolicy::default())
    }

    /// An empty manager with the given maintenance policy.
    pub fn with_policy(policy: ReorderPolicy) -> Self {
        Manager {
            nodes: vec![NodeData {
                var: TERMINAL_VAR,
                hi: Bdd::TRUE,
                lo: Bdd::TRUE,
            }],
            refs: vec![0],
            free: Vec::new(),
            subtables: Vec::new(),
            perm: Vec::new(),
            invperm: Vec::new(),
            blocks: Vec::new(),
            roots: FxHashMap::default(),
            cache: IteCache::new(),
            policy,
            gc_trigger: GC_THRESHOLD,
            reorder_trigger: REORDER_THRESHOLD,
            epoch: 0,
            live: 0,
            peak: 0,
            gc_runs: 0,
            reorders: 0,
            cache_hits: 0,
        }
    }

    /// Total stored nodes, terminal included (freed slots excluded).
    pub fn len(&self) -> usize {
        self.live + 1
    }

    /// Whether the manager holds only the terminal.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `ite` computed-table hits so far (for stats).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits
    }

    /// Current capacity of the `ite` computed-table in entries. Bounded:
    /// it grows at most to [`Manager::ITE_CACHE_MAX_CAPACITY`], and
    /// collisions overwrite rather than chain.
    pub fn ite_cache_capacity(&self) -> usize {
        self.cache.entries.len()
    }

    /// Hard cap on [`Manager::ite_cache_capacity`].
    pub const ITE_CACHE_MAX_CAPACITY: usize = 1 << ITE_MAX_BITS;

    /// A snapshot of the manager's health counters.
    pub fn stats(&self) -> ManagerStats {
        let capacity: usize = self.subtables.iter().map(Subtable::capacity).sum();
        let entries: usize = self.subtables.iter().map(Subtable::len).sum();
        // Peak-memory estimate: node storage is sized by the high-water
        // mark (the node array never shrinks), tables by their current
        // capacity (subtables only shrink on GC rebuild).
        let per_node = std::mem::size_of::<NodeData>() + std::mem::size_of::<u32>();
        let peak_bytes = self.peak.max(self.nodes.len()) * per_node
            + capacity * std::mem::size_of::<u32>()
            + self.cache.entries.len() * std::mem::size_of::<IteEntry>();
        ManagerStats {
            live_nodes: self.live,
            peak_nodes: self.peak,
            gc_runs: self.gc_runs,
            reorders: self.reorders,
            load_factor: if capacity == 0 {
                0.0
            } else {
                entries as f64 / capacity as f64
            },
            cache_hits: self.cache_hits,
            peak_bytes,
        }
    }

    /// Number of declared variables.
    pub fn n_vars(&self) -> usize {
        self.perm.len()
    }

    /// The current level of variable `v` (root-most is 0).
    pub fn level_of_var(&self, v: u32) -> u32 {
        self.perm[v as usize]
    }

    /// The variable label of `f`'s root ([`u32::MAX`] for constants).
    pub fn var_of(&self, f: Bdd) -> u32 {
        self.nodes[f.index() as usize].var
    }

    /// The current decision level of `f`'s root ([`u32::MAX`] for
    /// constants). Levels move under reordering; variable labels
    /// ([`Manager::var_of`]) do not.
    pub fn level(&self, f: Bdd) -> u32 {
        let v = self.var_of(f);
        if v == TERMINAL_VAR {
            TERMINAL_LEVEL
        } else {
            self.perm[v as usize]
        }
    }

    fn ensure_var(&mut self, v: u32) {
        while self.perm.len() <= v as usize {
            let l = self.perm.len() as u32;
            self.perm.push(l);
            self.invperm.push(l);
            self.blocks.push(1);
            self.subtables.push(Subtable::default());
        }
    }

    /// Declares the sifting blocks: `sizes` partitions the variables (in
    /// current level order) into contiguous ranges that reordering moves
    /// as units — one block per mutex/conditional var-group, singletons
    /// elsewhere. Variables declared later become singleton blocks.
    ///
    /// # Panics
    /// Panics if the sizes do not sum to the declared variable count.
    pub fn set_level_blocks(&mut self, sizes: &[u32]) {
        assert_eq!(
            sizes.iter().map(|&s| s as usize).sum::<usize>(),
            self.perm.len(),
            "blocks must partition the declared variables"
        );
        assert!(sizes.iter().all(|&s| s > 0), "blocks must be non-empty");
        self.blocks = sizes.to_vec();
    }

    /// Declares variables `0..n` (levels in declaration order) without
    /// creating any nodes — so [`Manager::set_level_blocks`] can run
    /// before the first node exists.
    pub fn declare_vars(&mut self, n: u32) {
        if n > 0 {
            self.ensure_var(n - 1);
        }
    }

    /// The positive literal of variable `v` (declared on first use).
    pub fn var(&mut self, v: u32) -> Bdd {
        self.ensure_var(v);
        self.node(v, Bdd::TRUE, Bdd::FALSE)
    }

    /// The negative literal of variable `v`.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        self.ensure_var(v);
        self.node(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The cofactors `(f|v=1, f|v=0)` of `f` with respect to variable
    /// `v`, whose level must not be below `f`'s root level.
    pub fn cofactors(&self, f: Bdd, v: u32) -> (Bdd, Bdd) {
        let n = &self.nodes[f.index() as usize];
        if n.var != v {
            debug_assert!(
                self.level(f) > self.perm[v as usize],
                "cofactor below the root level"
            );
            return (f, f);
        }
        if f.is_complement() {
            (!n.hi, !n.lo)
        } else {
            (n.hi, n.lo)
        }
    }

    /// The unique (reduced) node `v ? hi : lo`.
    ///
    /// # Panics
    /// Panics in debug builds if a child's level is not strictly below
    /// `v`'s (ordering violation).
    pub fn node(&mut self, v: u32, hi: Bdd, lo: Bdd) -> Bdd {
        self.ensure_var(v);
        debug_assert!(
            self.level(hi) > self.perm[v as usize] && self.level(lo) > self.perm[v as usize],
            "child level above parent"
        );
        if hi == lo {
            return hi;
        }
        // Canonical form: the then-edge is never complemented.
        if hi.is_complement() {
            return !self.node_raw(v, !hi, !lo);
        }
        self.node_raw(v, hi, lo)
    }

    pub(crate) fn node_raw(&mut self, v: u32, hi: Bdd, lo: Bdd) -> Bdd {
        telemetry::count(Counter::UniqueProbe);
        if let Some(idx) = self.subtables[v as usize].find(&self.nodes, hi, lo) {
            return Bdd::pack(idx, false);
        }
        telemetry::count(Counter::NodeAlloc);
        let idx = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = NodeData { var: v, hi, lo };
                self.refs[slot as usize] = 0;
                slot
            }
            None => {
                let idx = self.nodes.len() as u32;
                self.nodes.push(NodeData { var: v, hi, lo });
                self.refs.push(0);
                idx
            }
        };
        self.bump_stored_edge(hi);
        self.bump_stored_edge(lo);
        self.subtables[v as usize].insert(&self.nodes, idx);
        self.live += 1;
        self.peak = self.peak.max(self.live);
        Bdd::pack(idx, false)
    }

    /// Bumps the stored-edge reference count of `e` (terminal excluded).
    pub(crate) fn bump_stored_edge(&mut self, e: Bdd) {
        let i = e.index() as usize;
        if i != 0 {
            self.refs[i] += 1;
        }
    }

    /// Drops one stored-edge reference to `e`, freeing its node (and
    /// cascading into its children) when no stored edge and no root
    /// protection keeps it alive. Only reordering calls this — ordinary
    /// apply operations leave garbage to the mark-and-sweep collector.
    pub(crate) fn release_edge(&mut self, e: Bdd) {
        let i = e.index();
        if i == 0 {
            return;
        }
        self.refs[i as usize] -= 1;
        if self.refs[i as usize] == 0 && !self.roots.contains_key(&i) {
            let n = self.nodes[i as usize];
            self.subtables[n.var as usize].remove(&self.nodes, n.hi, n.lo);
            self.nodes[i as usize].var = FREE_VAR;
            self.free.push(i);
            self.live -= 1;
            self.release_edge(n.hi);
            self.release_edge(n.lo);
        }
    }

    // -----------------------------------------------------------------
    // Roots and garbage collection.
    // -----------------------------------------------------------------

    /// Registers `f` as a GC root: the node (and everything it reaches)
    /// survives [`Manager::collect_garbage`] until a matching
    /// [`Manager::unprotect`]. Protection counts nest.
    pub fn protect(&mut self, f: Bdd) {
        let i = f.index();
        if i != 0 {
            *self.roots.entry(i).or_insert(0) += 1;
        }
    }

    /// Drops one protection of `f`.
    pub fn unprotect(&mut self, f: Bdd) {
        let i = f.index();
        if i == 0 {
            return;
        }
        match self.roots.get_mut(&i) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.roots.remove(&i);
            }
            None => debug_assert!(false, "unprotecting an unprotected handle"),
        }
    }

    /// Mark-and-sweep over the node store, rooted at the
    /// [`Manager::protect`]-registered handles: unreachable nodes go to
    /// the free list, every unique subtable is rehashed to fit its
    /// survivors, the computed caches are invalidated, and the epoch
    /// advances. Returns the number of nodes freed.
    ///
    /// Any unprotected [`Bdd`] held by a caller dangles afterwards; the
    /// constants [`Bdd::TRUE`]/[`Bdd::FALSE`] are always safe.
    pub fn collect_garbage(&mut self) -> usize {
        let _span = telemetry::span(Phase::Gc);
        // Mark.
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        let mut stack: Vec<u32> = self.roots.keys().copied().collect();
        while let Some(i) = stack.pop() {
            if marked[i as usize] {
                continue;
            }
            marked[i as usize] = true;
            let n = &self.nodes[i as usize];
            debug_assert_ne!(n.var, FREE_VAR, "root reaches a freed node");
            stack.push(n.hi.index());
            stack.push(n.lo.index());
        }
        // Sweep.
        let mut freed = 0usize;
        for i in 1..self.nodes.len() {
            if self.nodes[i].var != FREE_VAR && !marked[i] {
                self.nodes[i].var = FREE_VAR;
                self.free.push(i as u32);
                freed += 1;
            }
        }
        self.live -= freed;
        // Rehash every subtable to fit its survivors and rebuild the
        // stored-edge reference counts from scratch.
        let mut per_var = vec![0usize; self.subtables.len()];
        for n in self.nodes.iter().skip(1) {
            if n.var != FREE_VAR {
                per_var[n.var as usize] += 1;
            }
        }
        for (sub, &count) in self.subtables.iter_mut().zip(&per_var) {
            sub.clear_for(count);
        }
        self.refs.iter_mut().for_each(|r| *r = 0);
        for i in 1..self.nodes.len() {
            let n = self.nodes[i];
            if n.var != FREE_VAR {
                self.subtables[n.var as usize].insert(&self.nodes, i as u32);
                self.bump_stored_edge(n.hi);
                self.bump_stored_edge(n.lo);
            }
        }
        self.cache.invalidate();
        self.epoch += 1;
        self.gc_runs += 1;
        telemetry::count_n(Counter::NodeFree, freed as u64);
        freed
    }

    /// Runs automatic maintenance if the policy calls for it: GC once
    /// live nodes cross the GC trigger, then sifting if the survivors
    /// still cross the reorder trigger. Callers must have
    /// [`Manager::protect`]ed every handle they hold. No-op under
    /// [`ReorderPolicy::disabled`] or below the triggers.
    pub fn maybe_maintain(&mut self) {
        if !self.needs_maintenance() {
            return;
        }
        self.collect_garbage();
        if self.live >= self.reorder_trigger {
            // The sweep above already ran: sift directly instead of
            // paying reorder()'s own GC a second time.
            self.sift_pass();
            self.reorder_trigger = self.live.saturating_mul(2).max(REORDER_THRESHOLD);
        }
        self.gc_trigger = self.live.saturating_mul(2).max(GC_THRESHOLD);
    }

    /// Whether [`Manager::maybe_maintain`] would act right now — cheap
    /// enough to gate per-operation safe points.
    pub fn needs_maintenance(&self) -> bool {
        self.policy.auto && self.live >= self.gc_trigger
    }

    /// Bumps the epoch, invalidating the computed-table. (Reordering and
    /// GC call this internally.)
    pub(crate) fn invalidate_caches(&mut self) {
        self.cache.invalidate();
        self.epoch += 1;
    }

    // -----------------------------------------------------------------
    // Apply operations.
    // -----------------------------------------------------------------

    /// The if-then-else connective `f ? g : h` — the single apply
    /// operation every binary connective reduces to. Never triggers
    /// maintenance: handles stay valid across any chain of applies.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        if f == Bdd::TRUE {
            return g;
        }
        if f == Bdd::FALSE {
            return h;
        }
        // Absorption: a branch equal (or complementary) to the condition
        // collapses to a constant.
        let g = if f == g {
            Bdd::TRUE
        } else if f == !g {
            Bdd::FALSE
        } else {
            g
        };
        let h = if f == h {
            Bdd::FALSE
        } else if f == !h {
            Bdd::TRUE
        } else {
            h
        };
        // Terminal cases.
        if g == h {
            return g;
        }
        if g == Bdd::TRUE && h == Bdd::FALSE {
            return f;
        }
        if g == Bdd::FALSE && h == Bdd::TRUE {
            return !f;
        }
        // Normalise for cache density: condition never complemented
        // (swap branches), output complement hoisted out of g.
        if f.is_complement() {
            return self.ite(!f, h, g);
        }
        if g.is_complement() {
            return !self.ite(f, !g, !h);
        }
        if let Some(r) = self.cache.lookup(f, g, h) {
            self.cache_hits += 1;
            telemetry::count(Counter::IteHit);
            return r;
        }
        telemetry::count(Counter::IteMiss);
        let top = self.level(f).min(self.level(g)).min(self.level(h));
        let v = self.invperm[top as usize];
        let (f1, f0) = self.cofactors(f, v);
        let (g1, g0) = self.cofactors(g, v);
        let (h1, h0) = self.cofactors(h, v);
        let hi = self.ite(f1, g1, h1);
        let lo = self.ite(f0, g0, h0);
        let r = self.node(v, hi, lo);
        self.cache.store(f, g, h, r);
        r
    }

    /// `f ∧ g`.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, g, Bdd::FALSE)
    }

    /// `f ∨ g`.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, Bdd::TRUE, g)
    }

    /// `f ⊕ g`.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.ite(f, !g, g)
    }

    /// Evaluates `f` under a complete assignment of **variables** to
    /// truth values.
    pub fn eval(&self, f: Bdd, assignment: impl Fn(u32) -> bool) -> bool {
        let mut cur = f;
        let mut parity = false;
        while !cur.is_const() {
            let n = &self.nodes[cur.index() as usize];
            parity ^= cur.is_complement();
            cur = if assignment(n.var) { n.hi } else { n.lo };
        }
        parity ^= cur.is_complement();
        !parity
    }

    /// Number of decision nodes in the DAG rooted at `f` (complement
    /// bits ignored; constants count as 0).
    pub fn size(&self, f: Bdd) -> usize {
        let mut seen = enframe_core::fxhash::FxHashSet::default();
        let mut stack = vec![f.index()];
        while let Some(i) = stack.pop() {
            if i == 0 || !seen.insert(i) {
                continue;
            }
            let n = &self.nodes[i as usize];
            stack.push(n.hi.index());
            stack.push(n.lo.index());
        }
        seen.len()
    }

    /// Root node data of `f`: `(index, var, hi, lo)`. Used by model
    /// counting.
    pub(crate) fn node_of(&self, f: Bdd) -> (u32, u32, Bdd, Bdd) {
        let i = f.index();
        let n = &self.nodes[i as usize];
        (i, n.var, n.hi, n.lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lits(man: &mut Manager) -> (Bdd, Bdd, Bdd) {
        (man.var(0), man.var(1), man.var(2))
    }

    #[test]
    fn constants_and_negation() {
        assert_eq!(!Bdd::TRUE, Bdd::FALSE);
        assert_eq!(!!Bdd::TRUE, Bdd::TRUE);
        assert!(Bdd::TRUE.is_const() && Bdd::FALSE.is_const());
    }

    #[test]
    fn hash_consing_gives_pointer_equality() {
        let mut man = Manager::new();
        let (x, y, _) = lits(&mut man);
        let a = man.and(x, y);
        let b = man.and(y, x);
        assert_eq!(a, b, "∧ is commutative up to hash-consing");
        let c = man.or(!x, !y);
        assert_eq!(c, !a, "De Morgan via complement edges");
    }

    #[test]
    fn negation_is_free() {
        let mut man = Manager::new();
        let (x, y, _) = lits(&mut man);
        let f = man.or(x, y);
        let before = man.len();
        let g = !f;
        assert_eq!(man.len(), before, "¬ allocates no nodes");
        assert_ne!(f, g);
        assert_eq!(!g, f);
    }

    #[test]
    fn ite_matches_truth_table() {
        let mut man = Manager::new();
        let (x, y, z) = lits(&mut man);
        let f = man.ite(x, y, z);
        for code in 0..8u32 {
            let a = |v: u32| code >> v & 1 == 1;
            let want = if a(0) { a(1) } else { a(2) };
            assert_eq!(man.eval(f, a), want, "code {code:03b}");
        }
    }

    #[test]
    fn connectives_match_truth_tables() {
        let mut man = Manager::new();
        let (x, y, _) = lits(&mut man);
        let and = man.and(x, y);
        let or = man.or(x, y);
        let xor = man.xor(x, y);
        for code in 0..4u32 {
            let a = |v: u32| code >> v & 1 == 1;
            assert_eq!(man.eval(and, a), a(0) && a(1));
            assert_eq!(man.eval(or, a), a(0) || a(1));
            assert_eq!(man.eval(xor, a), a(0) ^ a(1));
        }
    }

    #[test]
    fn reduction_removes_redundant_tests() {
        let mut man = Manager::new();
        let (x, y, _) = lits(&mut man);
        // x ? y : y ≡ y
        let f = man.ite(x, y, y);
        assert_eq!(f, y);
        // tautology collapses to the terminal
        let t = man.or(x, !x);
        assert_eq!(t, Bdd::TRUE);
        let c = man.and(x, !x);
        assert_eq!(c, Bdd::FALSE);
    }

    #[test]
    fn size_counts_distinct_nodes() {
        let mut man = Manager::new();
        let (x, y, z) = lits(&mut man);
        assert_eq!(man.size(Bdd::TRUE), 0);
        assert_eq!(man.size(x), 1);
        let xy = man.and(x, y);
        let f = man.or(xy, z);
        assert_eq!(man.size(f), 3);
    }

    #[test]
    fn ordering_is_respected() {
        let mut man = Manager::new();
        let (x, y, _) = lits(&mut man);
        let f = man.and(x, y);
        // Root tests the smaller level.
        assert_eq!(man.level(f), 0);
        assert_eq!(man.var_of(f), 0);
        let (hi, lo) = man.cofactors(f, 0);
        assert_eq!(hi, y);
        assert_eq!(lo, Bdd::FALSE);
    }

    #[test]
    fn cache_reuses_results() {
        let mut man = Manager::new();
        let (x, y, z) = lits(&mut man);
        let a = man.ite(x, y, z);
        let before = man.cache_hits();
        let b = man.ite(x, y, z);
        assert_eq!(a, b);
        assert!(man.cache_hits() > before);
    }

    #[test]
    fn gc_frees_unrooted_nodes_and_keeps_roots() {
        let mut man = Manager::with_policy(ReorderPolicy::disabled());
        let (x, y, z) = lits(&mut man);
        let keep = man.and(x, y);
        let _dead = man.xor(keep, z); // garbage once unprotected
        man.protect(keep);
        let live_before = man.len();
        let freed = man.collect_garbage();
        assert!(freed > 0, "xor chain must be collected");
        assert!(man.len() < live_before);
        // The kept function still works; recreated literals hash-cons
        // back to the same function.
        for code in 0..4u32 {
            let a = |v: u32| code >> v & 1 == 1;
            assert_eq!(man.eval(keep, a), a(0) && a(1));
        }
        let x2 = man.var(0);
        let y2 = man.var(1);
        assert_eq!(man.and(x2, y2), keep, "unique table survives the sweep");
        man.unprotect(keep);
        man.collect_garbage();
        assert!(man.is_empty(), "nothing rooted: everything is swept");
    }

    #[test]
    fn protection_counts_nest() {
        let mut man = Manager::with_policy(ReorderPolicy::disabled());
        let (x, y, _) = lits(&mut man);
        let f = man.and(x, y);
        man.protect(f);
        man.protect(f);
        man.unprotect(f);
        man.collect_garbage();
        assert_eq!(man.size(f), 2, "still protected once: x∧y has 2 nodes");
        assert!(man.eval(f, |_| true));
        man.unprotect(f);
        man.collect_garbage();
        assert!(man.is_empty());
    }

    #[test]
    fn gc_bumps_epoch_and_keeps_cache_bounded() {
        let mut man = Manager::with_policy(ReorderPolicy::disabled());
        let e0 = man.epoch;
        man.collect_garbage();
        assert_eq!(man.epoch, e0 + 1);
        assert!(man.ite_cache_capacity() <= Manager::ITE_CACHE_MAX_CAPACITY);
    }

    #[test]
    fn free_slots_are_reused() {
        let mut man = Manager::with_policy(ReorderPolicy::disabled());
        let (x, y, z) = lits(&mut man);
        let f = man.and(x, y);
        man.protect(f);
        let _g = man.and(f, z);
        man.collect_garbage(); // frees the f∧z cone and the dead literals
        let total_slots = man.nodes.len();
        let z2 = man.var(2);
        let h = man.or(f, z2); // must reuse freed slots, not push new ones
        assert!(man.nodes.len() <= total_slots, "freed slots reused");
        assert!(man.eval(h, |v| v == 2));
    }

    /// Shannon expansion holds on random 4-variable functions built from
    /// a seeded formula generator.
    #[test]
    fn random_formulas_agree_with_direct_eval() {
        let mut man = Manager::new();
        let vars: Vec<Bdd> = (0..4).map(|v| man.var(v)).collect();
        let mut s = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut pool = vars.clone();
        for _ in 0..40 {
            let a = pool[next() as usize % pool.len()];
            let b = pool[next() as usize % pool.len()];
            let f = match next() % 4 {
                0 => man.and(a, b),
                1 => man.or(a, b),
                2 => man.xor(a, b),
                _ => !a,
            };
            pool.push(f);
        }
        // Check the Shannon identity f = (x ∧ f|x) ∨ (¬x ∧ f|¬x) on the
        // manager itself.
        for &f in &pool {
            let (f1, f0) = if man.var_of(f) == 0 {
                man.cofactors(f, 0)
            } else {
                (f, f)
            };
            let x = vars[0];
            let a = man.and(x, f1);
            let b = man.and(!x, f0);
            let back = man.or(a, b);
            assert_eq!(back, f);
        }
    }
}
