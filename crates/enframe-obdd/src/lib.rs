//! # enframe-obdd — OBDD knowledge compilation for event networks
//!
//! The decision-tree engine of `enframe-prob` explores the Shannon tree
//! induced by the input variables (paper Algorithm 1) — exact answers cost
//! time exponential in the variable count, whatever the lineage looks
//! like. This crate implements the *knowledge compilation* route of Koch &
//! Olteanu's "Conditioning Probabilistic Databases": compile each target
//! event **once** into an ordered binary decision diagram, then answer
//! probability and conditioning queries in time **linear in the compiled
//! size**. For the read-once and hierarchical lineage produced by the
//! mutex and conditional correlation schemes the compiled size is
//! polynomial, so exact probabilities become feasible far beyond the
//! decision-tree engine's horizon.
//!
//! * [`Manager`] — the hash-consed node store: open-addressed
//!   per-variable unique subtables (FxHash, load-factor resizing), a
//!   bounded epoch-tagged [`Manager::ite`] computed-table, constant-time
//!   negation via complement edges, **mark-and-sweep garbage
//!   collection** rooted at [`Manager::protect`]-registered handles, and
//!   **dynamic variable reordering** by group sifting — automatic past a
//!   growth threshold ([`ReorderPolicy`]) or on demand
//!   ([`Manager::reorder`]).
//! * [`ObddEngine`] — compiles an [`enframe_network::Network`]'s targets
//!   one after another on the calling thread (propositional structure
//!   compositionally; comparison atoms through the d-DNNF DP below),
//!   computes exact probabilities by weighted model counting ([`Wmc`]),
//!   and answers [`ObddEngine::condition`] queries: posteriors
//!   `P(target | evidence)` for arbitrary evidence events.
//! * [`dnnf`] — the second compiled form: targets compiled to
//!   **d-DNNF** with expansion memoised on residual states (a
//!   partial-sum DP over comparison atoms) and decomposable-AND
//!   factoring ([`dnnf::DnnfEngine`]) — the one expander of comparison
//!   atoms for both forms, polynomial on aggregate-comparison workloads
//!   where expanding assignments costs `~2^v` per atom. This is the
//!   crate's one parallel compile: its targets fan out over
//!   [`enframe_core::pool`] ([`dnnf::DnnfOptions::workers`]).
//!
//! Mutex var-groups — the paper's encoding of a multi-valued "which of
//! these points exists" choice as a Boolean chain `¬x₁ ∧ … ∧ xⱼ` — are
//! respected natively: [`ObddOptions::groups`] keeps each group's
//! variables adjacent in the order (anchored at the group's best-ranked
//! member under the chosen [`VarOrder`] heuristic), which keeps every
//! mutex chain's BDD linear in the group size.
//!
//! ```
//! use enframe_core::{Program, Var, VarTable};
//! use enframe_network::Network;
//! use enframe_obdd::{ObddEngine, ObddOptions};
//!
//! let mut p = Program::new();
//! let x = p.fresh_var();
//! let y = p.fresh_var();
//! let e = p.declare_event("E", Program::or([Program::var(x), Program::var(y)]));
//! p.add_target(e);
//! let net = Network::build(&p.ground().unwrap()).unwrap();
//! let mut engine = ObddEngine::compile(&net, &ObddOptions::default()).unwrap();
//! let vt = VarTable::uniform(2, 0.5);
//! assert!((engine.probabilities(&vt)[0] - 0.75).abs() < 1e-12);
//!
//! // Condition on x being false: P(E | ¬x) = P(y) = 0.5.
//! let ev = engine.evidence(&[(Var(0), false)]);
//! let post = engine.condition(&vt, ev).unwrap();
//! assert!((post.posteriors[0] - 0.5).abs() < 1e-12);
//! ```

mod compile;
pub mod dnnf;
pub mod manager;
mod peval;
mod reorder;
pub mod wmc;

pub use manager::{Bdd, Manager, ManagerStats, ReorderPolicy};
pub use wmc::{Wmc, WmcCache};

use compile::Compiler;
use enframe_core::budget::{Budget, BudgetScope, Exceeded, Resource};
use enframe_core::fxhash::FxHashMap;
use enframe_core::pool::JobError;
use enframe_core::{CoreError, Var, VarTable};
use enframe_network::Network;
use enframe_prob::order::{static_order, VarOrder};
use enframe_telemetry::{self as telemetry, Phase};
use std::sync::{Mutex, MutexGuard};

/// Errors of the OBDD backend.
#[derive(Debug, Clone)]
pub enum ObddError {
    /// The network contains structure with no OBDD encoding (a numeric
    /// node where a Boolean one is needed), or a query refers to unknown
    /// entities.
    Unsupported(String),
    /// A numeric evaluation failed while expanding a comparison atom.
    Core(CoreError),
    /// Conditioning on evidence of probability zero.
    ZeroEvidence,
    /// A resource budget ran out mid-compilation ([`ObddOptions::budget`]).
    /// All workers of the run report the *same* first verdict; callers
    /// can degrade to the bounds engine under the remaining budget.
    BudgetExceeded {
        /// The limit that was crossed.
        resource: Resource,
        /// Amount spent at detection time (ns for time, counts otherwise).
        spent: u64,
    },
    /// A worker thread panicked; the panic was caught, the sibling
    /// workers were cancelled, and the pool shut down cleanly.
    WorkerPanicked {
        /// Index of the job in hand when the panic fired: the target
        /// being compiled, or the wavefront chunk of a parallel WMC
        /// sweep.
        target: usize,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// A fault-injection site fired (`ENFRAME_FAILPOINTS`); only
    /// reachable with a failpoint armed ([`enframe_core::failpoint`]).
    Injected(&'static str),
}

impl std::fmt::Display for ObddError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ObddError::Unsupported(what) => write!(f, "unsupported for OBDD compilation: {what}"),
            ObddError::Core(e) => write!(f, "evaluation error during compilation: {e}"),
            ObddError::ZeroEvidence => write!(f, "conditioning on evidence of probability zero"),
            ObddError::BudgetExceeded { resource, spent } => {
                write!(f, "compilation budget exceeded: {resource} (spent {spent})")
            }
            ObddError::WorkerPanicked { target, message } => {
                write!(
                    f,
                    "worker panicked while compiling target {target}: {message}"
                )
            }
            ObddError::Injected(site) => write!(f, "injected fault at failpoint `{site}`"),
        }
    }
}

impl std::error::Error for ObddError {}

impl From<CoreError> for ObddError {
    fn from(e: CoreError) -> Self {
        ObddError::Core(e)
    }
}

impl From<Exceeded> for ObddError {
    fn from(e: Exceeded) -> Self {
        ObddError::BudgetExceeded {
            resource: e.resource,
            spent: e.spent,
        }
    }
}

impl JobError for ObddError {
    /// Error selection prefers primary errors, so the first real
    /// failure is what callers see, deterministically across schedules.
    fn is_cancellation(&self) -> bool {
        matches!(
            self,
            ObddError::BudgetExceeded {
                resource: Resource::Cancelled,
                ..
            }
        )
    }

    fn from_panic(target: usize, _worker: usize, message: String) -> Self {
        ObddError::WorkerPanicked { target, message }
    }
}

/// Options for OBDD compilation. The compile runs on the calling
/// thread; only the d-DNNF engine fans out ([`dnnf::DnnfOptions::workers`]).
#[derive(Debug, Clone, Default)]
pub struct ObddOptions {
    /// Variable-order heuristic (shared with the decision-tree engine)
    /// fixing the **initial** order; dynamic reordering refines it.
    pub order: VarOrder,
    /// Variable groups to keep **adjacent** in the order — one group per
    /// mutex set or conditional step, i.e. per encoded multi-valued
    /// variable. Members absent from the network are ignored; a variable
    /// listed in several groups joins the first. Group sifting moves
    /// each group as one block, preserving the adjacency.
    pub groups: Vec<Vec<Var>>,
    /// Maintenance policy: automatic garbage collection and
    /// growth-triggered group sifting (the default), or
    /// [`ReorderPolicy::disabled`] for a fully static manager.
    pub reorder: ReorderPolicy,
    /// Resource budget for the compilation. The default is unlimited,
    /// which skips all bookkeeping — budgeted and unbudgeted runs that
    /// stay inside the budget are bitwise-identical. On exhaustion the
    /// compile returns [`ObddError::BudgetExceeded`] instead of hanging
    /// or growing without bound.
    pub budget: Budget,
}

impl ObddOptions {
    /// Default heuristic and maintenance with the given adjacency
    /// groups.
    pub fn with_groups(groups: Vec<Vec<Var>>) -> Self {
        ObddOptions {
            groups,
            ..ObddOptions::default()
        }
    }

    /// Like [`ObddOptions::with_groups`], but with all automatic
    /// maintenance off — the static baseline the benchmarks compare
    /// group sifting against.
    pub fn static_with_groups(groups: Vec<Vec<Var>>) -> Self {
        ObddOptions {
            groups,
            reorder: ReorderPolicy::disabled(),
            ..ObddOptions::default()
        }
    }
}

/// Compilation statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObddStats {
    /// Total nodes in the manager after compiling all targets (live
    /// nodes only — compilation garbage has been collected under the
    /// default policy).
    pub nodes: usize,
    /// Decision nodes of the largest single target BDD.
    pub largest_target: usize,
    /// d-DNNF expansion steps of the residual-state DP, which compiles
    /// every target whose cone reaches a comparison atom; 0 on purely
    /// propositional networks.
    pub cmp_branches: u64,
    /// `ite` computed-table hits during compilation.
    pub cache_hits: u64,
    /// Manager health counters as of the end of compilation: live/peak
    /// nodes, GC and reorder passes, unique-table load factor.
    pub manager: ManagerStats,
}

/// Posteriors from a conditioning query.
#[derive(Debug, Clone)]
pub struct Conditioned {
    /// The probability of the evidence itself.
    pub evidence_prob: f64,
    /// `P(target | evidence)` per target, in registration order.
    pub posteriors: Vec<f64>,
}

/// A compiled network: one BDD per target over a shared manager.
///
/// Compile once, then query many times — probabilities and posteriors
/// are linear in the compiled size per query.
#[derive(Debug)]
pub struct ObddEngine {
    man: Manager,
    /// Manager variable label → engine variable (the initial
    /// compilation order; labels are stable under reordering).
    order: Vec<Var>,
    /// Variable index → manager variable label.
    level_of: Vec<Option<u32>>,
    targets: Vec<Bdd>,
    names: Vec<String>,
    stats: ObddStats,
    /// Persistent WMC cache, epoch/weight-stamped (see [`WmcCache`]).
    /// Behind a `Mutex` (not a `RefCell`) so the engine is `Sync` and
    /// the serving layer's readers can share one `Arc<ObddEngine>`; a
    /// sweep takes the whole cache out for its duration (see
    /// [`ObddEngine::try_probabilities`]).
    wmc_cache: Mutex<WmcCache>,
}

impl ObddEngine {
    /// Compiles every registered target of `net` into a BDD, one target
    /// after another on the calling thread. Under the default
    /// [`ReorderPolicy`] the manager garbage-collects and group-sifts
    /// itself whenever compilation growth crosses the maintenance
    /// triggers; the compiled targets are kept protected for the life of
    /// the engine, so later [`ObddEngine::reorder`]/GC calls are always
    /// safe.
    pub fn compile(net: &Network, opts: &ObddOptions) -> Result<Self, ObddError> {
        let scope = BudgetScope::new(opts.budget);
        let result = Self::compile_scoped(net, opts, &scope);
        scope.record_telemetry();
        result
    }

    fn compile_scoped(
        net: &Network,
        opts: &ObddOptions,
        scope: &BudgetScope,
    ) -> Result<Self, ObddError> {
        let order = grouped_order(static_order(net, opts.order), &opts.groups);
        let mut level_of: Vec<Option<u32>> = vec![None; net.n_vars as usize];
        for (l, v) in order.iter().enumerate() {
            level_of[v.index()] = Some(l as u32);
        }
        let mut man = Manager::with_policy(opts.reorder);
        man.declare_vars(order.len() as u32);
        man.set_level_blocks(&level_blocks(&order, &opts.groups));
        let mut compiler = Compiler::new(net, level_of.clone(), opts.order, scope.clone());
        let mut targets = Vec::with_capacity(net.targets.len());
        for &t in &net.targets {
            let bdd = compiler.compile(&mut man, t)?;
            man.protect(bdd);
            targets.push(bdd);
        }
        let cmp_branches = compiler.cmp_branches();
        compiler.finish(&mut man);
        if opts.reorder.auto {
            // Final sweep: drop the compilation scaffolding so the
            // manager holds exactly the union of the target DAGs.
            man.collect_garbage();
        }
        let stats = ObddStats {
            nodes: man.len(),
            largest_target: targets.iter().map(|&t| man.size(t)).max().unwrap_or(0),
            cmp_branches,
            cache_hits: man.cache_hits(),
            manager: man.stats(),
        };
        Ok(ObddEngine {
            man,
            order,
            level_of,
            targets,
            names: net.target_names.clone(),
            stats,
            wmc_cache: Mutex::new(WmcCache::new()),
        })
    }

    /// The persistent WMC cache. Poisoning is ignored: the lock is only
    /// held to move a whole cache out or in, so a sweep that panics
    /// leaves an (empty but valid) cache behind.
    fn wmc_cache(&self) -> MutexGuard<'_, WmcCache> {
        self.wmc_cache.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Compilation statistics.
    pub fn stats(&self) -> &ObddStats {
        &self.stats
    }

    /// Current manager health counters (live view; [`ObddEngine::stats`]
    /// is the end-of-compilation snapshot).
    pub fn manager_stats(&self) -> ManagerStats {
        self.man.stats()
    }

    /// Runs one group-sifting pass over the manager. The compiled
    /// targets are protected, so this is always safe; any unprotected
    /// evidence BDD held by the caller is invalidated.
    pub fn reorder(&mut self) {
        self.man.reorder();
    }

    /// Collects garbage unreachable from the compiled targets (and any
    /// handle protected via [`ObddEngine::manager_mut`]). Returns the
    /// number of nodes freed.
    pub fn collect_garbage(&mut self) -> usize {
        self.man.collect_garbage()
    }

    /// The shared manager (e.g. to combine target BDDs into richer
    /// evidence).
    pub fn manager_mut(&mut self) -> &mut Manager {
        &mut self.man
    }

    /// The compiled BDD of target `i`.
    pub fn target(&self, i: usize) -> Bdd {
        self.targets[i]
    }

    /// Target names, parallel to the probability vectors.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Number of compiled targets.
    pub fn n_targets(&self) -> usize {
        self.targets.len()
    }

    /// Exact probability of every target — one weighted-model-counting
    /// pass over the union of the target DAGs. The per-node cache
    /// persists across calls (epoch/weight-stamped), so repeated queries
    /// under the same weights are near-free.
    ///
    /// # Panics
    /// Panics if `vt` does not cover the compiled variables.
    pub fn probabilities(&self, vt: &VarTable) -> Vec<f64> {
        dnnf::wmc::unlimited(self.try_probabilities(vt, &BudgetScope::unlimited()))
    }

    /// Budget-aware variant of [`ObddEngine::probabilities`] — the WMC
    /// entry point of the serving layer. One weighted-model-counting
    /// sweep over all targets against an immutable `&self` snapshot,
    /// checkpointing the scope between targets so an exhausted or
    /// cancelled request stops at the next target boundary with
    /// [`ObddError::BudgetExceeded`] instead of finishing the sweep.
    ///
    /// Because the engine is `Sync`, concurrent readers of one snapshot
    /// share one `Arc<ObddEngine>`, but not one warm cache: a sweep
    /// takes the engine's persistent [`WmcCache`] out for its duration,
    /// so a reader that overlaps another sweeps from an empty cache, and
    /// the last one to finish installs its own. Follow-up queries under
    /// the same weights that do not overlap are near-free.
    ///
    /// # Panics
    /// Panics if `vt` does not cover the compiled variables.
    pub fn try_probabilities(
        &self,
        vt: &VarTable,
        scope: &BudgetScope,
    ) -> Result<Vec<f64>, ObddError> {
        let _span = telemetry::span(Phase::Wmc);
        let mut wmc = Wmc::with_cache(
            &self.man,
            self.level_weights(vt),
            std::mem::take(&mut *self.wmc_cache()),
        );
        let mut probs = Vec::with_capacity(self.targets.len());
        let mut verdict = None;
        for &t in &self.targets {
            if let Err(e) = scope.checkpoint() {
                verdict = Some(e);
                break;
            }
            probs.push(wmc.probability(t));
        }
        // Put the (partially) warmed cache back even on the error path —
        // a budget verdict must not cost the next query its warm start.
        *self.wmc_cache() = wmc.into_cache();
        match verdict {
            Some(e) => Err(e.into()),
            None => Ok(probs),
        }
    }

    /// The conjunction of the given literals as an evidence BDD.
    /// Variables the compiled targets never mention get fresh bottom
    /// levels, so conditioning on them is a well-defined no-op.
    ///
    /// The handle is **not** GC-protected: it stays valid until the next
    /// maintenance point (any [`ObddEngine::condition`],
    /// [`ObddEngine::collect_garbage`] or [`ObddEngine::reorder`] call).
    /// Build evidence fresh per query, or protect it via
    /// [`ObddEngine::manager_mut`] to keep it across queries.
    pub fn evidence(&mut self, literals: &[(Var, bool)]) -> Bdd {
        let mut acc = Bdd::TRUE;
        for &(v, value) in literals {
            let level = self.ensure_level(v);
            let lit = if value {
                self.man.var(level)
            } else {
                self.man.nvar(level)
            };
            acc = self.man.and(acc, lit);
        }
        acc
    }

    /// Posterior probabilities `P(target | evidence)` for every target,
    /// plus `P(evidence)`. The evidence may be any BDD over this
    /// engine's manager — literal conjunctions from
    /// [`ObddEngine::evidence`], a compiled [`ObddEngine::target`], or
    /// any combination built via [`ObddEngine::manager_mut`].
    ///
    /// # Panics
    /// Panics if `vt` does not cover the compiled variables.
    pub fn condition(&mut self, vt: &VarTable, evidence: Bdd) -> Result<Conditioned, ObddError> {
        // Reject impossible evidence before conjoining it into every
        // target: the joints would grow the manager only to be thrown
        // away.
        let weights = self.level_weights(vt);
        let mut wmc = Wmc::with_cache(
            &self.man,
            weights.clone(),
            std::mem::take(&mut *self.wmc_cache()),
        );
        let evidence_prob = {
            let _span = telemetry::span(Phase::Wmc);
            wmc.probability(evidence)
        };
        *self.wmc_cache() = wmc.into_cache();
        if evidence_prob <= 0.0 {
            return Err(ObddError::ZeroEvidence);
        }
        let joint: Vec<Bdd> = self
            .targets
            .clone()
            .into_iter()
            .map(|t| self.man.and(t, evidence))
            .collect();
        let mut wmc = Wmc::with_cache(&self.man, weights, std::mem::take(&mut *self.wmc_cache()));
        let posteriors = {
            let _span = telemetry::span(Phase::Wmc);
            joint
                .into_iter()
                .map(|j| wmc.probability(j) / evidence_prob)
                .collect()
        };
        *self.wmc_cache() = wmc.into_cache();
        // Maintenance point: the joints (and the caller's evidence) are
        // garbage now, the targets are protected — repeated conditioning
        // on one engine stays bounded instead of growing monotonically.
        self.man.maybe_maintain();
        Ok(Conditioned {
            evidence_prob,
            posteriors,
        })
    }

    fn level_weights(&self, vt: &VarTable) -> Vec<f64> {
        assert!(
            self.order.iter().all(|v| v.index() < vt.len()),
            "variable table covers {} variables but the OBDD uses up to x{}",
            vt.len(),
            self.order.iter().map(|v| v.0).max().unwrap_or(0)
        );
        self.order.iter().map(|&v| vt.prob(v)).collect()
    }

    fn ensure_level(&mut self, v: Var) -> u32 {
        if v.index() >= self.level_of.len() {
            self.level_of.resize(v.index() + 1, None);
        }
        match self.level_of[v.index()] {
            Some(l) => l,
            None => {
                let l = self.order.len() as u32;
                self.order.push(v);
                self.level_of[v.index()] = Some(l);
                l
            }
        }
    }

    /// Exports the compiled targets as a self-contained, manager-
    /// independent snapshot: the unique-table contents reachable from
    /// the targets in children-first order, with node references
    /// restated against the snapshot's own dense index space and
    /// variables restated by *level* (the export-time order), so the
    /// snapshot is insensitive to handle numbering, free slots, and the
    /// label↔level permutation history of this manager.
    pub fn export(&self) -> ObddSnapshot {
        let level_vars: Vec<Var> = (0..self.man.n_vars())
            .map(|l| self.order[self.man.var_at_level(l as u32) as usize])
            .collect();
        let mut index_of: FxHashMap<u32, u32> = FxHashMap::default();
        let mut nodes: Vec<SnapshotNode> = Vec::new();
        // Iterative post-order DFS over the union of the target DAGs,
        // dedup'd on the complement-stripped node index.
        let mut stack: Vec<(Bdd, bool)> = self
            .targets
            .iter()
            .map(|&t| (if t.is_complement() { !t } else { t }, false))
            .collect();
        while let Some((f, expanded)) = stack.pop() {
            if f.is_const() || index_of.contains_key(&f.index()) {
                continue;
            }
            let (_, _, hi, lo) = self.man.node_of(f);
            if expanded {
                let snap_ref = |e: Bdd| {
                    let base = if e.is_complement() { !e } else { e };
                    let idx = if base.is_const() {
                        0
                    } else {
                        index_of[&base.index()]
                    };
                    idx << 1 | e.is_complement() as u32
                };
                let node = SnapshotNode {
                    level: self.man.level(f),
                    hi: snap_ref(hi),
                    lo: snap_ref(lo),
                };
                nodes.push(node);
                index_of.insert(f.index(), nodes.len() as u32);
            } else {
                stack.push((f, true));
                for e in [hi, lo] {
                    let base = if e.is_complement() { !e } else { e };
                    stack.push((base, false));
                }
            }
        }
        let snap_ref = |t: Bdd| {
            let base = if t.is_complement() { !t } else { t };
            let idx = if base.is_const() {
                0
            } else {
                index_of[&base.index()]
            };
            idx << 1 | t.is_complement() as u32
        };
        ObddSnapshot {
            level_vars,
            blocks: self.man.blocks.clone(),
            nodes,
            targets: self.targets.iter().map(|&t| snap_ref(t)).collect(),
            names: self.names.clone(),
        }
    }

    /// Rebuilds an engine from an untrusted snapshot, re-validating the
    /// structural invariants the manager normally guarantees by
    /// construction — ordering (every child sits on a strictly deeper
    /// level), canonicity (no duplicate `(level, hi, lo)` triple,
    /// `hi != lo`), and complement-edge normalisation (no stored
    /// then-edge carries the complement bit) — so a corrupted snapshot
    /// is rejected with a description instead of producing a
    /// non-canonical diagram and silently wrong counts.
    pub fn import(snap: &ObddSnapshot) -> Result<ObddEngine, String> {
        let n_levels = snap.level_vars.len() as u32;
        if snap.blocks.contains(&0)
            || snap.blocks.iter().map(|&s| s as u64).sum::<u64>() != n_levels as u64
        {
            return Err("blocks do not partition the levels".into());
        }
        if snap.names.len() != snap.targets.len() {
            return Err(format!(
                "{} target names for {} targets",
                snap.names.len(),
                snap.targets.len()
            ));
        }
        let mut level_of: Vec<Option<u32>> = Vec::new();
        for (l, v) in snap.level_vars.iter().enumerate() {
            if v.index() >= level_of.len() {
                level_of.resize(v.index() + 1, None);
            }
            if level_of[v.index()].replace(l as u32).is_some() {
                return Err(format!("variable x{} appears on two levels", v.0));
            }
        }
        let mut man = Manager::with_policy(ReorderPolicy::default());
        man.declare_vars(n_levels);
        man.set_level_blocks(&snap.blocks);
        // Replay children-first. `built[i]`/`level[i]` use snapshot ref
        // indexing: slot 0 is the terminal, node `i` sits at `i + 1`.
        let mut built: Vec<Bdd> = vec![Bdd::TRUE];
        let mut levels: Vec<u32> = vec![u32::MAX];
        let resolve = |built: &[Bdd], r: u32, at: usize| -> Result<(Bdd, u32), String> {
            let idx = (r >> 1) as usize;
            if idx >= built.len() {
                return Err(format!("node {at}: forward reference {idx}"));
            }
            let f = if r & 1 == 1 { !built[idx] } else { built[idx] };
            Ok((f, idx as u32))
        };
        for (i, node) in snap.nodes.iter().enumerate() {
            if node.level >= n_levels {
                return Err(format!("node {i}: level {} out of range", node.level));
            }
            if node.hi & 1 == 1 {
                return Err(format!("node {i}: complemented then-edge"));
            }
            if node.hi == node.lo {
                return Err(format!("node {i}: unreduced node (hi == lo)"));
            }
            let (hi, hi_idx) = resolve(&built, node.hi, i)?;
            let (lo, lo_idx) = resolve(&built, node.lo, i)?;
            for (what, idx) in [("then", hi_idx), ("else", lo_idx)] {
                if levels[idx as usize] <= node.level {
                    return Err(format!("node {i}: {what}-child level not strictly deeper"));
                }
            }
            let before = man.len();
            // Labels equal levels in the freshly declared manager, and
            // the pre-checks above rule out every normalisation path in
            // `Manager::node`, so a replay that does not allocate can
            // only mean a duplicate of an earlier node.
            let f = man.node(node.level, hi, lo);
            if man.len() == before {
                return Err(format!("node {i}: duplicate of an earlier node"));
            }
            built.push(f);
            levels.push(node.level);
        }
        let mut targets = Vec::with_capacity(snap.targets.len());
        for (i, &r) in snap.targets.iter().enumerate() {
            let (t, _) = resolve(&built, r, i).map_err(|_| format!("target {i} out of range"))?;
            man.protect(t);
            targets.push(t);
        }
        let stats = ObddStats {
            nodes: man.len(),
            largest_target: targets.iter().map(|&t| man.size(t)).max().unwrap_or(0),
            cmp_branches: 0,
            cache_hits: 0,
            manager: man.stats(),
        };
        Ok(ObddEngine {
            man,
            order: snap.level_vars.clone(),
            level_of,
            targets,
            names: snap.names.clone(),
            stats,
            wmc_cache: Mutex::new(WmcCache::new()),
        })
    }
}

/// One node of an [`ObddSnapshot`]: its decision level and packed child
/// references. A reference packs `index << 1 | complement`, where index
/// 0 is the terminal ⊤ (so reference 0 is ⊤ and reference 1 is ⊥) and
/// index `i + 1` is the snapshot's node `i` — the same edge layout as
/// the in-memory [`Bdd`] handle, restated against the snapshot's dense
/// children-first numbering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotNode {
    /// Decision level at export time (0 is root-most).
    pub level: u32,
    /// Packed then-child reference; never complemented (canonical form).
    pub hi: u32,
    /// Packed else-child reference.
    pub lo: u32,
}

/// A manager-independent image of a compiled [`ObddEngine`]: the
/// variable order by level, the group-sifting blocks, the unique-table
/// contents reachable from the targets (children-first), and the packed
/// target references — everything [`ObddEngine::import`] needs to
/// rebuild an equivalent engine, and the form `enframe-store` persists.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObddSnapshot {
    /// Level → engine variable (the weights order for WMC).
    pub level_vars: Vec<Var>,
    /// Group-sifting block sizes; partitions `level_vars`.
    pub blocks: Vec<u32>,
    /// Reachable nodes, children before parents.
    pub nodes: Vec<SnapshotNode>,
    /// Packed reference per compiled target (see [`SnapshotNode`]).
    pub targets: Vec<u32>,
    /// Target names, parallel to `targets`.
    pub names: Vec<String>,
}

/// Variable → group index, first group wins — the membership rule shared
/// by [`grouped_order`] and [`level_blocks`].
fn group_of_map(groups: &[Vec<Var>]) -> FxHashMap<Var, usize> {
    let mut group_of: FxHashMap<Var, usize> = FxHashMap::default();
    for (gi, group) in groups.iter().enumerate() {
        for &v in group {
            group_of.entry(v).or_insert(gi);
        }
    }
    group_of
}

/// The group-sifting block sizes for a grouped order: maximal runs of
/// consecutive variables from the same group become one block, everything
/// else is a singleton. The result partitions `order`.
fn level_blocks(order: &[Var], groups: &[Vec<Var>]) -> Vec<u32> {
    let group_of = group_of_map(groups);
    let mut sizes = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let mut j = i + 1;
        if let Some(g) = group_of.get(&order[i]) {
            while j < order.len() && group_of.get(&order[j]) == Some(g) {
                j += 1;
            }
        }
        sizes.push((j - i) as u32);
        i = j;
    }
    sizes
}

/// Re-ranks a base variable order so that each group's members sit
/// adjacent, anchored at the group's best-ranked member. Variables not in
/// `base` (absent from the network) are dropped from groups; the result
/// is always a permutation of `base`.
fn grouped_order(base: Vec<Var>, groups: &[Vec<Var>]) -> Vec<Var> {
    if groups.is_empty() {
        return base;
    }
    let rank: FxHashMap<Var, usize> = base.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    let group_of = group_of_map(groups);
    let mut emitted: Vec<bool> = vec![false; base.len()];
    let mut out = Vec::with_capacity(base.len());
    for &v in &base {
        if emitted[rank[&v]] {
            continue;
        }
        match group_of.get(&v) {
            Some(&gi) => {
                let mut members: Vec<Var> = groups[gi]
                    .iter()
                    .copied()
                    .filter(|m| rank.contains_key(m) && group_of[m] == gi)
                    .collect();
                members.sort_by_key(|m| rank[m]);
                for m in members {
                    if !emitted[rank[&m]] {
                        emitted[rank[&m]] = true;
                        out.push(m);
                    }
                }
            }
            None => {
                emitted[rank[&v]] = true;
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dnnf::{DnnfEngine, DnnfOptions};
    use enframe_core::{failpoint, space, Program};

    fn engine_for(p: &Program, opts: &ObddOptions) -> (ObddEngine, Vec<f64>, VarTable) {
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::new((0..g.n_vars).map(|i| 0.3 + 0.05 * i as f64).collect());
        let want = space::target_probabilities(&g, &vt);
        let engine = ObddEngine::compile(&net, opts).unwrap();
        (engine, want, vt)
    }

    fn mutex_chain_program(k: usize) -> Program {
        let mut p = Program::new();
        let vars: Vec<Var> = (0..k).map(|_| p.fresh_var()).collect();
        for j in 0..k {
            let mut conj: Vec<_> = vars[..j].iter().map(|&x| Program::nvar(x)).collect();
            conj.push(Program::var(vars[j]));
            let e = p.declare_event(&format!("Phi{j}"), Program::and(conj));
            p.add_target(e);
        }
        p
    }

    #[test]
    fn propositional_probabilities_match_enumeration() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let z = p.fresh_var();
        let e1 = p.declare_event(
            "E1",
            Program::or([
                Program::and([Program::var(x), Program::nvar(y)]),
                Program::var(z),
            ]),
        );
        let e2 = p.declare_event("E2", Program::not(Program::eref(e1)));
        p.add_target(e1);
        p.add_target(e2);
        let (engine, want, vt) = engine_for(&p, &ObddOptions::default());
        let got = engine.probabilities(&vt);
        for i in 0..want.len() {
            assert!((got[i] - want[i]).abs() < 1e-12, "target {i}");
        }
        assert!((got[0] + got[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn engine_is_sync_and_try_probabilities_matches_probabilities() {
        // The serving layer shares one compiled snapshot across
        // concurrent readers: the engine must be Send + Sync …
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ObddEngine>();

        // … and the budget-aware sweep must agree with the classic one.
        let p = mutex_chain_program(8);
        let (engine, want, vt) = engine_for(&p, &ObddOptions::default());
        let scope = BudgetScope::unlimited();
        let got = engine.try_probabilities(&vt, &scope).unwrap();
        assert_eq!(got.len(), want.len());
        for i in 0..want.len() {
            assert!((got[i] - want[i]).abs() < 1e-12, "target {i}");
        }
        assert_eq!(got, engine.probabilities(&vt), "same sweep, same bits");
    }

    #[test]
    fn try_probabilities_stops_at_a_target_boundary_when_cancelled() {
        let p = mutex_chain_program(8);
        let (engine, _, vt) = engine_for(&p, &ObddOptions::default());
        let scope = BudgetScope::unlimited();
        scope.cancel_external();
        match engine.try_probabilities(&vt, &scope) {
            Err(ObddError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, Resource::Cancelled);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
        // The engine stays fully usable after an aborted sweep.
        let probs = engine.probabilities(&vt);
        assert_eq!(probs.len(), 8);
    }

    #[test]
    fn mutex_chain_compiles_linearly() {
        // The mutex encoding Φⱼ = ¬x₁ ∧ … ∧ xⱼ is read-once: each target's
        // BDD is a chain of at most k nodes, and the manager holding all k
        // targets stays quadratic — polynomial where the decision tree
        // over k variables has 2^k branches.
        let k = 40;
        let p = mutex_chain_program(k);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let engine = ObddEngine::compile(&net, &ObddOptions::default()).unwrap();
        assert!(
            engine.stats().largest_target <= k,
            "a mutex chain target must stay linear: {} nodes for k={k}",
            engine.stats().largest_target
        );
        assert!(
            engine.stats().nodes <= k * k,
            "all k mutex targets together must stay quadratic: {} nodes for k={k}",
            engine.stats().nodes
        );
        // Closed form: P(Φⱼ) = Πᵢ<ⱼ (1−pᵢ) · pⱼ.
        let vt = VarTable::new((0..k).map(|i| 0.3 + 0.01 * i as f64).collect());
        let got = engine.probabilities(&vt);
        for j in 0..k {
            let mut want = vt.prob(Var(j as u32));
            for i in 0..j {
                want *= 1.0 - vt.prob(Var(i as u32));
            }
            assert!((got[j] - want).abs() < 1e-12, "target {j}");
        }
    }

    #[test]
    fn comparison_atoms_expand_correctly() {
        use enframe_core::{CVal, Event};
        use enframe_core::{CmpOp, Value};
        use std::rc::Rc;
        // E = [Σᵢ xᵢ⊗(i+1) ≥ 3] over 3 variables.
        let mut p = Program::new();
        let vars: Vec<_> = (0..3).map(|_| p.fresh_var()).collect();
        let sum = Rc::new(CVal::Sum(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| CVal::cond(Program::var(v), Value::Num(i as f64 + 1.0)))
                .collect(),
        ));
        let e = p.declare_event("E", Rc::new(Event::Atom(CmpOp::Ge, sum, CVal::num(3.0))));
        p.add_target(e);
        let (engine, want, vt) = engine_for(&p, &ObddOptions::default());
        let got = engine.probabilities(&vt);
        assert!((got[0] - want[0]).abs() < 1e-12);
        assert!(engine.stats().cmp_branches > 0);
    }

    #[test]
    fn conditioning_matches_bayes_by_hand() {
        // E = x ∨ y, evidence ¬x: P(E | ¬x) = P(y).
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let e = p.declare_event("E", Program::or([Program::var(x), Program::var(y)]));
        p.add_target(e);
        let (mut engine, _, _) = engine_for(&p, &ObddOptions::default());
        let vt = VarTable::new(vec![0.6, 0.25]);
        let ev = engine.evidence(&[(x, false)]);
        let cond = engine.condition(&vt, ev).unwrap();
        assert!((cond.evidence_prob - 0.4).abs() < 1e-12);
        assert!((cond.posteriors[0] - 0.25).abs() < 1e-12);
        // Conditioning on a target: P(E | E) = 1.
        let t = engine.target(0);
        let cond = engine.condition(&vt, t).unwrap();
        assert!((cond.posteriors[0] - 1.0).abs() < 1e-12);
        // Zero-probability evidence is rejected.
        let bad = engine.evidence(&[(x, true), (x, false)]);
        assert!(matches!(
            engine.condition(&vt, bad),
            Err(ObddError::ZeroEvidence)
        ));
    }

    #[test]
    fn conditioning_on_unmentioned_variable_is_a_noop() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let free = p.fresh_var(); // never used in any event
        let e = p.declare_event("E", Program::var(x));
        p.add_target(e);
        let (mut engine, _, _) = engine_for(&p, &ObddOptions::default());
        let vt = VarTable::new(vec![0.7, 0.5]);
        let prior = engine.probabilities(&vt)[0];
        let ev = engine.evidence(&[(free, true)]);
        let cond = engine.condition(&vt, ev).unwrap();
        assert!((cond.evidence_prob - 0.5).abs() < 1e-12);
        assert!((cond.posteriors[0] - prior).abs() < 1e-12);
    }

    #[test]
    fn grouped_order_keeps_groups_adjacent() {
        let base: Vec<Var> = [4, 0, 2, 1, 3].iter().map(|&i| Var(i)).collect();
        let groups = vec![vec![Var(1), Var(2)], vec![Var(9), Var(3)]];
        let got = grouped_order(base.clone(), &groups);
        // Group {1,2} anchors at rank of Var(2) (earlier), ordered by
        // base rank; Var(9) is absent and dropped; result is a
        // permutation of base.
        assert_eq!(got, vec![Var(4), Var(0), Var(2), Var(1), Var(3)]);
        let mut sorted = got.clone();
        sorted.sort();
        let mut b = base;
        b.sort();
        assert_eq!(sorted, b);
        assert_eq!(grouped_order(vec![Var(0)], &[]), vec![Var(0)]);
    }

    #[test]
    fn every_order_heuristic_gives_the_same_probabilities() {
        let p = mutex_chain_program(6);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::uniform(6, 0.4);
        let want = space::target_probabilities(&g, &vt);
        for order in [
            VarOrder::Sequential,
            VarOrder::StaticOccurrence,
            VarOrder::Dynamic,
        ] {
            let engine = ObddEngine::compile(
                &net,
                &ObddOptions {
                    order,
                    ..ObddOptions::default()
                },
            )
            .unwrap();
            let got = engine.probabilities(&vt);
            for i in 0..want.len() {
                assert!((got[i] - want[i]).abs() < 1e-12, "{order:?} target {i}");
            }
        }
    }

    /// Current thread count of this process (Linux `/proc`); `None`
    /// where unsupported, which skips the leak assertion.
    fn thread_count() -> Option<usize> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
    }

    /// An injected worker panic in the crate's one fan-out (d-DNNF at
    /// `workers = 4`) must surface as a structured
    /// [`ObddError::WorkerPanicked`] with the failing target index —
    /// never a propagated panic — and the pool must be fully joined (no
    /// leaked threads), leaving the process able to compile again.
    #[test]
    fn injected_worker_panic_is_isolated_and_joined() {
        let p = mutex_chain_program(8);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let opts = DnnfOptions {
            workers: 4,
            ..DnnfOptions::default()
        };
        let before = thread_count();
        {
            let _chaos = failpoint::arm("spawn:every-1");
            for _ in 0..4 {
                match DnnfEngine::compile(&net, &opts) {
                    Err(ObddError::WorkerPanicked { target, message }) => {
                        assert!(target < net.targets.len(), "bad target index {target}");
                        assert!(
                            message.contains("injected"),
                            "unexpected payload: {message}"
                        );
                    }
                    other => panic!("expected WorkerPanicked, got {other:?}"),
                }
            }
        }
        // Every worker is joined before compile returns, so four
        // panicking compiles must not leave stray threads behind (small
        // slack for the test harness's own threads).
        if let (Some(b), Some(a)) = (before, thread_count()) {
            assert!(a <= b + 4, "leaked threads: {b} before, {a} after");
        }
        // The failure is transient: with the fault cleared the same
        // pool compiles cleanly.
        let engine = DnnfEngine::compile(&net, &opts).unwrap();
        let vt = VarTable::uniform(8, 0.4);
        let want = space::target_probabilities(&g, &vt);
        let got = engine.probabilities(&vt);
        for i in 0..want.len() {
            assert!((got[i] - want[i]).abs() < 1e-12, "target {i}");
        }
    }

    /// An injected allocation failure at a safe point is a structured
    /// error on the sequential path, not a panic.
    #[test]
    fn injected_alloc_failure_is_a_structured_error() {
        let p = mutex_chain_program(6);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let _chaos = failpoint::arm("alloc:every-1");
        match ObddEngine::compile(&net, &ObddOptions::default()) {
            Err(ObddError::Injected(site)) => assert_eq!(site, "alloc"),
            other => panic!("expected Injected(alloc), got {other:?}"),
        }
    }

    /// An injected receive stall only delays the d-DNNF fan-out — the
    /// answer is still exact, and nothing deadlocks.
    #[test]
    fn injected_recv_stall_only_delays() {
        let p = mutex_chain_program(8);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::uniform(8, 0.4);
        let want = space::target_probabilities(&g, &vt);
        let _chaos = failpoint::arm("recv:every-2");
        let engine = DnnfEngine::compile(
            &net,
            &DnnfOptions {
                workers: 2,
                ..DnnfOptions::default()
            },
        )
        .unwrap();
        let got = engine.probabilities(&vt);
        for i in 0..want.len() {
            assert!((got[i] - want[i]).abs() < 1e-12, "target {i}");
        }
    }

    /// A node budget too small for the workload trips a structured
    /// [`ObddError::BudgetExceeded`] at a safe point instead of running
    /// to completion or panicking.
    #[test]
    fn node_budget_exhaustion_is_structured() {
        let p = mutex_chain_program(10);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let opts = ObddOptions {
            budget: Budget {
                max_nodes: Some(4),
                ..Budget::unlimited()
            },
            ..ObddOptions::default()
        };
        match ObddEngine::compile(&net, &opts) {
            Err(ObddError::BudgetExceeded { resource, spent }) => {
                assert_eq!(resource, Resource::Nodes);
                assert!(spent > 4, "spent {spent}");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }
}
