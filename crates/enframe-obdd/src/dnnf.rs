//! # d-DNNF compilation — the one expander of comparison atoms
//!
//! Expanding a comparison atom over *assignments* of its support costs
//! `~2^v` branches on aggregate-heavy workloads (the k-medoids pipeline,
//! where each atom compares sums over all points). This module compiles
//! targets into **deterministic decomposable negation normal form**
//! (d-DNNF) with expansion memoised on **residual states** instead, and
//! the OBDD route ([`crate::ObddEngine`]) folds this DP's sentences for
//! every target that reaches a comparison atom:
//!
//! * **Hash-consed d-DNNF nodes** — literals, decomposable `AND`
//!   (children over pairwise disjoint variable sets) and deterministic
//!   `OR` (children pairwise logically inconsistent, here always the two
//!   branches of a decision on one variable). Both invariants hold by
//!   construction, which is what makes weighted model counting a single
//!   linear pass ([`wmc`]).
//! * **Residual-state memoisation** — a branch is described not by *how*
//!   it was reached (the assignment prefix) but by *what is left*: the
//!   three-valued frontier of the undetermined cone, with every
//!   undetermined `Sum`/`Prod` summarised by its **accumulated partial
//!   value** over the already-forced children. Two prefixes that force
//!   the same lineage events and accumulate the same partial sums are the
//!   same state — the `2^v` branch tree collapses onto the DP over
//!   distinct `(next support level, partial sum)` states. On the
//!   k-medoids comparison workload the sums are functions of a handful of
//!   shared lineage events, so the state space is polynomial where the
//!   assignment tree is exponential.
//! * **Decomposable-`AND` factoring** — conjunctions whose conjuncts
//!   touch disjoint residual variable sets split into independent
//!   sub-compilations joined by a decomposable `AND`, instead of being
//!   expanded through one interleaved decision tree.
//!
//! ```
//! use enframe_core::{Program, VarTable};
//! use enframe_network::Network;
//! use enframe_obdd::dnnf::{DnnfEngine, DnnfOptions};
//!
//! let mut p = Program::new();
//! let x = p.fresh_var();
//! let y = p.fresh_var();
//! let e = p.declare_event("E", Program::or([Program::var(x), Program::var(y)]));
//! p.add_target(e);
//! let net = Network::build(&p.ground().unwrap()).unwrap();
//! let engine = DnnfEngine::compile(&net, &DnnfOptions::default()).unwrap();
//! let vt = VarTable::uniform(2, 0.5);
//! assert!((engine.probabilities(&vt)[0] - 0.75).abs() < 1e-12);
//! ```

pub mod wmc;

use crate::peval::{Evaluator, VisitStamp};
use crate::ObddError;
use enframe_core::budget::{Budget, BudgetScope, Exceeded, Resource};
use enframe_core::failpoint::{self, Site};
use enframe_core::fxhash::FxHashMap;
use enframe_core::pool;
use enframe_core::{Value, Var, VarTable};
use enframe_network::{Network, NodeId, NodeKind, Partial};
use enframe_telemetry::{self as telemetry, Counter, Phase};

/// A handle to a d-DNNF node. Equality is node identity; hash-consing
/// makes node identity function identity *per construction site* (the
/// compiler never builds two structurally equal nodes with different
/// references).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Dnnf(u32);

impl Dnnf {
    /// The constant-true sentence.
    pub const TRUE: Dnnf = Dnnf(0);
    /// The constant-false sentence.
    pub const FALSE: Dnnf = Dnnf(1);

    /// The dense node index (constants are 0 and 1).
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is one of the two constants.
    pub fn is_const(self) -> bool {
        self.0 < 2
    }

    /// Rebuilds a handle from a dense node index — the inverse of
    /// [`Dnnf::index`], for artifact deserialisation. The handle is only
    /// meaningful against the manager whose index space it came from;
    /// [`DnnfManager::from_nodes`] validates the referenced structure.
    pub fn from_index(i: u32) -> Dnnf {
        Dnnf(i)
    }
}

/// One stored d-DNNF node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DnnfNode {
    /// Constant ⊤ (index 0) or ⊥ (index 1).
    Const(bool),
    /// A literal over an input variable.
    Lit {
        /// The variable.
        var: Var,
        /// Polarity: `true` for `x`, `false` for `¬x`.
        positive: bool,
    },
    /// Decomposable conjunction: children mention pairwise disjoint
    /// variable sets.
    And(Box<[Dnnf]>),
    /// Deterministic disjunction: children are pairwise logically
    /// inconsistent (every `Or` built here is a decision on one
    /// variable, so any two children disagree on that variable).
    Or(Box<[Dnnf]>),
}

/// The hash-consed d-DNNF node store.
///
/// Nodes are created bottom-up, so every child index is smaller than its
/// parent's — the invariant the single-pass model counter relies on.
#[derive(Debug, Default)]
pub struct DnnfManager {
    nodes: Vec<DnnfNode>,
    unique: FxHashMap<DnnfNode, Dnnf>,
}

impl DnnfManager {
    /// An empty manager holding only the two constants.
    pub fn new() -> Self {
        DnnfManager {
            nodes: vec![DnnfNode::Const(true), DnnfNode::Const(false)],
            unique: FxHashMap::default(),
        }
    }

    /// The stored node behind a handle.
    pub fn node(&self, f: Dnnf) -> &DnnfNode {
        &self.nodes[f.index()]
    }

    /// Total stored nodes, constants included.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the manager holds only the two constants.
    pub fn is_empty(&self) -> bool {
        self.nodes.len() == 2
    }

    /// All stored nodes in creation (topological) order.
    pub fn nodes(&self) -> &[DnnfNode] {
        &self.nodes
    }

    /// Total child edges over all `And`/`Or` nodes.
    pub fn edges(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| match n {
                DnnfNode::And(cs) | DnnfNode::Or(cs) => cs.len(),
                _ => 0,
            })
            .sum()
    }

    /// The literal `x` (positive) or `¬x`.
    pub fn lit(&mut self, var: Var, positive: bool) -> Dnnf {
        self.intern(DnnfNode::Lit { var, positive })
    }

    /// Decomposable conjunction of `children` (the caller guarantees
    /// pairwise disjoint variable sets). Flattens nested conjunctions,
    /// drops ⊤, and short-circuits on ⊥.
    pub fn and(&mut self, children: impl IntoIterator<Item = Dnnf>) -> Dnnf {
        let mut flat: Vec<Dnnf> = Vec::new();
        for c in children {
            if c == Dnnf::FALSE {
                return Dnnf::FALSE;
            }
            if c == Dnnf::TRUE {
                continue;
            }
            match &self.nodes[c.index()] {
                DnnfNode::And(cs) => flat.extend(cs.iter().copied()),
                _ => flat.push(c),
            }
        }
        flat.sort_unstable();
        flat.dedup();
        match flat.len() {
            0 => Dnnf::TRUE,
            1 => flat[0],
            _ => self.intern(DnnfNode::And(flat.into_boxed_slice())),
        }
    }

    /// The decision sentence `(x ∧ hi) ∨ (¬x ∧ lo)` — the only way this
    /// manager builds `Or` nodes, so every disjunction is deterministic
    /// (the branches disagree on `x`) and decomposable (`x` is assigned
    /// inside neither branch).
    pub fn decision(&mut self, var: Var, hi: Dnnf, lo: Dnnf) -> Dnnf {
        if hi == lo {
            return hi;
        }
        if hi == Dnnf::TRUE && lo == Dnnf::FALSE {
            return self.lit(var, true);
        }
        if hi == Dnnf::FALSE && lo == Dnnf::TRUE {
            return self.lit(var, false);
        }
        let pos = self.lit(var, true);
        let neg = self.lit(var, false);
        let t = self.and([pos, hi]);
        let e = self.and([neg, lo]);
        debug_assert!(t != e, "decision branches must differ");
        if t == Dnnf::FALSE {
            return e;
        }
        if e == Dnnf::FALSE {
            return t;
        }
        let mut cs = [t, e];
        cs.sort_unstable();
        self.intern(DnnfNode::Or(Box::new(cs)))
    }

    /// The number of nodes reachable from `f` (constants excluded).
    pub fn size(&self, f: Dnnf) -> usize {
        let mut seen = enframe_core::fxhash::FxHashSet::default();
        let mut stack = vec![f];
        while let Some(n) = stack.pop() {
            if n.is_const() || !seen.insert(n) {
                continue;
            }
            if let DnnfNode::And(cs) | DnnfNode::Or(cs) = &self.nodes[n.index()] {
                stack.extend(cs.iter().copied());
            }
        }
        seen.len()
    }

    /// Evaluates `f` under a complete assignment.
    pub fn eval(&self, f: Dnnf, assignment: &impl Fn(Var) -> bool) -> bool {
        match &self.nodes[f.index()] {
            DnnfNode::Const(b) => *b,
            DnnfNode::Lit { var, positive } => assignment(*var) == *positive,
            DnnfNode::And(cs) => cs.iter().all(|&c| self.eval(c, assignment)),
            DnnfNode::Or(cs) => cs.iter().any(|&c| self.eval(c, assignment)),
        }
    }

    fn intern(&mut self, node: DnnfNode) -> Dnnf {
        if let Some(&r) = self.unique.get(&node) {
            return r;
        }
        let r = Dnnf(self.nodes.len() as u32);
        self.nodes.push(node.clone());
        self.unique.insert(node, r);
        r
    }

    /// Rebuilds a manager from an untrusted creation-ordered node array
    /// (artifact deserialisation). Every invariant the compiler
    /// guarantees by construction is *checked* here instead, so a
    /// corrupted or hand-crafted array is rejected with a description
    /// rather than poisoning later queries:
    ///
    /// * indices 0/1 are ⊤/⊥ and no other constant is stored;
    /// * every child handle points strictly below its parent (the
    ///   topological order the single-pass counter relies on);
    /// * `And`/`Or` children are strictly sorted (the canonical form
    ///   hash-consing produces), have at least two entries, reference no
    ///   constants, and `And` children are never themselves `And`
    ///   (flattening) while `Or` nodes are binary (decision form);
    /// * no two stored nodes are structurally equal (hash-consing).
    ///
    /// Decomposability and determinism are *semantic* invariants over
    /// variable supports; the artifact store revalidates those
    /// separately on load.
    pub fn from_nodes(nodes: Vec<DnnfNode>) -> Result<DnnfManager, String> {
        if nodes.len() < 2
            || nodes[0] != DnnfNode::Const(true)
            || nodes[1] != DnnfNode::Const(false)
        {
            return Err("node array must start with the ⊤/⊥ constants".into());
        }
        let mut man = DnnfManager {
            nodes: vec![DnnfNode::Const(true), DnnfNode::Const(false)],
            unique: FxHashMap::default(),
        };
        for (i, node) in nodes.into_iter().enumerate().skip(2) {
            match &node {
                DnnfNode::Const(_) => {
                    return Err(format!("stray constant at node {i}"));
                }
                DnnfNode::Lit { .. } => {}
                DnnfNode::And(cs) | DnnfNode::Or(cs) => {
                    if cs.len() < 2 {
                        return Err(format!("node {i}: fewer than two children"));
                    }
                    if matches!(node, DnnfNode::Or(_)) && cs.len() != 2 {
                        return Err(format!("node {i}: Or is not a binary decision"));
                    }
                    if !cs.windows(2).all(|w| w[0] < w[1]) {
                        return Err(format!("node {i}: children not strictly sorted"));
                    }
                    for &c in cs.iter() {
                        if c.index() >= i {
                            return Err(format!(
                                "node {i}: child {} not created before its parent",
                                c.index()
                            ));
                        }
                        if c.is_const() {
                            return Err(format!("node {i}: constant child survived reduction"));
                        }
                        if matches!(node, DnnfNode::And(_))
                            && matches!(man.nodes[c.index()], DnnfNode::And(_))
                        {
                            return Err(format!("node {i}: unflattened nested And"));
                        }
                    }
                }
            }
            let handle = Dnnf(man.nodes.len() as u32);
            if man.unique.insert(node.clone(), handle).is_some() {
                return Err(format!("node {i}: duplicate of an earlier node"));
            }
            man.nodes.push(node);
        }
        Ok(man)
    }

    /// Imports every node of `other` into this manager, returning the
    /// handle map (indexed by `other`'s node index). Structurally equal
    /// nodes hash-cons onto existing ones, so absorbing the per-worker
    /// managers of a parallel compilation deduplicates shared structure
    /// across workers. Creation order (children before parents) and the
    /// canonical sorted child order of `And`/`Or` nodes are preserved —
    /// children are remapped and re-sorted under this manager's handle
    /// numbering.
    pub fn absorb(&mut self, other: &DnnfManager) -> Vec<Dnnf> {
        let mut map: Vec<Dnnf> = Vec::with_capacity(other.nodes.len());
        map.push(Dnnf::TRUE);
        map.push(Dnnf::FALSE);
        for node in &other.nodes[2..] {
            let mapped = match node {
                DnnfNode::Const(b) => {
                    if *b {
                        Dnnf::TRUE
                    } else {
                        Dnnf::FALSE
                    }
                }
                DnnfNode::Lit { var, positive } => self.lit(*var, *positive),
                DnnfNode::And(cs) | DnnfNode::Or(cs) => {
                    let mut cs: Vec<Dnnf> = cs.iter().map(|&c| map[c.index()]).collect();
                    cs.sort_unstable();
                    let remapped = match node {
                        DnnfNode::And(_) => DnnfNode::And(cs.into_boxed_slice()),
                        _ => DnnfNode::Or(cs.into_boxed_slice()),
                    };
                    self.intern(remapped)
                }
            };
            map.push(mapped);
        }
        map
    }
}

/// Options for d-DNNF compilation. Which undetermined variable each
/// decision branches on is not an option: it is the network's one static
/// ranking, [`Network::var_order`]. d-DNNF has no global ordering
/// constraint, so the ranking only picks each decision's variable.
#[derive(Debug, Clone, Default)]
pub struct DnnfOptions {
    /// Worker threads for the target fan-out of the compile; probability
    /// queries always sweep on the calling thread. `0` (the default)
    /// means *auto*: honour the `ENFRAME_WORKERS` environment variable,
    /// else run sequentially. Any worker count produces bitwise-identical
    /// probabilities: expansion is a pure function of the residual state,
    /// so every target compiles to the same sentence regardless of which
    /// worker compiles it, and weighted model counting reduces children
    /// in a canonical order.
    pub workers: usize,
    /// Resource budget for the compilation. Unlimited by default (all
    /// checks short-circuit); on exhaustion the compile returns
    /// [`ObddError::BudgetExceeded`] instead of hanging or OOMing.
    pub budget: Budget,
}

/// Compilation statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DnnfStats {
    /// Stored d-DNNF nodes after compiling all targets (constants
    /// excluded).
    pub nodes: usize,
    /// Total child edges over all `And`/`Or` nodes.
    pub edges: usize,
    /// Nodes reachable from the largest single target.
    pub largest_target: usize,
    /// Expansion steps: residual states actually expanded (memo misses).
    /// The OBDD route reports the same steps as `cmp_branches`.
    pub expansion_steps: u64,
    /// Residual states answered from the memo instead of re-expanded.
    pub memo_hits: u64,
}

/// A compiled network: one d-DNNF sentence per target over a shared
/// hash-consed store. Compile once; every probability query afterwards
/// is one linear pass over the union DAG ([`wmc`]).
#[derive(Debug)]
pub struct DnnfEngine {
    man: DnnfManager,
    targets: Vec<Dnnf>,
    names: Vec<String>,
    stats: DnnfStats,
}

impl DnnfEngine {
    /// Compiles every registered target of `net` into d-DNNF.
    ///
    /// With `opts.workers` resolved to more than one (explicitly or via
    /// `ENFRAME_WORKERS`) and more than one target, targets fan out
    /// across a worker pool: each worker compiles whole targets with its
    /// own manager and residual-state memo over the shared immutable
    /// network, and the per-worker stores are merged by
    /// [`DnnfManager::absorb`]. At one worker the same worker body runs
    /// on the calling thread, and its store is the engine's. The
    /// compiled sentences — and therefore all probabilities — are
    /// identical for every worker count. The engine keeps no worker
    /// count: its probability queries are sequential sweeps.
    pub fn compile(net: &Network, opts: &DnnfOptions) -> Result<Self, ObddError> {
        let scope = BudgetScope::new(opts.budget);
        let result = Self::compile_scoped(net, opts, &scope);
        scope.record_telemetry();
        result
    }

    fn compile_scoped(
        net: &Network,
        opts: &DnnfOptions,
        scope: &BudgetScope,
    ) -> Result<Self, ObddError> {
        let workers = enframe_core::workers::resolve(opts.workers, 1);
        let (n, names) = (net.targets.len(), net.target_names.clone());
        let rank = decision_ranks(net.n_vars, &net.var_order());
        if workers <= 1 || n <= 1 {
            // No pool, nothing to merge.
            let mut jobs = 0..n;
            let out = compile_targets(net, &rank, scope, || jobs.next())?;
            let targets = out.compiled.iter().map(|&(_, d)| d).collect();
            return Ok(Self::assemble(out.man, targets, names, out.steps, out.hits));
        }
        let workers = workers.min(n);
        let queue = pool::Queue::new(0..n);
        let outs = pool::run(scope, workers, &queue, |worker| {
            compile_targets(net, &rank, scope, || worker.next_job())
        })?;
        let _merge = telemetry::span(Phase::Merge);
        if failpoint::hit(Site::Merge) {
            return Err(ObddError::Injected("merge"));
        }
        let mut man = DnnfManager::new();
        let mut targets: Vec<Option<Dnnf>> = vec![None; n];
        for w in &outs {
            let map = man.absorb(&w.man);
            for &(i, d) in &w.compiled {
                targets[i] = Some(map[d.index()]);
            }
        }
        // Holes mean a cancellation stopped the pool before every target
        // compiled; surface the recorded verdict.
        let targets: Vec<Dnnf> = targets
            .into_iter()
            .collect::<Option<Vec<_>>>()
            .ok_or_else(|| stopped_early(scope))?;
        let steps = outs.iter().map(|w| w.steps).sum();
        let hits = outs.iter().map(|w| w.hits).sum();
        Ok(Self::assemble(man, targets, names, steps, hits))
    }

    /// The engine over a finished store, with its size statistics.
    fn assemble(
        man: DnnfManager,
        targets: Vec<Dnnf>,
        names: Vec<String>,
        expansion_steps: u64,
        memo_hits: u64,
    ) -> DnnfEngine {
        let stats = DnnfStats {
            nodes: man.len() - 2,
            edges: man.edges(),
            largest_target: targets.iter().map(|&t| man.size(t)).max().unwrap_or(0),
            expansion_steps,
            memo_hits,
        };
        DnnfEngine {
            man,
            targets,
            names,
            stats,
        }
    }

    /// Reassembles an engine from deserialised parts (artifact load).
    /// `man` should come from [`DnnfManager::from_nodes`] so the node
    /// array is already structurally valid; this checks the target
    /// handles and recomputes the size statistics (`expansion_steps` and
    /// `memo_hits` are compile-time quantities — a loaded artifact
    /// reports 0 for both).
    pub fn from_parts(
        man: DnnfManager,
        targets: Vec<Dnnf>,
        names: Vec<String>,
    ) -> Result<DnnfEngine, String> {
        if let Some(t) = targets.iter().find(|t| t.index() >= man.len()) {
            return Err(format!("target handle {} out of range", t.index()));
        }
        if names.len() != targets.len() {
            return Err(format!(
                "{} target names for {} targets",
                names.len(),
                targets.len()
            ));
        }
        Ok(Self::assemble(man, targets, names, 0, 0))
    }

    /// Compilation statistics.
    pub fn stats(&self) -> &DnnfStats {
        &self.stats
    }

    /// The shared node store.
    pub fn manager(&self) -> &DnnfManager {
        &self.man
    }

    /// The compiled sentence of target `i`.
    pub fn target(&self, i: usize) -> Dnnf {
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

    /// Exact probability of every target: one single-pass weighted model
    /// count over the union DAG (products across `And` children, sums
    /// across `Or` children) on the calling thread
    /// ([`wmc::node_probabilities`]).
    ///
    /// # Panics
    /// Panics if `vt` does not cover the compiled variables.
    pub fn probabilities(&self, vt: &VarTable) -> Vec<f64> {
        wmc::unlimited(self.try_probabilities(vt, &BudgetScope::unlimited()))
    }

    /// [`Self::probabilities`] under a budget: the WMC sweep checkpoints
    /// `scope` every few thousand nodes and returns
    /// [`ObddError::BudgetExceeded`] instead of finishing if the budget
    /// runs out mid-sweep.
    ///
    /// # Panics
    /// Panics if `vt` does not cover the compiled variables.
    pub fn try_probabilities(
        &self,
        vt: &VarTable,
        scope: &BudgetScope,
    ) -> Result<Vec<f64>, ObddError> {
        let _span = telemetry::span(Phase::Wmc);
        let probs = wmc::node_probabilities(&self.man, vt, scope)?;
        Ok(self.targets.iter().map(|&t| probs[t.index()]).collect())
    }
}

/// What a fan-out reports when the pool stopped before every target
/// compiled although no worker failed: the verdict recorded on the
/// scope (budget exhaustion, external cancellation).
fn stopped_early(scope: &BudgetScope) -> ObddError {
    ObddError::from(scope.verdict().unwrap_or(Exceeded {
        resource: Resource::Cancelled,
        spent: 0,
    }))
}

/// What one fan-out worker made: its own store, the targets it
/// compiled into it, and its memo counters.
struct WorkerOut {
    man: DnnfManager,
    compiled: Vec<(usize, Dnnf)>,
    steps: u64,
    hits: u64,
}

/// Decision rank per variable (lower ranks decided first; `u32::MAX` for
/// a variable absent from `order`), from a variable ranking.
pub(crate) fn decision_ranks(n_vars: u32, order: &[Var]) -> Vec<u32> {
    let mut rank_of = vec![u32::MAX; n_vars as usize];
    for (i, v) in order.iter().enumerate() {
        rank_of[v.index()] = i as u32;
    }
    rank_of
}

/// The fan-out worker's body: compiles each target index `next` hands
/// out into a store of its own, deciding variables by `rank_of`
/// ([`decision_ranks`]). The one-worker compile runs it on the calling
/// thread over the indices in order.
fn compile_targets(
    net: &Network,
    rank_of: &[u32],
    scope: &BudgetScope,
    mut next: impl FnMut() -> Option<usize>,
) -> Result<WorkerOut, ObddError> {
    let mut man = DnnfManager::new();
    let mut compiler = Compiler::new(net, rank_of, scope.clone());
    let mut compiled = Vec::new();
    compiler.prime()?;
    while let Some(i) = next() {
        let _span = telemetry::span(Phase::DnnfExpand);
        // An error stops this worker (the evaluator's assignment may be
        // dirty) and, through the pool, its siblings.
        compiled.push((i, compiler.compile(&mut man, net.targets[i])?));
    }
    Ok(WorkerOut {
        man,
        compiled,
        steps: compiler.expansion_steps,
        hits: compiler.memo_hits,
    })
}

// ---------------------------------------------------------------------
// The compiler: residual-state memoised expansion.
// ---------------------------------------------------------------------

/// Token tags of the residual key (high 4 bits of each `u64`).
mod tok {
    /// A block item: `(node << 1 | polarity)`.
    pub const ITEM: u64 = 1 << 60;
    /// Entering an undetermined node (operand: network node id).
    pub const OPEN: u64 = 2 << 60;
    /// Leaving an undetermined node.
    pub const CLOSE: u64 = 3 << 60;
    /// Repeat visit of a shared undetermined node (operand: node id).
    pub const REF: u64 = 4 << 60;
    /// A forced Boolean (operand: 0/1).
    pub const BOOL: u64 = 5 << 60;
    /// A forced scalar; the next token is its raw bit pattern.
    pub const NUM: u64 = 6 << 60;
    /// The forced undefined value `u`.
    pub const UNDEF: u64 = 7 << 60;
    /// A forced point (operand: dimension); followed by one raw-bits
    /// token per coordinate.
    pub const POINT: u64 = 8 << 60;
}

fn push_value(key: &mut Vec<u64>, v: &Value) {
    match v {
        Value::Undef => key.push(tok::UNDEF),
        Value::Num(x) => {
            key.push(tok::NUM);
            key.push(x.to_bits());
        }
        Value::Point(p) => {
            key.push(tok::POINT | p.len() as u64);
            key.extend(p.iter().map(|x| x.to_bits()));
        }
    }
}

/// A conjunction of network nodes with polarities — the unit of
/// compilation. `false` polarity means the item must be *violated*.
type Item = (NodeId, bool);

/// The residual-state DP, shared by both compiled forms: [`DnnfEngine`]
/// compiles every target with it, and the OBDD route every target whose
/// cone reaches a comparison atom.
pub(crate) struct Compiler<'n> {
    net: &'n Network,
    /// Shared three-valued evaluator (assignment + per-node scratch).
    eval: Evaluator<'n>,
    /// Decision rank per variable (lower ranks decided first), from the
    /// network's static ranking ([`decision_ranks`]).
    rank_of: &'n [u32],
    /// The DP memo: residual key → compiled sentence. Keys capture the
    /// full residual state, and every expansion is a *pure function* of
    /// that state (decisions, component factoring, and sub-states are
    /// all derived from the residual walk, never from the assignment
    /// prefix), so entries are valid under any prefix that reaches them
    /// — including prefixes from *other targets* — and memoisation never
    /// changes the compiled sentence, only skips rebuilding it. This
    /// purity is what makes parallel fan-out deterministic: any
    /// partitioning of targets over per-worker memos yields the same
    /// sentences.
    memo: FxHashMap<Box<[u64]>, Dnnf>,
    /// Visited stamps for subtree and key traversals.
    seen: VisitStamp,
    /// Which item of the current block's key walk first opened each
    /// network node (valid for nodes visited under the current `seen`
    /// stamp only): lets a repeat visit from another item union the two
    /// items' components without re-walking the shared sub-DAG.
    opened_by: Vec<u32>,
    pub(crate) expansion_steps: u64,
    memo_hits: u64,
    /// Shared budget/cancellation state, checked once per expansion step
    /// (memo misses — the quantity that grows on hard instances; memo
    /// hits are O(key) and bounded by misses).
    scope: BudgetScope,
}

impl<'n> Compiler<'n> {
    pub(crate) fn new(net: &'n Network, rank_of: &'n [u32], scope: BudgetScope) -> Self {
        Compiler {
            net,
            eval: Evaluator::new(net, scope.clone()),
            rank_of,
            memo: FxHashMap::default(),
            seen: VisitStamp::new(net.len()),
            opened_by: vec![0; net.len()],
            expansion_steps: 0,
            memo_hits: 0,
            scope,
        }
    }

    /// Evaluates the whole network once under the empty assignment;
    /// every later re-evaluation is an upward delta from one variable.
    pub(crate) fn prime(&mut self) -> Result<(), ObddError> {
        self.eval.prime()
    }

    /// Compiles one Boolean node into `man`. Callers open the compile
    /// phase's span, so each route records exactly one.
    pub(crate) fn compile(
        &mut self,
        man: &mut DnnfManager,
        root: NodeId,
    ) -> Result<Dnnf, ObddError> {
        if !self.net.node(root).is_bool() {
            return Err(ObddError::Unsupported(format!(
                "numeric node {} cannot be a Boolean compilation root",
                self.net.node(root).kind.label()
            )));
        }
        // Restrict delta propagation to this target's cone: assignments
        // made while expanding it cannot affect any value the expansion
        // reads outside the cone, and the assignment is empty again by
        // the time the next target restricts.
        self.seen.reset();
        let mut cone: Vec<NodeId> = Vec::new();
        let mut stack = vec![root];
        while let Some(n) = stack.pop() {
            if self.seen.visit(n) {
                continue;
            }
            cone.push(n);
            stack.extend(self.net.node(n).children.iter().copied());
        }
        self.eval.restrict_to(&cone);
        self.compile_block(man, vec![(root, true)])
    }

    /// Compiles the conjunction of `items` under the evaluator's current
    /// assignment (kept current incrementally — see [`Evaluator::assign_monotone`]).
    fn compile_block(
        &mut self,
        man: &mut DnnfManager,
        items: Vec<Item>,
    ) -> Result<Dnnf, ObddError> {
        // Normalise: decided items drop out (or refute the block),
        // conjunctive structure flattens into more items.
        let mut norm: Vec<Item> = Vec::new();
        let mut stack = items;
        while let Some((id, pol)) = stack.pop() {
            match self.eval.value(id) {
                Partial::B(b) => {
                    if *b != pol {
                        return Ok(Dnnf::FALSE);
                    }
                }
                Partial::V(_) => {
                    return Err(ObddError::Unsupported(format!(
                        "numeric node {} inside Boolean structure",
                        self.net.node(id).kind.label()
                    )))
                }
                Partial::Unknown => match &self.net.node(id).kind {
                    NodeKind::Not => stack.push((self.net.node(id).children[0], !pol)),
                    NodeKind::And if pol => {
                        stack.extend(self.net.node(id).children.iter().map(|&c| (c, true)))
                    }
                    NodeKind::Or if !pol => {
                        stack.extend(self.net.node(id).children.iter().map(|&c| (c, false)))
                    }
                    NodeKind::Var(_) | NodeKind::And | NodeKind::Or | NodeKind::Cmp(_) => {
                        norm.push((id, pol))
                    }
                    other => {
                        return Err(ObddError::Unsupported(format!(
                            "numeric node {} inside Boolean structure",
                            other.label()
                        )))
                    }
                },
            }
        }
        norm.sort_unstable();
        norm.dedup();
        if norm.is_empty() {
            return Ok(Dnnf::TRUE);
        }
        // A contradictory pair (n, true) and (n, false).
        if norm.windows(2).any(|w| w[0].0 == w[1].0) {
            return Ok(Dnnf::FALSE);
        }

        // The residual key: the items, then the three-valued frontier of
        // their undetermined cones. One shared walk per block — repeat
        // visits of shared sub-DAGs (within and across items) emit a
        // `REF` token instead of re-walking, so the walk is linear in
        // the undetermined cone's edges.
        let mut key: Vec<u64> = Vec::with_capacity(norm.len() * 8);
        for &(n, pol) in &norm {
            key.push(tok::ITEM | (n.0 as u64) << 1 | pol as u64);
        }
        let mut support: Vec<Var> = Vec::new();
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(norm.len());
        let mut links: Vec<(usize, usize)> = Vec::new();
        self.seen.reset();
        for (item, &(n, _)) in norm.iter().enumerate() {
            let start = support.len();
            self.residual_key(n, &mut key, &mut support, item, &mut links);
            ranges.push((start, support.len()));
        }

        if let Some(&hit) = self.memo.get(key.as_slice()) {
            self.memo_hits += 1;
            telemetry::count(Counter::MemoHit);
            return Ok(hit);
        }
        self.expansion_steps += 1;
        telemetry::count(Counter::MemoMiss);
        // One budget step per fresh expansion, plus the node-count limit
        // against the store (bytes are proportional at ~20 B/node).
        self.scope.check_steps(1)?;
        if self.scope.is_limited() {
            let nodes = man.len();
            self.scope.check_usage(nodes, nodes * 20)?;
        }
        if failpoint::hit(Site::Alloc) {
            return Err(ObddError::Injected("alloc"));
        }

        // Decomposable-AND factoring: group items whose *residual*
        // supports are connected, read straight off the key walk (a
        // shared undetermined sub-DAG links its items via `REF`, a
        // shared variable reached through distinct nodes links them via
        // the collected supports). Using the residual state — not the
        // assignment prefix — keeps the expansion a pure function of the
        // state, the invariant the memo and the parallel fan-out rely
        // on, and factors strictly more finely than a static
        // over-approximation would.
        let groups = components(norm.len(), &support, &ranges, &links);
        let result = if groups.iter().max().copied().unwrap_or(0) > 0 {
            let n_groups = groups.iter().max().unwrap() + 1;
            let mut parts = Vec::with_capacity(n_groups);
            for g in 0..n_groups {
                let sub: Vec<Item> = norm
                    .iter()
                    .zip(&groups)
                    .filter(|&(_, &gi)| gi == g)
                    .map(|(&it, _)| it)
                    .collect();
                parts.push(self.compile_block(man, sub)?);
            }
            man.and(parts)
        } else if let [(id, pol)] = norm[..] {
            if let NodeKind::Var(v) = self.net.node(id).kind {
                man.lit(v, pol)
            } else {
                self.decide(man, &norm, &support)?
            }
        } else {
            self.decide(man, &norm, &support)?
        };

        self.memo.insert(key.into_boxed_slice(), result);
        Ok(result)
    }

    /// Expands one decision on the best-ranked undetermined variable and
    /// recurses into both branches.
    fn decide(
        &mut self,
        man: &mut DnnfManager,
        norm: &[Item],
        support: &[Var],
    ) -> Result<Dnnf, ObddError> {
        let &v = support
            .iter()
            .min_by_key(|v| self.rank_of[v.index()])
            .ok_or_else(|| {
                ObddError::Unsupported("undetermined block with empty residual support".into())
            })?;
        let mark = self.eval.assign_monotone(v, true)?;
        let hi = self.compile_block(man, norm.to_vec());
        self.eval.undo_to(mark, v);
        let lo = hi.and_then(|hi| {
            let mark = self.eval.assign_monotone(v, false)?;
            let lo = self.compile_block(man, norm.to_vec());
            self.eval.undo_to(mark, v);
            lo.map(|lo| (hi, lo))
        });
        let (hi, lo) = lo?;
        Ok(man.decision(v, hi, lo))
    }

    /// Emits the residual state of `root`'s undetermined cone into `key`
    /// and collects its undetermined support into `support`; `item` is
    /// the block item being walked, and a repeat visit of a node first
    /// opened under another item records an `(item, opener)` edge in
    /// `links` for component analysis.
    ///
    /// The walk descends only *undetermined* nodes. Determined children
    /// contribute their forced value — except under `And`/`Or`, where an
    /// undetermined parent forces them (all-true / all-false) and they
    /// carry no information, and under `Sum`/`Prod`, where they fold into
    /// one **accumulated partial value** (the partial-sum DP: branches
    /// that force the same children to the same accumulated value share
    /// their continuation regardless of the assignment that got there).
    /// Shared nodes repeat as [`tok::REF`] — within one key the repeat
    /// has the same residual by construction.
    fn residual_key(
        &mut self,
        root: NodeId,
        key: &mut Vec<u64>,
        support: &mut Vec<Var>,
        item: usize,
        links: &mut Vec<(usize, usize)>,
    ) {
        match self.eval.value(root) {
            Partial::B(b) => {
                key.push(tok::BOOL | *b as u64);
                return;
            }
            Partial::V(v) => {
                // Clone: `push_value` only reads, but the borrow checker
                // cannot see through `self.eval` while `self` recurses.
                let v = v.clone();
                push_value(key, &v);
                return;
            }
            Partial::Unknown => {}
        }
        if self.seen.visit(root) {
            key.push(tok::REF | root.0 as u64);
            let opener = self.opened_by[root.index()] as usize;
            if opener != item {
                links.push((item, opener));
            }
            return;
        }
        self.opened_by[root.index()] = item as u32;
        key.push(tok::OPEN | root.0 as u64);
        let node = self.net.node(root);
        match &node.kind {
            NodeKind::Var(v) => support.push(*v),
            NodeKind::And | NodeKind::Or => {
                // Determined children are forced (true under an
                // undetermined And, false under an undetermined Or):
                // only the undetermined ones carry state.
                for i in 0..node.children.len() {
                    let c = self.net.node(root).children[i];
                    if matches!(self.eval.value(c), Partial::Unknown) {
                        self.residual_key(c, key, support, item, links);
                    }
                }
            }
            NodeKind::Sum | NodeKind::Prod => {
                // Fold the forced children into one accumulated partial
                // value, in child order (undefined summands are the
                // additive identity; an undefined factor would have
                // determined the product already).
                let is_sum = matches!(node.kind, NodeKind::Sum);
                let mut acc = if is_sum {
                    Value::Undef
                } else {
                    Value::Num(1.0)
                };
                for i in 0..self.net.node(root).children.len() {
                    let c = self.net.node(root).children[i];
                    if let Partial::V(v) = self.eval.value(c) {
                        let v = v.clone();
                        acc = if is_sum {
                            acc.add(&v).expect("partial eval already typed this sum")
                        } else {
                            acc.mul(&v)
                                .expect("partial eval already typed this product")
                        };
                    }
                }
                push_value(key, &acc);
                for i in 0..self.net.node(root).children.len() {
                    let c = self.net.node(root).children[i];
                    if matches!(self.eval.value(c), Partial::Unknown) {
                        self.residual_key(c, key, support, item, links);
                    }
                }
            }
            _ => {
                // Every other connective: recurse into all children
                // (determined ones emit their forced value — e.g. the
                // decided side of a half-determined comparison).
                for i in 0..self.net.node(root).children.len() {
                    let c = self.net.node(root).children[i];
                    self.residual_key(c, key, support, item, links);
                }
            }
        }
        key.push(tok::CLOSE);
    }
}

/// Partitions a block's items into connected components of shared
/// *residual* support: `result[i]` is the component index of item `i`,
/// numbered contiguously from 0 in item order. `support`/`ranges` hold
/// each item's variables as collected by its portion of the key walk,
/// and `links` the item pairs joined by a shared undetermined sub-DAG
/// (whose variables were collected under the opening item only). Both
/// inputs are functions of the residual state alone, so the grouping —
/// and with it the compiled structure — is prefix-independent.
fn components(
    n_items: usize,
    support: &[Var],
    ranges: &[(usize, usize)],
    links: &[(usize, usize)],
) -> Vec<usize> {
    let mut parent: Vec<usize> = (0..n_items).collect();
    for &(a, b) in links {
        let (ra, rb) = (find(&mut parent, a), find(&mut parent, b));
        parent[ra] = rb;
    }
    // Distinct network nodes can mention the same variable, so shared
    // variables union items even without a shared sub-DAG.
    let mut var_owner: FxHashMap<u32, usize> = FxHashMap::default();
    for (i, &(start, end)) in ranges.iter().enumerate() {
        for v in &support[start..end] {
            match var_owner.entry(v.0) {
                std::collections::hash_map::Entry::Occupied(o) => {
                    let (ra, rb) = (find(&mut parent, i), find(&mut parent, *o.get()));
                    parent[ra] = rb;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(i);
                }
            }
        }
    }
    let mut label: FxHashMap<usize, usize> = FxHashMap::default();
    let mut out = Vec::with_capacity(n_items);
    for i in 0..n_items {
        let r = find(&mut parent, i);
        let next = label.len();
        out.push(*label.entry(r).or_insert(next));
    }
    out
}

/// Path-halving find for the tiny per-block union-find.
fn find(parent: &mut [usize], mut i: usize) -> usize {
    while parent[i] != i {
        parent[i] = parent[parent[i]];
        i = parent[i];
    }
    i
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::{space, Program};

    fn engine_for(p: &Program) -> (DnnfEngine, Vec<f64>, VarTable) {
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::new((0..g.n_vars).map(|i| 0.3 + 0.05 * i as f64).collect());
        let want = space::target_probabilities(&g, &vt);
        let engine = DnnfEngine::compile(&net, &DnnfOptions::default()).unwrap();
        (engine, want, vt)
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
        let (engine, want, vt) = engine_for(&p);
        let got = engine.probabilities(&vt);
        for i in 0..want.len() {
            assert!((got[i] - want[i]).abs() < 1e-12, "target {i}");
        }
        assert!((got[0] + got[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_conjunction_factors_into_decomposable_and() {
        // (x0 ∨ x1) ∧ (x2 ∨ x3) ∧ x4: three variable-disjoint conjuncts
        // must become one AND node over independently compiled parts —
        // no decision interleaving across them.
        let mut p = Program::new();
        let vars: Vec<Var> = (0..5).map(|_| p.fresh_var()).collect();
        let e = p.declare_event(
            "E",
            Program::and([
                Program::or([Program::var(vars[0]), Program::var(vars[1])]),
                Program::or([Program::var(vars[2]), Program::var(vars[3])]),
                Program::var(vars[4]),
            ]),
        );
        p.add_target(e);
        let (engine, want, vt) = engine_for(&p);
        let got = engine.probabilities(&vt);
        assert!((got[0] - want[0]).abs() < 1e-12);
        let root = engine.target(0);
        let DnnfNode::And(parts) = engine.manager().node(root) else {
            panic!("root must be a decomposable AND, got {root:?}");
        };
        assert_eq!(parts.len(), 3);
        // Factored compilation: each disjunct costs at most its own
        // decision tree (2 states) plus the literal conjunct — far fewer
        // states than the 2^5 interleaved expansion.
        assert!(
            engine.stats().expansion_steps <= 8,
            "expected factored expansion, took {} steps",
            engine.stats().expansion_steps
        );
    }

    #[test]
    fn mutex_chain_is_linear_in_states() {
        // Φⱼ = ¬x₀ ∧ … ∧ xⱼ over k variables: every target is read-once,
        // so expansion states stay O(k) per target.
        let k = 24;
        let mut p = Program::new();
        let vars: Vec<Var> = (0..k).map(|_| p.fresh_var()).collect();
        for j in 0..k {
            let mut conj: Vec<_> = vars[..j].iter().map(|&x| Program::nvar(x)).collect();
            conj.push(Program::var(vars[j]));
            let e = p.declare_event(&format!("Phi{j}"), Program::and(conj));
            p.add_target(e);
        }
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let engine = DnnfEngine::compile(&net, &DnnfOptions::default()).unwrap();
        let vt = VarTable::new((0..k).map(|i| 0.3 + 0.01 * i as f64).collect());
        let got = engine.probabilities(&vt);
        for j in 0..k {
            let mut want = vt.prob(Var(j as u32));
            for i in 0..j {
                want *= 1.0 - vt.prob(Var(i as u32));
            }
            assert!((got[j] - want).abs() < 1e-12, "target {j}");
        }
        let steps = engine.stats().expansion_steps;
        assert!(
            steps as usize <= 4 * k * k,
            "mutex chains must stay polynomial: {steps} states for k={k}"
        );
    }

    #[test]
    fn comparison_atom_collapses_onto_partial_sums() {
        use enframe_core::{CVal, Event};
        use enframe_core::{CmpOp, Value};
        use std::rc::Rc;
        // E = [Σᵢ xᵢ⊗1 ≥ t]: a cardinality constraint. The Shannon tree
        // has 2^n undecided prefixes; the partial-sum DP has O(n·t)
        // states — the textbook collapse this module exists for.
        let n = 12;
        let t = 6.0;
        let mut p = Program::new();
        let vars: Vec<_> = (0..n).map(|_| p.fresh_var()).collect();
        let sum = Rc::new(CVal::Sum(
            vars.iter()
                .map(|&v| CVal::cond(Program::var(v), Value::Num(1.0)))
                .collect(),
        ));
        let e = p.declare_event("E", Rc::new(Event::Atom(CmpOp::Ge, sum, CVal::num(t))));
        p.add_target(e);
        let (engine, want, vt) = engine_for(&p);
        let got = engine.probabilities(&vt);
        assert!((got[0] - want[0]).abs() < 1e-12);
        let steps = engine.stats().expansion_steps;
        assert!(
            steps <= (n as u64 + 1) * (t as u64 + 2),
            "cardinality atom must be a polynomial DP: {steps} states for n={n}, t={t}"
        );
    }

    #[test]
    fn shared_events_are_compiled_once_across_targets() {
        // Two targets over the same sub-event: the residual-state memo is
        // global, so the second target's expansion reuses the first's
        // states wholesale.
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let z = p.fresh_var();
        let shared = p.declare_event(
            "S",
            Program::or([
                Program::var(x),
                Program::and([Program::var(y), Program::var(z)]),
            ]),
        );
        let e1 = p.declare_event("E1", Program::eref(shared));
        let e2 = p.declare_event("E2", Program::not(Program::eref(shared)));
        p.add_target(e1);
        p.add_target(e2);
        let (engine, want, vt) = engine_for(&p);
        let got = engine.probabilities(&vt);
        for i in 0..want.len() {
            assert!((got[i] - want[i]).abs() < 1e-12, "target {i}");
        }
        assert!((got[0] + got[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_one_ranking_matches_enumeration() {
        let mut p = Program::new();
        let vars: Vec<Var> = (0..6).map(|_| p.fresh_var()).collect();
        let e = p.declare_event(
            "E",
            Program::or(
                vars.chunks(2)
                    .map(|w| Program::and([Program::var(w[0]), Program::nvar(w[1])])),
            ),
        );
        p.add_target(e);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::uniform(6, 0.4);
        let want = space::target_probabilities(&g, &vt);
        let engine = DnnfEngine::compile(&net, &DnnfOptions::default()).unwrap();
        let got = engine.probabilities(&vt);
        assert!((got[0] - want[0]).abs() < 1e-12);
    }

    #[test]
    fn manager_invariants() {
        let mut man = DnnfManager::new();
        let a = man.lit(Var(0), true);
        let b = man.lit(Var(0), true);
        assert_eq!(a, b, "literals hash-cons");
        let c = man.lit(Var(1), true);
        let ab = man.and([a, c]);
        let ba = man.and([c, a]);
        assert_eq!(ab, ba, "AND is canonical up to child order");
        assert_eq!(man.and([a, Dnnf::TRUE]), a);
        assert_eq!(man.and([a, Dnnf::FALSE]), Dnnf::FALSE);
        assert_eq!(
            man.decision(Var(2), ab, ab),
            ab,
            "redundant decisions vanish"
        );
        assert_eq!(
            man.decision(Var(2), Dnnf::TRUE, Dnnf::FALSE),
            man.lit(Var(2), true)
        );
        let d = man.decision(Var(2), ab, Dnnf::FALSE);
        // (x2 ∧ x0 ∧ x1): the false branch drops out of the OR.
        assert!(matches!(man.node(d), DnnfNode::And(cs) if cs.len() == 3));
        assert!(man.eval(d, &|_| true));
        assert!(!man.eval(d, &|v| v != Var(2)));
    }
}
