//! Compiling event-network nodes into OBDDs.
//!
//! Purely propositional structure (`Var`, `ConstBool`, `Not`, `And`,
//! `Or`) compiles **compositionally**: children's BDDs are combined with
//! the manager's apply operations, bottom-up over the network's
//! topological order, so shared sub-events are compiled exactly once.
//! For the read-once and hierarchical lineage produced by the mutex and
//! conditional correlation schemes this stays polynomial — the whole
//! point of the knowledge-compilation route.
//!
//! Comparison atoms (`Cmp`) close over *numeric* c-value structure, which
//! has no direct BDD encoding. They are compiled by **Shannon expansion**
//! over the atom's support variables in global order, with the
//! three-valued partial evaluator ([`crate::peval`]) pruning every branch
//! as soon as the comparison's outcome is forced (e.g. once one side is
//! known undefined the atom is true, §3.2). Worst case this is
//! exponential in the atom's support — the same cost the decision-tree
//! engine pays for the *whole network* — but it is local to each atom,
//! shared across targets, and the partial evaluator cuts mutex- and
//! guard-heavy structure early. The d-DNNF path ([`crate::dnnf`]) removes
//! this exponent for aggregate-heavy workloads by memoising the expansion
//! on residual states instead of assignments.
//!
//! The compiler cooperates with the manager's automatic maintenance:
//! every per-network-node BDD it memoises is [`Manager::protect`]ed as a
//! GC root until [`Compiler::finish`], and [`Manager::maybe_maintain`]
//! runs at *safe points* — between cone nodes and between the apply steps
//! of n-ary `And`/`Or` accumulations (with the accumulator protected) —
//! so garbage collection and growth-triggered sifting can reclaim and
//! shrink the table mid-compilation without ever invalidating a handle
//! the compiler still holds. No maintenance runs inside a Shannon
//! expansion: its recursion holds pending cofactors and relies on a
//! fixed level order.

use crate::manager::{Bdd, Manager};
use crate::peval::{Evaluator, Partial, VisitStamp};
use crate::ObddError;
use enframe_core::budget::BudgetScope;
use enframe_core::failpoint::{self, Site};
use enframe_core::Var;
use enframe_network::{Network, NodeId, NodeKind};

/// A maintenance safe point with `acc` as the only unprotected live
/// handle: protect it, let the manager GC/sift if its growth triggers
/// fired, unprotect. Maintenance never moves a live handle, so `acc`
/// stays valid (constants are ignored by protect).
fn checkpoint(man: &mut Manager, acc: Bdd) {
    if man.needs_maintenance() {
        man.protect(acc);
        man.maybe_maintain();
        man.unprotect(acc);
    }
}

/// Compiles network nodes into BDDs over a fixed variable-label
/// assignment (labels are stable across reordering; the manager maps
/// them to current levels).
pub(crate) struct Compiler<'n> {
    net: &'n Network,
    /// Manager variable label of each `Var`, `None` when absent.
    level_of: Vec<Option<u32>>,
    /// Compiled BDD per network node (Boolean cone only).
    cache: Vec<Option<Bdd>>,
    /// Shared three-valued evaluator (assignment + per-node scratch).
    eval: Evaluator<'n>,
    /// Scratch: visited stamps for cone/subtree traversals, reused
    /// across `compile()` calls.
    seen: VisitStamp,
    /// Scratch: DFS stack, reused across traversals.
    stack: Vec<NodeId>,
    /// Scratch: the Boolean cone of the current target.
    cone: Vec<NodeId>,
    /// Scratch: the numeric subtree of the current `Cmp` atom.
    subtree: Vec<NodeId>,
    /// Scratch: the current atom's support variables.
    support: Vec<Var>,
    /// Count of Shannon-expansion branches taken for `Cmp` atoms.
    pub(crate) cmp_branches: u64,
    /// Shared budget/cancellation state, checked at the existing safe
    /// points: per cone node (size limits) and per Shannon branch (step
    /// limit). Unlimited scopes short-circuit every check.
    scope: BudgetScope,
}

impl<'n> Compiler<'n> {
    pub(crate) fn new(net: &'n Network, level_of: Vec<Option<u32>>, scope: BudgetScope) -> Self {
        Compiler {
            net,
            level_of,
            cache: vec![None; net.len()],
            eval: Evaluator::new(net, scope.clone()),
            seen: VisitStamp::new(net.len()),
            stack: Vec::new(),
            cone: Vec::new(),
            subtree: Vec::new(),
            support: Vec::new(),
            cmp_branches: 0,
            scope,
        }
    }

    /// Compiles one Boolean node (typically a target) into a BDD.
    pub(crate) fn compile(&mut self, man: &mut Manager, root: NodeId) -> Result<Bdd, ObddError> {
        let _span = enframe_telemetry::span(enframe_telemetry::Phase::BddApply);
        // The Boolean cone of `root`: nodes whose BDDs are combined
        // compositionally. Recursion stops at `Cmp` atoms — their numeric
        // subtrees are handled by Shannon expansion instead.
        self.seen.reset();
        self.cone.clear();
        self.stack.clear();
        self.stack.push(root);
        while let Some(id) = self.stack.pop() {
            if self.seen.visit(id) || self.cache[id.index()].is_some() {
                continue;
            }
            self.cone.push(id);
            let node = self.net.node(id);
            match node.kind {
                NodeKind::Not | NodeKind::And | NodeKind::Or => {
                    self.stack.extend(node.children.iter().copied());
                }
                _ => {}
            }
        }
        // Children precede parents in the network's node order, so
        // ascending index order is a valid evaluation order for the cone.
        self.cone.sort_unstable();
        for i in 0..self.cone.len() {
            let id = self.cone[i];
            if failpoint::hit(Site::Alloc) {
                return Err(ObddError::Injected("alloc"));
            }
            let bdd = self.compile_one(man, id)?;
            // Memoised BDDs are GC roots until `finish`: later cone
            // nodes (and later targets) combine them compositionally.
            man.protect(bdd);
            self.cache[id.index()] = Some(bdd);
            man.maybe_maintain();
            // Budget safe point, right after maintenance had its chance
            // to shrink the table. The `stats()` snapshot walks the
            // subtables, so it is only taken on limited scopes.
            if self.scope.is_limited() {
                let st = man.stats();
                self.scope.check_usage(st.live_nodes, st.peak_bytes)?;
            } else {
                self.scope.checkpoint()?;
            }
        }
        Ok(self.cache[root.index()].expect("root is in its own cone"))
    }

    /// Releases every memoised BDD from the manager's root registry.
    /// Call once, when no more targets will be compiled.
    pub(crate) fn finish(self, man: &mut Manager) {
        for bdd in self.cache.into_iter().flatten() {
            man.unprotect(bdd);
        }
    }

    fn compile_one(&mut self, man: &mut Manager, id: NodeId) -> Result<Bdd, ObddError> {
        let node = self.net.node(id);
        let cached = |c: NodeId, cache: &[Option<Bdd>]| {
            cache[c.index()].expect("children compiled before parents")
        };
        Ok(match &node.kind {
            NodeKind::Var(v) => {
                let level = self.level(*v)?;
                man.var(level)
            }
            NodeKind::ConstBool(true) => Bdd::TRUE,
            NodeKind::ConstBool(false) => Bdd::FALSE,
            NodeKind::Not => !cached(node.children[0], &self.cache),
            NodeKind::And => {
                let mut acc = Bdd::TRUE;
                for &c in &node.children {
                    let b = cached(c, &self.cache);
                    acc = man.and(acc, b);
                    if acc == Bdd::FALSE {
                        break;
                    }
                    checkpoint(man, acc);
                }
                acc
            }
            NodeKind::Or => {
                let mut acc = Bdd::FALSE;
                for &c in &node.children {
                    let b = cached(c, &self.cache);
                    acc = man.or(acc, b);
                    if acc == Bdd::TRUE {
                        break;
                    }
                    checkpoint(man, acc);
                }
                acc
            }
            NodeKind::Cmp(_) => self.expand_cmp(man, id)?,
            other => {
                return Err(ObddError::Unsupported(format!(
                    "numeric node {} cannot be a Boolean compilation root",
                    other.label()
                )))
            }
        })
    }

    fn level(&self, v: Var) -> Result<u32, ObddError> {
        self.level_of[v.index()].ok_or_else(|| {
            ObddError::Unsupported(format!("variable x{} has no assigned level", v.0))
        })
    }

    /// The variable's *current* level under the manager's order — the
    /// sort key for Shannon-expansion supports (labels are stable,
    /// levels move under reordering).
    fn current_level(&self, man: &Manager, v: Var) -> u32 {
        self.level_of[v.index()]
            .map(|label| man.level_of_var(label))
            .unwrap_or(u32::MAX)
    }

    /// Shannon expansion of a comparison atom over its support, in global
    /// level order, pruning branches the partial evaluator resolves.
    fn expand_cmp(&mut self, man: &mut Manager, id: NodeId) -> Result<Bdd, ObddError> {
        let _span = enframe_telemetry::span(enframe_telemetry::Phase::Shannon);
        // The atom's reachable subtree, ascending (topological) order.
        self.seen.reset();
        self.subtree.clear();
        self.stack.clear();
        self.stack.push(id);
        while let Some(n) = self.stack.pop() {
            if self.seen.visit(n) {
                continue;
            }
            self.subtree.push(n);
            self.stack.extend(self.net.node(n).children.iter().copied());
        }
        self.subtree.sort_unstable();
        // Support variables, root-most level first.
        self.support.clear();
        for &n in &self.subtree {
            if let NodeKind::Var(v) = self.net.node(n).kind {
                self.support.push(v);
            }
        }
        for i in 0..self.support.len() {
            let _ = self.level(self.support[i])?; // fail early on unlevelled variables
        }
        let support = std::mem::take(&mut self.support);
        let mut by_level = support;
        by_level.sort_by_key(|&v| self.current_level(man, v));
        let subtree = std::mem::take(&mut self.subtree);
        let out = self.expand_rec(man, id, &subtree, &by_level, 0);
        // Hand the buffers back for the next atom (their contents are
        // dead; only the allocations are kept).
        self.subtree = subtree;
        self.support = by_level;
        out
    }

    fn expand_rec(
        &mut self,
        man: &mut Manager,
        id: NodeId,
        subtree: &[NodeId],
        support: &[Var],
        next: usize,
    ) -> Result<Bdd, ObddError> {
        self.cmp_branches += 1;
        // One budget step per Shannon branch — the quantity that blows
        // up on aggregate-heavy workloads, and the knob `max_steps`
        // bounds.
        self.scope.check_steps(1)?;
        self.eval.eval_subtree(subtree)?;
        if let Partial::B(b) = self.eval.value(id) {
            return Ok(if *b { Bdd::TRUE } else { Bdd::FALSE });
        }
        let v = *support.get(next).ok_or_else(|| {
            ObddError::Unsupported(format!(
                "comparison at node {} undetermined under a complete assignment",
                id.0
            ))
        })?;
        self.eval.assign(v, Some(true));
        let hi = self.expand_rec(man, id, subtree, support, next + 1);
        self.eval.assign(v, Some(false));
        let lo = hi.and_then(|hi| {
            self.expand_rec(man, id, subtree, support, next + 1)
                .map(|lo| (hi, lo))
        });
        self.eval.assign(v, None);
        let (hi, lo) = lo?;
        let level = self.level(v)?;
        Ok(man.node(level, hi, lo))
    }
}
