//! Compiling event-network nodes into OBDDs.
//!
//! Purely propositional structure (`Var`, `ConstBool`, `Not`, `And`,
//! `Or`) compiles **compositionally**: children's BDDs are combined with
//! the manager's apply operations, bottom-up over the network's
//! topological order, so shared sub-events are compiled exactly once.
//! For the read-once and hierarchical lineage produced by the mutex and
//! conditional correlation schemes this stays polynomial.
//!
//! Comparison atoms (`Cmp`) close over *numeric* c-value structure, which
//! has no direct BDD encoding. A target whose Boolean cone reaches one is
//! compiled **whole** by the d-DNNF residual-state DP ([`crate::dnnf`]),
//! built on the first such target, and folded into the manager.
//!
//! The compiler cooperates with the manager's automatic maintenance:
//! every per-network-node BDD it memoises is [`Manager::protect`]ed as a
//! GC root until [`Compiler::finish`], and [`Manager::maybe_maintain`]
//! runs at *safe points* — between cone nodes, between the apply steps
//! of n-ary `And`/`Or` accumulations (with the accumulator protected),
//! and after each fold (never inside one: its memo holds unprotected
//! handles) — so GC and sifting never invalidate a handle in use.

use crate::dnnf::{self, Dnnf, DnnfManager, DnnfNode};
use crate::manager::{Bdd, Manager};
use crate::peval::VisitStamp;
use crate::ObddError;
use enframe_core::budget::BudgetScope;
use enframe_core::failpoint::{self, Site};
use enframe_core::fxhash::FxHashMap;
use enframe_core::Var;
use enframe_network::{Network, NodeId, NodeKind};
use enframe_prob::order::VarOrder;

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
    /// Compiled BDD per network node (propositional cones only).
    cache: Vec<Option<Bdd>>,
    /// Scratch reused across `compile()` calls: visited stamps, the DFS
    /// stack, and the Boolean cone of the current target.
    seen: VisitStamp,
    stack: Vec<NodeId>,
    cone: Vec<NodeId>,
    /// Decision-order heuristic of the DP.
    order: VarOrder,
    /// The DP and its node store, once a target reached a `Cmp` atom.
    dp: Option<(dnnf::Compiler<'n>, DnnfManager)>,
    /// Shared budget/cancellation state, checked per cone node (size
    /// limits) and per DP step (step and DP-store limits). Unlimited
    /// scopes short-circuit every check.
    scope: BudgetScope,
}

impl<'n> Compiler<'n> {
    pub(crate) fn new(
        net: &'n Network,
        level_of: Vec<Option<u32>>,
        order: VarOrder,
        scope: BudgetScope,
    ) -> Self {
        Compiler {
            net,
            level_of,
            cache: vec![None; net.len()],
            seen: VisitStamp::new(net.len()),
            stack: Vec::new(),
            cone: Vec::new(),
            order,
            dp: None,
            scope,
        }
    }

    /// DP expansion steps taken so far.
    pub(crate) fn cmp_branches(&self) -> u64 {
        self.dp.as_ref().map_or(0, |(dp, _)| dp.expansion_steps)
    }

    /// Compiles one Boolean node (typically a target) into a BDD.
    pub(crate) fn compile(&mut self, man: &mut Manager, root: NodeId) -> Result<Bdd, ObddError> {
        let _span = enframe_telemetry::span(enframe_telemetry::Phase::BddApply);
        // The Boolean cone of `root`: nodes whose BDDs are combined
        // compositionally. A cone that reaches a `Cmp` atom sends the
        // whole target to the DP instead.
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
                NodeKind::Cmp(_) => return self.compile_dp(man, root),
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

    /// Compiles `root` whole by the DP and folds the sentence into `man`;
    /// not memoised, so every target that reaches a `Cmp` atom runs it.
    fn compile_dp(&mut self, man: &mut Manager, root: NodeId) -> Result<Bdd, ObddError> {
        if self.dp.is_none() {
            let mut dp = dnnf::Compiler::new(self.net, self.order, self.scope.clone());
            dp.prime()?;
            self.dp = Some((dp, DnnfManager::new()));
        }
        let (dp, store) = self.dp.as_mut().expect("built above");
        let sentence = dp.compile(store, root)?;
        let mut memo = FxHashMap::default();
        let bdd = fold(man, store, &self.level_of, sentence, &mut memo)?;
        checkpoint(man, bdd);
        Ok(bdd)
    }

    fn compile_one(&self, man: &mut Manager, id: NodeId) -> Result<Bdd, ObddError> {
        let node = self.net.node(id);
        let cached = |c: NodeId| self.cache[c.index()].expect("children compiled before parents");
        Ok(match &node.kind {
            NodeKind::Var(v) => man.var(level(&self.level_of, *v)?),
            NodeKind::ConstBool(true) => Bdd::TRUE,
            NodeKind::ConstBool(false) => Bdd::FALSE,
            NodeKind::Not => !cached(node.children[0]),
            NodeKind::And => {
                let mut acc = Bdd::TRUE;
                for &c in &node.children {
                    acc = man.and(acc, cached(c));
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
                    acc = man.or(acc, cached(c));
                    if acc == Bdd::TRUE {
                        break;
                    }
                    checkpoint(man, acc);
                }
                acc
            }
            other => {
                return Err(ObddError::Unsupported(format!(
                    "numeric node {} cannot be a Boolean compilation root",
                    other.label()
                )))
            }
        })
    }
}

fn level(level_of: &[Option<u32>], v: Var) -> Result<u32, ObddError> {
    level_of[v.index()]
        .ok_or_else(|| ObddError::Unsupported(format!("variable x{} has no assigned level", v.0)))
}

/// Folds the d-DNNF sentence `f` into `man`, children first: literals
/// become variables, `And`s conjunctions and decision `Or`s disjunctions.
fn fold(
    man: &mut Manager,
    store: &DnnfManager,
    level_of: &[Option<u32>],
    f: Dnnf,
    memo: &mut FxHashMap<Dnnf, Bdd>,
) -> Result<Bdd, ObddError> {
    if let Some(&b) = memo.get(&f) {
        return Ok(b);
    }
    let b = match store.node(f) {
        DnnfNode::Const(true) => Bdd::TRUE,
        DnnfNode::Const(false) => Bdd::FALSE,
        DnnfNode::Lit { var, positive } => match (level(level_of, *var)?, positive) {
            (l, true) => man.var(l),
            (l, false) => man.nvar(l),
        },
        DnnfNode::And(cs) => cs.iter().try_fold(Bdd::TRUE, |acc, &c| {
            let b = fold(man, store, level_of, c, memo)?;
            Ok::<_, ObddError>(man.and(acc, b))
        })?,
        DnnfNode::Or(cs) => cs.iter().try_fold(Bdd::FALSE, |acc, &c| {
            let b = fold(man, store, level_of, c, memo)?;
            Ok::<_, ObddError>(man.or(acc, b))
        })?,
    };
    memo.insert(f, b);
    Ok(b)
}
