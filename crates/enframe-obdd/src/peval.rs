//! Three-valued partial evaluation of event-network nodes.
//!
//! The residual-state DP of [`crate::dnnf`] — the one expander of both
//! compiled forms — drives its case analysis with this oracle: given a
//! *partial* assignment of the input variables, which network nodes are
//! already forced? A comparison atom whose sides are determined (or
//! undefined, §3.2) resolves to a constant and prunes the whole branch;
//! a node that stays [`Partial::Unknown`] keeps the expansion alive.
//!
//! The evaluator owns the current assignment and a per-node scratch
//! vector, kept current incrementally: [`Evaluator::prime`] once, then
//! [`Evaluator::assign_monotone`] / [`Evaluator::undo_to`] per decision.
//! [`Evaluator::value`] reads off any node's three-valued state, and the
//! DP walks exactly this scratch to build its residual memoisation keys.

use crate::ObddError;
use enframe_core::budget::BudgetScope;
use enframe_core::{Value, Var};
use enframe_network::{Network, NodeId, NodeKind};
use enframe_telemetry::{self as telemetry, Counter, Phase};

/// An epoch-stamped visited set over network nodes: clearing between
/// traversals is a counter bump, not an `O(net)` refill. The compilers
/// run several traversals per target (cone collection, residual-key
/// walks) and used to allocate a fresh `vec![false; net.len()]` for
/// each — measurable allocation churn on many-target networks.
pub(crate) struct VisitStamp {
    stamp: Vec<u32>,
    current: u32,
}

impl VisitStamp {
    pub(crate) fn new(len: usize) -> Self {
        VisitStamp {
            stamp: vec![0; len],
            current: 0,
        }
    }

    /// Starts a fresh traversal: everything reads as unvisited.
    pub(crate) fn reset(&mut self) {
        self.current += 1;
        if self.current == u32::MAX {
            self.stamp.fill(0);
            self.current = 1;
        }
    }

    /// Marks `id` visited; returns whether it was already visited.
    pub(crate) fn visit(&mut self, id: NodeId) -> bool {
        let was = self.stamp[id.index()] == self.current;
        self.stamp[id.index()] = self.current;
        was
    }
}

/// Three-valued partial evaluation result for one network node.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Partial {
    /// Boolean node with a forced truth value.
    B(bool),
    /// Numeric node with a forced value.
    V(Value),
    /// Not yet determined by the partial assignment.
    Unknown,
}

/// A reusable three-valued evaluator over one network: the current
/// partial assignment plus per-node scratch, kept current by
/// propagating `Unknown` → determined flips upward along parent edges,
/// with a trail for exact backtracking. The DP's blocks span whole
/// target cones, and over one root-to-leaf decision path each node flips
/// (and is re-evaluated) at most once.
pub(crate) struct Evaluator<'n> {
    net: &'n Network,
    /// Current partial assignment, indexed by variable.
    assignment: Vec<Option<bool>>,
    /// Partial values per network node.
    scratch: Vec<Partial>,
    /// The `Var` nodes of each variable (filled by [`Evaluator::prime`]).
    var_nodes: Vec<Vec<NodeId>>,
    /// Worklist of freshly determined nodes during a propagation.
    work: Vec<NodeId>,
    /// Nodes that went `Unknown` → determined since their mark was
    /// taken, newest last. Three-valued evaluation is **monotone** under
    /// assignment extension (a determined node keeps its value in every
    /// extension), so propagation only ever flips `Unknown` nodes and
    /// backtracking is exactly: restore these to `Unknown`.
    trail: Vec<NodeId>,
    /// Propagation cone: node `i` participates iff `active[i] ==
    /// active_stamp`. Restricting to one target's cone keeps each delta
    /// from sweeping the 30-odd unrelated targets of a many-target
    /// network. Purely a cost filter: the trail discipline already
    /// guarantees out-of-cone nodes keep their empty-assignment values
    /// across targets.
    active: Vec<u32>,
    active_stamp: u32,
    /// Budget state shared with the owning compiler: trail pushes are
    /// the unit-propagation work unit, charged as budget steps.
    scope: BudgetScope,
}

impl<'n> Evaluator<'n> {
    pub(crate) fn new(net: &'n Network, scope: BudgetScope) -> Self {
        Evaluator {
            net,
            assignment: vec![None; net.n_vars as usize],
            scratch: vec![Partial::Unknown; net.len()],
            var_nodes: Vec::new(),
            work: Vec::new(),
            trail: Vec::new(),
            active: vec![0; net.len()],
            active_stamp: 0,
            scope,
        }
    }

    /// Restricts propagation to `cone` (every node whose value the
    /// caller will read until the next restriction). Must only be called
    /// while the assignment is empty — see the `active` field invariant.
    pub(crate) fn restrict_to(&mut self, cone: &[NodeId]) {
        debug_assert!(self.assignment.iter().all(Option::is_none));
        self.active_stamp += 1;
        for &n in cone {
            self.active[n.index()] = self.active_stamp;
        }
    }

    /// The three-valued state of `id` under the current assignment.
    pub(crate) fn value(&self, id: NodeId) -> &Partial {
        &self.scratch[id.index()]
    }

    /// Evaluates the entire network bottom-up under the current
    /// assignment and indexes the `Var` nodes, enabling
    /// [`Evaluator::assign_monotone`].
    pub(crate) fn prime(&mut self) -> Result<(), ObddError> {
        let _span = telemetry::span(Phase::UnitProp);
        self.var_nodes = vec![Vec::new(); self.net.n_vars as usize];
        for i in 0..self.net.len() {
            let id = NodeId(i as u32);
            if let NodeKind::Var(v) = self.net.node(id).kind {
                self.var_nodes[v.index()].push(id);
            }
            self.scratch[i] = self.eval_node(id)?;
        }
        Ok(())
    }

    /// Assigns `v` and propagates every `Unknown` → determined flip
    /// upward through parent edges. Returns a trail mark for
    /// [`Evaluator::undo_to`]. Requires a prior [`Evaluator::prime`].
    ///
    /// Monotonicity does the heavy lifting: already-determined nodes
    /// cannot change under an extension, so they are never re-evaluated —
    /// over a whole root-to-leaf decision path each node flips at most
    /// once, instead of the cone being re-swept at every step.
    pub(crate) fn assign_monotone(&mut self, v: Var, value: bool) -> Result<usize, ObddError> {
        let mark = self.trail.len();
        self.assignment[v.index()] = Some(value);
        let mut work = std::mem::take(&mut self.work);
        work.clear();
        for i in 0..self.var_nodes[v.index()].len() {
            let id = self.var_nodes[v.index()][i];
            if self.active[id.index()] == self.active_stamp
                && self.scratch[id.index()] == Partial::Unknown
            {
                self.scratch[id.index()] = Partial::B(value);
                self.trail.push(id);
                work.push(id);
            }
        }
        let result = self.flush(&mut work);
        self.work = work;
        result?;
        let pushed = (self.trail.len() - mark) as u64;
        telemetry::count_n(Counter::TrailPush, pushed);
        // Budget safe point. Failing here leaves the propagation in
        // place, like any other evaluation error — callers treat every
        // error as fatal for the compile (the assignment may be dirty).
        self.scope.check_steps(pushed)?;
        Ok(mark)
    }

    /// Restores every node determined since `mark` to `Unknown` and
    /// retracts `v` — exact inverse of the matching
    /// [`Evaluator::assign_monotone`].
    pub(crate) fn undo_to(&mut self, mark: usize, v: Var) {
        self.assignment[v.index()] = None;
        telemetry::count_n(Counter::TrailBacktrack, (self.trail.len() - mark) as u64);
        while self.trail.len() > mark {
            let id = self.trail.pop().expect("trail length checked");
            self.scratch[id.index()] = Partial::Unknown;
        }
    }

    /// Drains the propagation worklist: re-evaluates `Unknown` parents
    /// of freshly determined nodes, trailing and enqueueing each one
    /// that becomes determined. Order-free: a node's determined value
    /// depends only on its children's determined values, which never
    /// change again, so chaotic iteration converges to the same fixpoint
    /// as a topological sweep.
    fn flush(&mut self, work: &mut Vec<NodeId>) -> Result<(), ObddError> {
        while let Some(id) = work.pop() {
            for i in 0..self.net.node(id).parents.len() {
                let p = self.net.node(id).parents[i];
                if self.active[p.index()] != self.active_stamp
                    || self.scratch[p.index()] != Partial::Unknown
                {
                    continue;
                }
                let new = self.eval_node(p)?;
                if new != Partial::Unknown {
                    self.scratch[p.index()] = new;
                    self.trail.push(p);
                    work.push(p);
                }
            }
        }
        Ok(())
    }

    /// One node's three-valued value from its children's scratch values
    /// and the current assignment.
    fn eval_node(&self, id: NodeId) -> Result<Partial, ObddError> {
        let node = self.net.node(id);
        Ok(match &node.kind {
            NodeKind::Var(v) => match self.assignment[v.index()] {
                Some(b) => Partial::B(b),
                None => Partial::Unknown,
            },
            NodeKind::ConstBool(b) => Partial::B(*b),
            NodeKind::Not => match self.scratch[node.children[0].index()] {
                Partial::B(b) => Partial::B(!b),
                _ => Partial::Unknown,
            },
            NodeKind::And => {
                let mut out = Partial::B(true);
                for &c in &node.children {
                    match self.scratch[c.index()] {
                        Partial::B(false) => {
                            out = Partial::B(false);
                            break;
                        }
                        Partial::B(true) => {}
                        _ => out = Partial::Unknown,
                    }
                }
                out
            }
            NodeKind::Or => {
                let mut out = Partial::B(false);
                for &c in &node.children {
                    match self.scratch[c.index()] {
                        Partial::B(true) => {
                            out = Partial::B(true);
                            break;
                        }
                        Partial::B(false) => {}
                        _ => out = Partial::Unknown,
                    }
                }
                out
            }
            NodeKind::Cmp(op) => {
                let a = &self.scratch[node.children[0].index()];
                let b = &self.scratch[node.children[1].index()];
                // An undefined side makes any comparison true (§3.2),
                // even when the other side is still unknown.
                match (a, b) {
                    (Partial::V(Value::Undef), _) | (_, Partial::V(Value::Undef)) => {
                        Partial::B(true)
                    }
                    (Partial::V(x), Partial::V(y)) => Partial::B(x.compare(*op, y)?),
                    _ => Partial::Unknown,
                }
            }
            NodeKind::ConstVal => Partial::V(node.value.clone().expect("ConstVal payload")),
            NodeKind::Cond => match self.scratch[node.children[0].index()] {
                Partial::B(true) => Partial::V(node.value.clone().expect("Cond payload")),
                Partial::B(false) => Partial::V(Value::Undef),
                _ => Partial::Unknown,
            },
            NodeKind::Guard => {
                let guard = &self.scratch[node.children[0].index()];
                let inner = &self.scratch[node.children[1].index()];
                match (guard, inner) {
                    // Both outcomes are u once the payload is u.
                    (_, Partial::V(Value::Undef)) | (Partial::B(false), _) => {
                        Partial::V(Value::Undef)
                    }
                    (Partial::B(true), Partial::V(v)) => Partial::V(v.clone()),
                    _ => Partial::Unknown,
                }
            }
            NodeKind::Sum => {
                let mut acc = Some(Value::Undef);
                for &c in &node.children {
                    match (&self.scratch[c.index()], acc.take()) {
                        (Partial::V(v), Some(a)) => acc = Some(a.add(v)?),
                        _ => break,
                    }
                }
                match acc {
                    Some(v) => Partial::V(v),
                    None => Partial::Unknown,
                }
            }
            NodeKind::Prod => {
                // An undefined factor absorbs the whole product (§3.2),
                // so one known-u child resolves it early.
                if node
                    .children
                    .iter()
                    .any(|&c| self.scratch[c.index()] == Partial::V(Value::Undef))
                {
                    Partial::V(Value::Undef)
                } else {
                    let mut acc = Some(Value::Num(1.0));
                    for &c in &node.children {
                        match (&self.scratch[c.index()], acc.take()) {
                            (Partial::V(v), Some(a)) => acc = Some(a.mul(v)?),
                            _ => break,
                        }
                    }
                    match acc {
                        Some(v) => Partial::V(v),
                        None => Partial::Unknown,
                    }
                }
            }
            NodeKind::Inv => match &self.scratch[node.children[0].index()] {
                Partial::V(v) => Partial::V(v.inv()?),
                _ => Partial::Unknown,
            },
            NodeKind::Pow(r) => match &self.scratch[node.children[0].index()] {
                Partial::V(v) => Partial::V(v.pow(*r)?),
                _ => Partial::Unknown,
            },
            NodeKind::Dist => {
                let a = &self.scratch[node.children[0].index()];
                let b = &self.scratch[node.children[1].index()];
                match (a, b) {
                    (Partial::V(Value::Undef), _) | (_, Partial::V(Value::Undef)) => {
                        Partial::V(Value::Undef)
                    }
                    (Partial::V(x), Partial::V(y)) => Partial::V(x.dist(y)?),
                    _ => Partial::Unknown,
                }
            }
        })
    }
}
