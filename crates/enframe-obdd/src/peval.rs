//! Incremental three-valued evaluation of event-network nodes.
//!
//! The residual-state DP of [`crate::dnnf`] — the one expander of both
//! compiled forms — drives its case analysis with this oracle: given a
//! *partial* assignment of the input variables, which network nodes are
//! already forced? A comparison atom whose sides are determined (or
//! undefined, §3.2) resolves to a constant and prunes the whole branch;
//! a node that stays [`Partial::Unknown`] keeps the expansion alive.
//!
//! Which value a node takes is the one §3.2 node rule,
//! [`enframe_network::eval_node`], that every network evaluator runs;
//! this module keeps only the incremental parts around it. The evaluator
//! owns the current assignment and a per-node scratch vector, kept
//! current incrementally: [`Evaluator::prime`] once, then
//! [`Evaluator::assign_monotone`] / [`Evaluator::undo_to`] per decision.
//! [`Evaluator::value`] reads off any node's three-valued state, and the
//! DP walks exactly this scratch to build its residual memoisation keys.

use crate::ObddError;
use enframe_core::budget::BudgetScope;
use enframe_core::Var;
use enframe_network::{eval_node, Network, NodeId, NodeKind, Partial};
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

    /// One node's value by the shared §3.2 rule, from its children's
    /// scratch values and the current assignment.
    fn eval_node(&self, id: NodeId) -> Result<Partial, ObddError> {
        Ok(eval_node(
            self.net.node(id),
            |c| &self.scratch[c.index()],
            |v| self.assignment[v.index()],
        )?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{self, Rng};
    use proptest::prelude::*;

    /// Every node `root` depends on.
    fn cone(net: &Network, root: NodeId) -> Vec<NodeId> {
        let mut seen = VisitStamp::new(net.len());
        seen.reset();
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if !seen.visit(id) {
                out.push(id);
                stack.extend(&net.node(id).children);
            }
        }
        out
    }

    proptest! {
        /// Under a random partial assignment, the incremental state on
        /// each target's cone is the rule evaluated from scratch, and
        /// undoing the assignment restores every node.
        #[test]
        fn incremental_state_is_the_rule_from_scratch(seed in 0u64..1_000_000) {
            let mut rng = Rng::new(seed);
            for p in fixtures::programs(seed) {
                let g = p.ground().unwrap();
                let net = Network::build(&g).unwrap();
                let mut eval = Evaluator::new(&net, BudgetScope::unlimited());
                eval.prime().unwrap();
                let empty: Vec<Partial> =
                    (0..net.len()).map(|i| eval.value(NodeId(i as u32)).clone()).collect();
                for &t in &net.targets {
                    let cone = cone(&net, t);
                    eval.restrict_to(&cone);
                    let assignment = fixtures::partial_assignment(net.n_vars, &mut rng);
                    let marks: Vec<(usize, Var)> = assignment
                        .iter()
                        .map(|&(v, b)| (eval.assign_monotone(v, b).unwrap(), v))
                        .collect();
                    let lookup = |v: Var| assignment.iter().find(|a| a.0 == v).map(|a| a.1);
                    let want = net.eval_all(lookup).unwrap();
                    for &id in &cone {
                        prop_assert_eq!(eval.value(id), &want[id.index()]);
                    }
                    for &(mark, v) in marks.iter().rev() {
                        eval.undo_to(mark, v);
                    }
                    for (i, before) in empty.iter().enumerate() {
                        prop_assert_eq!(eval.value(NodeId(i as u32)), before);
                    }
                }
            }
        }
    }
}
