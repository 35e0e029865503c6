//! Mask propagation over event networks (paper Algorithm 2).
//!
//! A *mask* is the partial-evaluation state of the network under a partial
//! variable assignment ν. Each node's value is the one §3.2 node rule,
//! [`enframe_network::eval_node`], that every network evaluator runs; the
//! masks add an *overlay* on top of it: definedness plus interval bounds
//! for c-value nodes (see [`crate::bounds`]), and child counters for
//! `And`/`Or`/`Σ` so that a variable assignment propagates bottom-up in
//! time proportional to the affected region rather than the network size.
//! The overlay decides a node only where the rule cannot: a comparison
//! whose sides are not yet exact resolves as soon as their intervals
//! separate. [`Masks`] holds one state per node of a [`Network`], indexed
//! by [`NodeId`].
//!
//! Two implementation choices beyond the pseudocode (results unchanged):
//!
//! * **Trail-based undo.** Instead of copying the mask array per
//!   decision-tree branch, a trail records every state change and the DFS
//!   rolls it back on backtracking.
//! * **Topological waves.** One variable assignment is propagated as a
//!   *wave* processed in topological node order (ids are topological by
//!   construction), so every node is recomputed **at most once per wave**
//!   and aggregate deltas are taken against a per-wave snapshot of each
//!   changed child. Naïve worklist propagation would recompute a parent
//!   once per changed child — and, worse, double-apply deltas when a
//!   child changes twice within a wave.
//!
//! The rule is monotone, and so is the overlay's decision of a
//! comparison: a decided node keeps its value in every extension of ν,
//! so a wave recomputes only undecided nodes. The overlay lifts §3.2 to
//! intervals:
//! * a comparison resolves **true** as soon as the comparison certainly
//!   holds whenever both sides are defined;
//! * it resolves **false** only when both sides are certainly defined and
//!   the comparison certainly fails;
//! * an undefined summand contributes the additive identity to a `Σ`'s
//!   interval, a possibly undefined one the hull of both.

use crate::bounds::{certainly, certainly_not, Def3, Ival};
use enframe_core::{CmpOp, Value, Var};
use enframe_network::{eval_node, Network, NodeId, NodeKind, Partial};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Mask state of a c-value node: its value and its overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct NumState {
    /// The node's value by the §3.2 node rule (`Partial::V(Value::Undef)`
    /// = certainly undefined).
    pub value: Partial,
    /// Definedness under the current partial assignment.
    pub def: Def3,
    /// Interval bounds on the defined value.
    pub ival: Ival,
    n_unres: u32,
    n_def_yes: u32,
    n_def_no: u32,
}

impl NumState {
    /// A state without counters. A decided value fixes the overlay: `u` is
    /// certainly undefined (its interval keeps only its shape, which a sum
    /// of points needs for its identity), any other value is its own exact
    /// interval. `overlay` gives definedness and interval otherwise.
    fn new(value: Partial, overlay: impl FnOnce() -> (Def3, Ival)) -> NumState {
        let (def, ival) = match &value {
            Partial::V(Value::Undef) => (Def3::No, overlay().1),
            Partial::V(v) => (Def3::Yes, Ival::exact(v)),
            Partial::B(_) | Partial::Unknown => overlay(),
        };
        NumState {
            value,
            def,
            ival,
            n_unres: 0,
            n_def_yes: 0,
            n_def_no: 0,
        }
    }
}

/// Mask state of one node.
#[derive(Debug, Clone, PartialEq)]
pub enum NState {
    /// Boolean node state with child counters (for `And`/`Or`).
    Bool {
        /// The node's value: the §3.2 node rule's, or a comparison's
        /// interval decision.
        value: Partial,
        /// Children currently true.
        n_true: u32,
        /// Children currently false.
        n_false: u32,
    },
    /// Numeric node state.
    Num(NumState),
}

impl NState {
    fn bool(value: Partial) -> NState {
        NState::Bool {
            value,
            n_true: 0,
            n_false: 0,
        }
    }

    /// The node's value in the current branch.
    pub fn value(&self) -> &Partial {
        match self {
            NState::Bool { value, .. } => value,
            NState::Num(n) => &n.value,
        }
    }

    /// Whether the node is resolved in the current branch.
    pub fn is_resolved(&self) -> bool {
        !matches!(self.value(), Partial::Unknown)
    }

    fn num(&self) -> &NumState {
        match self {
            NState::Num(n) => n,
            NState::Bool { .. } => unreachable!("Boolean node used as numeric"),
        }
    }

    /// Whether the externally visible part changed (counters excluded).
    fn visibly_differs(&self, other: &NState) -> bool {
        match (self, other) {
            (NState::Bool { value: a, .. }, NState::Bool { value: b, .. }) => a != b,
            (NState::Num(a), NState::Num(b)) => {
                a.value != b.value || a.def != b.def || a.ival != b.ival
            }
            _ => true,
        }
    }
}

/// The contribution interval of a summand: defined value, identity when
/// undefined, hull of both while unknown.
fn contribution(n: &NumState) -> Ival {
    match n.def {
        Def3::Yes => n.ival.clone(),
        Def3::No => match &n.ival {
            Ival::Scalar { .. } => Ival::zero_scalar(),
            Ival::Point { lo, .. } => Ival::zero_point(lo.len()),
        },
        Def3::Maybe => n.ival.hull_zero(),
    }
}

/// The mask store of a network, with trail-based undo.
pub struct Masks<'n> {
    net: &'n Network,
    state: Vec<NState>,
    trail: Vec<(NodeId, NState)>,
    is_target: Vec<bool>,
    unresolved_target_nodes: usize,
    // Wave machinery (buffers reused across assignments).
    heap: BinaryHeap<Reverse<NodeId>>,
    in_heap: Vec<bool>,
    pending: Vec<Vec<NodeId>>,
    wave_old: Vec<Option<NState>>,
    touched: Vec<NodeId>,
}

impl<'n> Masks<'n> {
    /// Builds the initial mask state for a network (bottom-up over the
    /// empty assignment).
    pub fn new(net: &'n Network) -> Self {
        let n = net.len();
        let mut m = Masks {
            net,
            state: Vec::with_capacity(n),
            trail: Vec::new(),
            is_target: vec![false; n],
            unresolved_target_nodes: 0,
            heap: BinaryHeap::new(),
            in_heap: vec![false; n],
            pending: vec![Vec::new(); n],
            wave_old: vec![None; n],
            touched: Vec::new(),
        };
        for i in 0..n {
            let st = m.compute_full(NodeId(i as u32));
            m.state.push(st);
        }
        for t in &net.targets {
            m.is_target[t.index()] = true;
        }
        m.unresolved_target_nodes = (0..n)
            .filter(|&i| m.is_target[i] && !m.state[i].is_resolved())
            .count();
        m
    }

    /// The state of a node.
    pub fn state(&self, id: NodeId) -> &NState {
        &self.state[id.index()]
    }

    /// The value of a node in the current branch.
    pub fn value(&self, id: NodeId) -> &Partial {
        self.state[id.index()].value()
    }

    /// Number of distinct target nodes still unresolved in this branch.
    pub fn unresolved_targets(&self) -> usize {
        self.unresolved_target_nodes
    }

    /// Number of *currently unresolved* parents of a variable's leaf — the
    /// dynamic influence measure of the §4.1 variable choice.
    pub fn unresolved_parents_of_var(&self, v: Var) -> usize {
        self.net.var_node(v).map_or(0, |g| {
            self.net
                .node(g)
                .parents
                .iter()
                .filter(|p| !self.state[p.index()].is_resolved())
                .count()
        })
    }

    /// Whether a variable's leaf is already resolved (or absent).
    pub fn var_resolved(&self, v: Var) -> bool {
        self.net
            .var_node(v)
            .is_none_or(|g| self.state[g.index()].is_resolved())
    }

    /// Trail checkpoint for later [`Masks::rollback`].
    pub fn checkpoint(&self) -> usize {
        self.trail.len()
    }

    /// Rolls the trail back to a checkpoint.
    pub fn rollback(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let Some((g, old)) = self.trail.pop() else {
                break; // unreachable: the loop condition bounds the pops
            };
            let cur_resolved = self.state[g.index()].is_resolved();
            let old_resolved = old.is_resolved();
            if self.is_target[g.index()] && cur_resolved && !old_resolved {
                self.unresolved_target_nodes += 1;
            }
            self.state[g.index()] = old;
        }
    }

    /// Assigns variable `v := value` and propagates masks bottom-up.
    /// `sink(node, truth)` fires exactly once per **target node** that
    /// resolves as a consequence (used to update probability bounds with
    /// the current branch mass).
    pub fn assign(&mut self, v: Var, value: bool, sink: &mut dyn FnMut(NodeId, bool)) {
        let Some(g) = self.net.var_node(v) else {
            return; // variable does not occur in the network
        };
        debug_assert!(
            !self.state[g.index()].is_resolved(),
            "variable x{} assigned twice",
            v.0
        );
        self.set_state(g, NState::bool(Partial::B(value)), sink);
        // Process the wave in topological order: ids are topological
        // (children precede parents), so popping the smallest dirty id
        // guarantees all of its inputs are final. Every node is therefore
        // recomputed at most once per wave.
        while let Some(Reverse(pg)) = self.heap.pop() {
            self.in_heap[pg.index()] = false;
            let kids = std::mem::take(&mut self.pending[pg.index()]);
            if let Some(new_state) = self.recompute(pg, &kids) {
                self.set_state(pg, new_state, sink);
            }
        }
        // Clear the wave snapshot.
        for g in std::mem::take(&mut self.touched) {
            self.wave_old[g.index()] = None;
        }
    }

    fn set_state(&mut self, g: NodeId, new: NState, sink: &mut dyn FnMut(NodeId, bool)) {
        let idx = g.index();
        if self.state[idx] == new {
            return;
        }
        let visible = self.state[idx].visibly_differs(&new);
        let old = std::mem::replace(&mut self.state[idx], new);
        if self.is_target[idx] && !old.is_resolved() && self.state[idx].is_resolved() {
            self.unresolved_target_nodes -= 1;
            let Partial::B(truth) = *self.state[idx].value() else {
                unreachable!("targets are Boolean");
            };
            sink(g, truth);
        }
        if self.wave_old[idx].is_none() {
            self.wave_old[idx] = Some(old.clone());
            self.touched.push(g);
        }
        self.trail.push((g, old));
        if visible {
            let net = self.net;
            for &p in &net.node(g).parents {
                self.pending[p.index()].push(g);
                if !self.in_heap[p.index()] {
                    self.in_heap[p.index()] = true;
                    self.heap.push(Reverse(p));
                }
            }
        }
    }

    /// The wave-start state of a changed child.
    fn old_of(&self, child: NodeId) -> &NState {
        self.wave_old[child.index()]
            .as_ref()
            .expect("changed child has a wave snapshot")
    }

    /// The §3.2 node rule over the children's current values; an
    /// ill-typed node stays undecided.
    fn rule(&self, g: NodeId) -> Partial {
        eval_node(
            self.net.node(g),
            |c| self.state[c.index()].value(),
            |_| None,
        )
        .unwrap_or(Partial::Unknown)
    }

    /// Recomputes `parent` given the children that changed this wave.
    /// Counter-based nodes (`And`/`Or`/`Sum`) apply exact deltas and run
    /// the rule only once the counters say it can decide; all other kinds
    /// recompute from their (small) child lists.
    fn recompute(&self, parent: NodeId, kids: &[NodeId]) -> Option<NState> {
        let cur = &self.state[parent.index()];
        if cur.is_resolved() {
            return None;
        }
        let node = self.net.node(parent);
        let len = node.children.len() as u32;
        let new = match (&node.kind, cur) {
            (
                kind @ (NodeKind::And | NodeKind::Or),
                NState::Bool {
                    n_true, n_false, ..
                },
            ) => {
                let (mut n_true, mut n_false) = (*n_true, *n_false);
                for &kid in kids {
                    match self.old_of(kid).value() {
                        Partial::B(true) => n_true -= 1,
                        Partial::B(false) => n_false -= 1,
                        _ => {}
                    }
                    match self.state[kid.index()].value() {
                        Partial::B(true) => n_true += 1,
                        Partial::B(false) => n_false += 1,
                        _ => {}
                    }
                }
                let (absorbing, unit) = match kind {
                    NodeKind::And => (n_false, n_true),
                    _ => (n_true, n_false),
                };
                let value = if absorbing > 0 || unit == len {
                    self.rule(parent)
                } else {
                    Partial::Unknown
                };
                NState::Bool {
                    value,
                    n_true,
                    n_false,
                }
            }
            (NodeKind::Sum, NState::Num(cur)) => {
                let mut st = cur.clone();
                for &kid in kids {
                    let oc = self.old_of(kid).num();
                    let nc = self.state[kid.index()].num();
                    if oc.value == Partial::Unknown && nc.value != Partial::Unknown {
                        st.n_unres -= 1;
                    }
                    match oc.def {
                        Def3::Yes => st.n_def_yes -= 1,
                        Def3::No => st.n_def_no -= 1,
                        Def3::Maybe => {}
                    }
                    match nc.def {
                        Def3::Yes => st.n_def_yes += 1,
                        Def3::No => st.n_def_no += 1,
                        Def3::Maybe => {}
                    }
                    st.ival.shift(&contribution(oc), &contribution(nc));
                }
                NState::Num(self.sum_state(parent, st))
            }
            _ => self.compute_full(parent),
        };
        (new != *cur).then_some(new)
    }

    /// Computes a node's state from scratch from its children's current
    /// states (used for initialisation and for small-fan-in node kinds).
    fn compute_full(&self, g: NodeId) -> NState {
        let node = self.net.node(g);
        let num = |i: usize| self.state[node.children[i].index()].num();
        match &node.kind {
            NodeKind::And | NodeKind::Or => {
                let (mut n_true, mut n_false) = (0, 0);
                for c in &node.children {
                    match self.state[c.index()].value() {
                        Partial::B(true) => n_true += 1,
                        Partial::B(false) => n_false += 1,
                        _ => {}
                    }
                }
                NState::Bool {
                    value: self.rule(g),
                    n_true,
                    n_false,
                }
            }
            NodeKind::Cmp(op) => NState::bool(match self.rule(g) {
                Partial::Unknown => cmp_overlay(*op, num(0), num(1)),
                decided => decided,
            }),
            kind if kind.is_bool() => NState::bool(self.rule(g)),
            NodeKind::Sum => {
                let mut st = NumState {
                    value: Partial::Unknown,
                    def: Def3::Maybe,
                    ival: Ival::zero_scalar(),
                    n_unres: 0,
                    n_def_yes: 0,
                    n_def_no: 0,
                };
                let mut acc: Option<Ival> = None;
                for c in &node.children {
                    let c = self.state[c.index()].num();
                    if c.value == Partial::Unknown {
                        st.n_unres += 1;
                    }
                    match c.def {
                        Def3::Yes => st.n_def_yes += 1,
                        Def3::No => st.n_def_no += 1,
                        Def3::Maybe => {}
                    }
                    let contrib = contribution(c);
                    acc = Some(match acc {
                        None => contrib,
                        Some(a) => a.add(&contrib),
                    });
                }
                st.ival = acc.unwrap_or_else(Ival::zero_scalar);
                NState::Num(self.sum_state(g, st))
            }
            kind => NState::Num(NumState::new(self.rule(g), || match kind {
                NodeKind::ConstVal | NodeKind::Cond => {
                    let ival = match node.value.as_ref() {
                        Some(Value::Undef) | None => Ival::zero_scalar(),
                        Some(v) => Ival::exact(v),
                    };
                    (Def3::Maybe, ival)
                }
                NodeKind::Guard => {
                    let c = num(1);
                    let def = match self.state[node.children[0].index()].value() {
                        Partial::B(true) => c.def,
                        _ => c.def.and(Def3::Maybe),
                    };
                    (def, c.ival.clone())
                }
                NodeKind::Prod => {
                    let mut def = Def3::Yes;
                    let mut ival: Option<Ival> = None;
                    for c in &node.children {
                        let c = self.state[c.index()].num();
                        def = def.and(c.def);
                        ival = Some(match ival {
                            None => c.ival.clone(),
                            Some(a) => a.mul(&c.ival),
                        });
                    }
                    (def, ival.unwrap_or(Ival::Scalar { lo: 1.0, hi: 1.0 }))
                }
                NodeKind::Inv => (nonzero_def(num(0)), num(0).ival.inv()),
                NodeKind::Pow(r) if *r >= 0 => (num(0).def, num(0).ival.powi(*r)),
                NodeKind::Pow(r) => (nonzero_def(num(0)), num(0).ival.powi(*r)),
                NodeKind::Dist => (num(0).def.and(num(1).def), num(0).ival.dist(&num(1).ival)),
                _ => unreachable!("every Boolean kind and the sum are handled above"),
            })),
        }
    }

    /// A sum's state from its counters and interval: the rule decides it
    /// once no summand is undecided.
    fn sum_state(&self, g: NodeId, st: NumState) -> NumState {
        let len = self.net.node(g).children.len() as u32;
        let def = if st.n_def_yes >= 1 {
            Def3::Yes
        } else if st.n_def_no == len {
            Def3::No
        } else {
            Def3::Maybe
        };
        let value = if st.n_unres == 0 {
            self.rule(g)
        } else {
            Partial::Unknown
        };
        NumState {
            n_unres: st.n_unres,
            n_def_yes: st.n_def_yes,
            n_def_no: st.n_def_no,
            ..NumState::new(value, || (def, st.ival))
        }
    }
}

/// The overlay's decision of a comparison the rule leaves undecided: true
/// when it certainly holds whenever both sides are defined, false only when
/// both sides are certainly defined and it certainly fails.
fn cmp_overlay(op: CmpOp, a: &NumState, b: &NumState) -> Partial {
    if certainly(op, &a.ival, &b.ival) {
        Partial::B(true)
    } else if a.def == Def3::Yes && b.def == Def3::Yes && certainly_not(op, &a.ival, &b.ival) {
        Partial::B(false)
    } else {
        Partial::Unknown
    }
}

/// Definedness of an inverse (or a negative power): certain only while the
/// defined operand's interval excludes 0, whose inverse is `u`.
fn nonzero_def(c: &NumState) -> Def3 {
    match (c.def, c.ival.scalar()) {
        (Def3::Yes, Some((lo, hi))) if lo > 0.0 || hi < 0.0 => Def3::Yes,
        (Def3::Yes, _) => Def3::Maybe,
        (def, _) => def,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;
    use enframe_core::{CVal, Event};
    use enframe_core::{Program, Valuation};
    use std::rc::Rc;

    /// Checks that applying a full assignment via masks resolves every
    /// target to the same value as the reference evaluator on the grounded
    /// program, for all worlds.
    fn check_full_assignments(p: &Program) {
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let n = net.n_vars as usize;
        let mut masks = Masks::new(&net);
        for code in 0..(1u64 << n) {
            let nu = Valuation::from_code(n, code);
            let mark = masks.checkpoint();
            for i in 0..n {
                let v = Var(i as u32);
                if masks.var_resolved(v) {
                    continue;
                }
                masks.assign(v, nu.get(v), &mut |_, _| {});
            }
            for (k, &t) in net.targets.iter().enumerate() {
                let want = g.eval_bool(g.targets[k], &nu).unwrap();
                assert_eq!(
                    masks.value(t),
                    &Partial::B(want),
                    "world {code:b}, target {k}"
                );
            }
            masks.rollback(mark);
        }
    }

    #[test]
    fn propositional_masking_matches_eval() {
        check_full_assignments(&fixtures::propositional());
    }

    #[test]
    fn atom_masking_matches_eval() {
        check_full_assignments(&fixtures::atoms());
    }

    #[test]
    fn early_resolution_from_intervals() {
        // A1 ≡ [x⊗1 + 5 ≥ 4] resolves TRUE without assigning x: the
        // contribution of x⊗1 is [0,1], so the sum is in [5,6] ≥ 4.
        let net = Network::build(&fixtures::atoms().ground().unwrap()).unwrap();
        let masks = Masks::new(&net);
        assert_eq!(masks.value(net.targets[1]), &Partial::B(true));
        assert_eq!(masks.unresolved_targets(), 1, "only A0 waits for x and y");
    }

    #[test]
    fn undefined_comparison_resolves_true() {
        // A2 ≡ [u ≤ x⊗0]: left side certainly undefined ⇒ true at init.
        let net = Network::build(&fixtures::atoms().ground().unwrap()).unwrap();
        let masks = Masks::new(&net);
        assert_eq!(masks.value(net.targets[2]), &Partial::B(true));
    }

    #[test]
    fn product_absorbs_undefined_factor() {
        // P = (x⊗2) · 3; atom [P > 100] with x = false: P = u ⇒ atom true.
        let mut p = Program::new();
        let x = p.fresh_var();
        let prod = Rc::new(CVal::Prod(vec![
            CVal::cond(Program::var(x), Value::Num(2.0)),
            CVal::num(3.0),
        ]));
        let a = p.declare_event("A", Rc::new(Event::Atom(CmpOp::Gt, prod, CVal::num(100.0))));
        p.add_target(a);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let mut masks = Masks::new(&net);
        assert_eq!(masks.value(net.targets[0]), &Partial::Unknown);
        let mut hits = Vec::new();
        masks.assign(Var(0), false, &mut |id, v| hits.push((id, v)));
        assert_eq!(masks.value(net.targets[0]), &Partial::B(true));
        assert_eq!(hits.len(), 1);
        assert!(hits[0].1);
    }

    #[test]
    fn rollback_restores_everything() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let e = p.declare_event("E", Program::and([Program::var(x), Program::var(y)]));
        p.add_target(e);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let mut masks = Masks::new(&net);
        let before: Vec<NState> = (0..net.len())
            .map(|i| masks.state(NodeId(i as u32)).clone())
            .collect();
        let mark = masks.checkpoint();
        masks.assign(Var(0), true, &mut |_, _| {});
        masks.assign(Var(1), true, &mut |_, _| {});
        assert_eq!(masks.value(net.targets[0]), &Partial::B(true));
        assert_eq!(masks.unresolved_targets(), 0);
        masks.rollback(mark);
        assert_eq!(masks.unresolved_targets(), 1);
        for i in 0..net.len() {
            assert_eq!(
                masks.state(NodeId(i as u32)),
                &before[i],
                "node {i} not restored"
            );
        }
    }

    #[test]
    fn sink_fires_once_per_target_resolution() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let e = p.declare_event("E", Program::or([Program::var(x), Program::var(y)]));
        p.add_target(e);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let mut masks = Masks::new(&net);
        let mut count = 0;
        masks.assign(Var(0), true, &mut |_, v| {
            count += 1;
            assert!(v);
        });
        // Or already true; assigning y must not re-fire the sink.
        masks.assign(Var(1), false, &mut |_, _| count += 10);
        assert_eq!(count, 1);
    }

    /// Regression for the double-delta hazard: a sum whose summands share
    /// a guard variable changes several inputs in ONE wave; the sum must
    /// apply each delta exactly once.
    #[test]
    fn shared_variable_wave_applies_deltas_once() {
        check_full_assignments(&fixtures::shared_variable());
    }

    /// Exhaustive mask-vs-eval agreement on a k-medoids-shaped program
    /// (sum/dist/compare over conditional points).
    #[test]
    fn kmedoids_shaped_masking_matches_eval() {
        check_full_assignments(&fixtures::kmedoids_shaped());
    }

    mod partial {
        use super::*;
        use crate::fixtures::Rng;
        use proptest::prelude::*;

        proptest! {
            /// Under a random partial assignment, every node the rule
            /// decides from scratch is decided in the masks with the same
            /// value, and rolling back restores every state.
            #[test]
            fn masks_decide_what_the_rule_decides(seed in 0u64..1_000_000) {
                let mut rng = Rng::new(seed);
                for p in fixtures::programs(seed) {
                    let g = p.ground().unwrap();
                    let net = Network::build(&g).unwrap();
                    let mut masks = Masks::new(&net);
                    let before: Vec<NState> =
                        (0..net.len()).map(|i| masks.state(NodeId(i as u32)).clone()).collect();
                    let assignment = fixtures::partial_assignment(net.n_vars, &mut rng);
                    let mark = masks.checkpoint();
                    for &(v, b) in &assignment {
                        if !masks.var_resolved(v) {
                            masks.assign(v, b, &mut |_, _| {});
                        }
                    }
                    let lookup = |v: Var| assignment.iter().find(|a| a.0 == v).map(|a| a.1);
                    let want = net.eval_all(lookup).unwrap();
                    for (i, w) in want.iter().enumerate() {
                        if *w != Partial::Unknown {
                            prop_assert_eq!(masks.value(NodeId(i as u32)), w, "node {}", i);
                        }
                    }
                    masks.rollback(mark);
                    for (i, st) in before.iter().enumerate() {
                        prop_assert_eq!(masks.state(NodeId(i as u32)), st);
                    }
                }
            }
        }
    }
}
