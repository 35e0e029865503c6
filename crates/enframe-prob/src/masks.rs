//! Mask propagation over event networks (paper Algorithm 2).
//!
//! A *mask* is the partial-evaluation state of the network under a partial
//! variable assignment ν: Boolean nodes carry a three-valued mask, c-value
//! nodes carry definedness plus interval bounds (see [`crate::bounds`]),
//! and aggregates keep incremental bookkeeping so that a variable
//! assignment propagates bottom-up in time proportional to the affected
//! region rather than the network size. [`Masks`] holds one state per node
//! of a [`Network`], indexed by [`NodeId`].
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
//! Resolution rules implement §3.2 lifted to intervals:
//! * a comparison resolves **true** as soon as either side is certainly
//!   undefined, or the comparison certainly holds whenever both sides are
//!   defined;
//! * it resolves **false** only when both sides are certainly defined and
//!   the comparison certainly fails;
//! * `Σ` treats undefined summands as the additive identity and resolves
//!   exactly (by the same left-fold as the reference evaluator) once all
//!   children are resolved;
//! * `Π` resolves to undefined as soon as any factor is certainly
//!   undefined.

use crate::bounds::{certainly, certainly_not, Def3, Ival};
use enframe_core::{Value, Var};
use enframe_network::{Network, NodeId, NodeKind};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Three-valued mask of a Boolean node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolMask {
    /// Not yet determined in this branch.
    Unknown,
    /// Certainly true.
    True,
    /// Certainly false.
    False,
}

impl BoolMask {
    /// Whether the mask is decided.
    pub fn known(self) -> bool {
        self != BoolMask::Unknown
    }
}

/// Mask state of a c-value node.
#[derive(Debug, Clone, PartialEq)]
pub struct NumState {
    /// Definedness under the current partial assignment.
    pub def: Def3,
    /// Interval bounds on the defined value.
    pub ival: Ival,
    /// Exact value once fully resolved (`Some(Value::Undef)` = certainly
    /// undefined).
    pub resolved: Option<Value>,
    n_unres: u32,
    n_def_yes: u32,
    n_def_no: u32,
}

/// Mask state of one node.
#[derive(Debug, Clone, PartialEq)]
pub enum NState {
    /// Boolean node state with child counters (for `And`/`Or`).
    Bool {
        /// Current mask.
        mask: BoolMask,
        /// Children currently masked true.
        n_true: u32,
        /// Children currently masked false.
        n_false: u32,
    },
    /// Numeric node state.
    Num(NumState),
}

impl NState {
    /// Whether the node is resolved in the current branch.
    pub fn is_resolved(&self) -> bool {
        match self {
            NState::Bool { mask, .. } => mask.known(),
            NState::Num(n) => n.resolved.is_some(),
        }
    }

    fn bool_mask(&self) -> BoolMask {
        match self {
            NState::Bool { mask, .. } => *mask,
            NState::Num(_) => unreachable!("numeric node used as Boolean"),
        }
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
            (NState::Bool { mask: a, .. }, NState::Bool { mask: b, .. }) => a != b,
            (NState::Num(a), NState::Num(b)) => {
                a.def != b.def || a.ival != b.ival || a.resolved != b.resolved
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
        Def3::No => zero_like(&n.ival),
        Def3::Maybe => n.ival.hull_zero(),
    }
}

fn zero_like(i: &Ival) -> Ival {
    match i {
        Ival::Scalar { .. } => Ival::zero_scalar(),
        Ival::Point { lo, .. } => Ival::zero_point(lo.len()),
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

    /// The Boolean mask of a Boolean node.
    pub fn bool_mask(&self, id: NodeId) -> BoolMask {
        self.state[id.index()].bool_mask()
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
        let new = NState::Bool {
            mask: if value {
                BoolMask::True
            } else {
                BoolMask::False
            },
            n_true: 0,
            n_false: 0,
        };
        self.set_state(g, new, sink);
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
            let truth = match self.state[idx].bool_mask() {
                BoolMask::True => true,
                BoolMask::False => false,
                BoolMask::Unknown => unreachable!(),
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

    /// The current state of the `i`-th child of `g`.
    fn child(&self, g: NodeId, i: usize) -> &NState {
        &self.state[self.net.node(g).children[i].index()]
    }

    /// The wave-start state of a changed child.
    fn old_of(&self, child: NodeId) -> &NState {
        self.wave_old[child.index()]
            .as_ref()
            .expect("changed child has a wave snapshot")
    }

    /// Recomputes `parent` given the children that changed this wave.
    /// Counter-based nodes (`And`/`Or`/`Sum`) apply exact deltas; all other
    /// kinds recompute from their (small) child lists.
    fn recompute(&self, parent: NodeId, kids: &[NodeId]) -> Option<NState> {
        let cur = &self.state[parent.index()];
        let node = self.net.node(parent);
        let kind = &node.kind;
        let new = match kind {
            NodeKind::Var(_) | NodeKind::ConstBool(_) | NodeKind::ConstVal => return None,
            NodeKind::And | NodeKind::Or => {
                let (mut n_true, mut n_false) = match cur {
                    NState::Bool {
                        n_true, n_false, ..
                    } => (*n_true, *n_false),
                    _ => unreachable!(),
                };
                for &kid in kids {
                    match self.old_of(kid).bool_mask() {
                        BoolMask::True => n_true -= 1,
                        BoolMask::False => n_false -= 1,
                        BoolMask::Unknown => {}
                    }
                    match self.state[kid.index()].bool_mask() {
                        BoolMask::True => n_true += 1,
                        BoolMask::False => n_false += 1,
                        BoolMask::Unknown => {}
                    }
                }
                NState::Bool {
                    mask: gate_mask(kind, n_true, n_false, node.children.len() as u32),
                    n_true,
                    n_false,
                }
            }
            NodeKind::Sum => {
                let mut st = cur.num().clone();
                for &kid in kids {
                    let oc = self.old_of(kid).num();
                    let nc = self.state[kid.index()].num();
                    if oc.resolved.is_none() && nc.resolved.is_some() {
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
                st.def = sum_def(st.n_def_yes, st.n_def_no, node.children.len() as u32);
                if st.n_unres == 0 && st.resolved.is_none() {
                    self.resolve_sum(parent, &mut st);
                }
                NState::Num(st)
            }
            NodeKind::Cmp(_) if cur.is_resolved() => {
                // Comparisons are monotone: once resolved, stay.
                return None;
            }
            _ => self.compute_full(parent),
        };
        if &new == cur {
            None
        } else {
            Some(new)
        }
    }

    /// Computes a node's state from scratch from its children's current
    /// states (used for initialisation and for small-fan-in node kinds).
    fn compute_full(&self, g: NodeId) -> NState {
        let node = self.net.node(g);
        match &node.kind {
            NodeKind::Var(_) => NState::Bool {
                mask: BoolMask::Unknown,
                n_true: 0,
                n_false: 0,
            },
            NodeKind::ConstBool(b) => NState::Bool {
                mask: if *b { BoolMask::True } else { BoolMask::False },
                n_true: 0,
                n_false: 0,
            },
            NodeKind::Not => NState::Bool {
                mask: match self.child(g, 0).bool_mask() {
                    BoolMask::Unknown => BoolMask::Unknown,
                    BoolMask::True => BoolMask::False,
                    BoolMask::False => BoolMask::True,
                },
                n_true: 0,
                n_false: 0,
            },
            kind @ (NodeKind::And | NodeKind::Or) => {
                let mut n_true = 0u32;
                let mut n_false = 0u32;
                for c in &node.children {
                    match self.state[c.index()].bool_mask() {
                        BoolMask::True => n_true += 1,
                        BoolMask::False => n_false += 1,
                        BoolMask::Unknown => {}
                    }
                }
                NState::Bool {
                    mask: gate_mask(kind, n_true, n_false, node.children.len() as u32),
                    n_true,
                    n_false,
                }
            }
            NodeKind::Cmp(op) => NState::Bool {
                mask: cmp_mask(*op, self.child(g, 0).num(), self.child(g, 1).num()),
                n_true: 0,
                n_false: 0,
            },
            NodeKind::ConstVal => {
                let v = node
                    .value
                    .clone()
                    .expect("ConstVal node carries a literal value by construction");
                match &v {
                    Value::Undef => NState::Num(NumState {
                        def: Def3::No,
                        ival: Ival::zero_scalar(),
                        resolved: Some(Value::Undef),
                        n_unres: 0,
                        n_def_yes: 0,
                        n_def_no: 0,
                    }),
                    _ => NState::Num(NumState {
                        def: Def3::Yes,
                        ival: Ival::exact(&v),
                        resolved: Some(v),
                        n_unres: 0,
                        n_def_yes: 0,
                        n_def_no: 0,
                    }),
                }
            }
            NodeKind::Cond => NState::Num(cond_state(
                self.child(g, 0).bool_mask(),
                node.value
                    .clone()
                    .expect("Cond node carries a literal value by construction"),
            )),
            NodeKind::Guard => NState::Num(guard_state(
                self.child(g, 0).bool_mask(),
                self.child(g, 1).num(),
            )),
            NodeKind::Sum => {
                let mut n_unres = 0;
                let mut n_def_yes = 0;
                let mut n_def_no = 0;
                let mut acc: Option<Ival> = None;
                for c in &node.children {
                    let c = self.state[c.index()].num();
                    if c.resolved.is_none() {
                        n_unres += 1;
                    }
                    match c.def {
                        Def3::Yes => n_def_yes += 1,
                        Def3::No => n_def_no += 1,
                        Def3::Maybe => {}
                    }
                    let contrib = contribution(c);
                    acc = Some(match acc {
                        None => contrib,
                        Some(a) => a.add(&contrib),
                    });
                }
                let mut st = NumState {
                    def: sum_def(n_def_yes, n_def_no, node.children.len() as u32),
                    ival: acc.unwrap_or_else(Ival::zero_scalar),
                    resolved: None,
                    n_unres,
                    n_def_yes,
                    n_def_no,
                };
                if st.n_unres == 0 {
                    self.resolve_sum(g, &mut st);
                }
                NState::Num(st)
            }
            NodeKind::Prod => NState::Num(self.prod_state(g)),
            NodeKind::Inv => NState::Num(inv_state(self.child(g, 0).num())),
            NodeKind::Pow(r) => NState::Num(pow_state(self.child(g, 0).num(), *r)),
            NodeKind::Dist => {
                NState::Num(dist_state(self.child(g, 0).num(), self.child(g, 1).num()))
            }
        }
    }

    /// The resolved values of `g`'s children, in order.
    fn resolved_children(&self, g: NodeId) -> impl Iterator<Item = Value> + '_ {
        self.net.node(g).children.iter().map(|c| {
            self.state[c.index()]
                .num()
                .resolved
                .clone()
                .expect("child resolved")
        })
    }

    /// Exact resolution of a fully-resolved sum: the same left-fold as the
    /// reference evaluator, so results agree bit-for-bit.
    fn resolve_sum(&self, g: NodeId, st: &mut NumState) {
        let mut acc = Value::Undef;
        for v in self.resolved_children(g) {
            acc = acc.add(&v).expect("well-typed sum");
        }
        match &acc {
            Value::Undef => {
                st.def = Def3::No;
            }
            v => {
                st.def = Def3::Yes;
                st.ival = Ival::exact(v);
            }
        }
        st.resolved = Some(acc);
    }

    fn prod_state(&self, g: NodeId) -> NumState {
        let mut def = Def3::Yes;
        let mut all_resolved = true;
        let mut ival: Option<Ival> = None;
        for c in &self.net.node(g).children {
            let c = self.state[c.index()].num();
            def = def.and(c.def);
            if c.resolved.is_none() {
                all_resolved = false;
            }
            ival = Some(match ival {
                None => c.ival.clone(),
                Some(a) => a.mul(&c.ival),
            });
        }
        let mut st = NumState {
            def,
            ival: ival.unwrap_or(Ival::Scalar { lo: 1.0, hi: 1.0 }),
            resolved: None,
            n_unres: 0,
            n_def_yes: 0,
            n_def_no: 0,
        };
        if def == Def3::No {
            // Any certainly-undefined factor absorbs the product.
            st.resolved = Some(Value::Undef);
        } else if all_resolved {
            let mut acc = Value::Num(1.0);
            for v in self.resolved_children(g) {
                acc = acc.mul(&v).expect("well-typed product");
            }
            if let Value::Undef = acc {
                st.def = Def3::No;
            } else {
                st.def = Def3::Yes;
                st.ival = Ival::exact(&acc);
            }
            st.resolved = Some(acc);
        }
        st
    }
}

fn gate_mask(kind: &NodeKind, n_true: u32, n_false: u32, len: u32) -> BoolMask {
    match kind {
        NodeKind::And => {
            if n_false > 0 {
                BoolMask::False
            } else if n_true == len {
                BoolMask::True
            } else {
                BoolMask::Unknown
            }
        }
        NodeKind::Or => {
            if n_true > 0 {
                BoolMask::True
            } else if n_false == len {
                BoolMask::False
            } else {
                BoolMask::Unknown
            }
        }
        _ => unreachable!(),
    }
}

fn cmp_mask(op: enframe_core::CmpOp, a: &NumState, b: &NumState) -> BoolMask {
    // Either side certainly undefined ⇒ vacuously true (§3.2).
    if matches!(a.resolved, Some(Value::Undef)) || matches!(b.resolved, Some(Value::Undef)) {
        return BoolMask::True;
    }
    if let (Some(va), Some(vb)) = (&a.resolved, &b.resolved) {
        return match va.compare(op, vb) {
            Ok(true) => BoolMask::True,
            Ok(false) => BoolMask::False,
            Err(_) => BoolMask::Unknown,
        };
    }
    // Certainly θ whenever both defined ⇒ true regardless of definedness.
    if certainly(op, &a.ival, &b.ival) {
        return BoolMask::True;
    }
    // False needs certain definedness on both sides.
    if a.def == Def3::Yes && b.def == Def3::Yes && certainly_not(op, &a.ival, &b.ival) {
        return BoolMask::False;
    }
    BoolMask::Unknown
}

fn cond_state(guard: BoolMask, v: Value) -> NumState {
    match guard {
        BoolMask::True => NumState {
            def: Def3::Yes,
            ival: Ival::exact(&v),
            resolved: Some(v),
            n_unres: 0,
            n_def_yes: 0,
            n_def_no: 0,
        },
        BoolMask::False => NumState {
            def: Def3::No,
            ival: match &v {
                Value::Undef => Ival::zero_scalar(),
                other => Ival::exact(other),
            },
            resolved: Some(Value::Undef),
            n_unres: 0,
            n_def_yes: 0,
            n_def_no: 0,
        },
        BoolMask::Unknown => NumState {
            def: Def3::Maybe,
            ival: match &v {
                Value::Undef => Ival::zero_scalar(),
                other => Ival::exact(other),
            },
            resolved: None,
            n_unres: 0,
            n_def_yes: 0,
            n_def_no: 0,
        },
    }
}

fn guard_state(g: BoolMask, c: &NumState) -> NumState {
    let def = match g {
        BoolMask::False => Def3::No,
        BoolMask::True => c.def,
        BoolMask::Unknown => match c.def {
            Def3::No => Def3::No,
            _ => Def3::Maybe,
        },
    };
    let resolved = match (g, &c.resolved) {
        (BoolMask::False, _) => Some(Value::Undef),
        (_, Some(Value::Undef)) => Some(Value::Undef),
        (BoolMask::True, Some(v)) => Some(v.clone()),
        _ => None,
    };
    NumState {
        def,
        ival: c.ival.clone(),
        resolved,
        n_unres: 0,
        n_def_yes: 0,
        n_def_no: 0,
    }
}

fn inv_state(c: &NumState) -> NumState {
    let resolved = c
        .resolved
        .as_ref()
        .map(|v| v.inv().expect("well-typed inverse"));
    let def = match &resolved {
        Some(Value::Undef) => Def3::No,
        Some(_) => Def3::Yes,
        None => match c.def {
            Def3::No => Def3::No,
            Def3::Yes => match c.ival.scalar() {
                Some((lo, hi)) if lo > 0.0 || hi < 0.0 => Def3::Yes,
                _ => Def3::Maybe,
            },
            Def3::Maybe => Def3::Maybe,
        },
    };
    NumState {
        def,
        ival: c.ival.inv(),
        resolved,
        n_unres: 0,
        n_def_yes: 0,
        n_def_no: 0,
    }
}

fn pow_state(c: &NumState, r: i32) -> NumState {
    let resolved = c
        .resolved
        .as_ref()
        .map(|v| v.pow(r).expect("well-typed power"));
    let def = match &resolved {
        Some(Value::Undef) => Def3::No,
        Some(_) => Def3::Yes,
        None => {
            if r >= 0 {
                c.def
            } else {
                match c.def {
                    Def3::No => Def3::No,
                    Def3::Yes => match c.ival.scalar() {
                        Some((lo, hi)) if lo > 0.0 || hi < 0.0 => Def3::Yes,
                        _ => Def3::Maybe,
                    },
                    Def3::Maybe => Def3::Maybe,
                }
            }
        }
    };
    NumState {
        def,
        ival: c.ival.powi(r),
        resolved,
        n_unres: 0,
        n_def_yes: 0,
        n_def_no: 0,
    }
}

fn dist_state(a: &NumState, b: &NumState) -> NumState {
    let def = a.def.and(b.def);
    let resolved =
        if matches!(a.resolved, Some(Value::Undef)) || matches!(b.resolved, Some(Value::Undef)) {
            Some(Value::Undef)
        } else if let (Some(va), Some(vb)) = (&a.resolved, &b.resolved) {
            Some(va.dist(vb).expect("well-typed distance"))
        } else {
            None
        };
    NumState {
        def,
        ival: a.ival.dist(&b.ival),
        resolved,
        n_unres: 0,
        n_def_yes: 0,
        n_def_no: 0,
    }
}

fn sum_def(n_yes: u32, n_no: u32, len: u32) -> Def3 {
    if n_yes >= 1 {
        Def3::Yes
    } else if n_no == len {
        Def3::No
    } else {
        Def3::Maybe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::{CVal, Event};
    use enframe_core::{CmpOp, Program, Valuation};
    use std::rc::Rc;

    /// Checks that applying a full assignment via masks resolves every
    /// target to the same value as direct evaluation, for all worlds.
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
            let want = net.eval(&nu).unwrap();
            for (k, &t) in net.targets.iter().enumerate() {
                let got = masks.bool_mask(t);
                let expect = if want[k] {
                    BoolMask::True
                } else {
                    BoolMask::False
                };
                assert_eq!(got, expect, "world {code:b}, target {k}");
            }
            masks.rollback(mark);
        }
    }

    #[test]
    fn propositional_masking_matches_eval() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let z = p.fresh_var();
        let e = p.declare_event(
            "E",
            Program::or([
                Program::and([Program::var(x), Program::nvar(y)]),
                Program::var(z),
            ]),
        );
        p.add_target(e);
        check_full_assignments(&p);
    }

    #[test]
    fn atom_masking_matches_eval() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        // A ≡ [x⊗1 + y⊗2 >= 2]
        let sum = Rc::new(CVal::Sum(vec![
            CVal::cond(Program::var(x), Value::Num(1.0)),
            CVal::cond(Program::var(y), Value::Num(2.0)),
        ]));
        let a = p.declare_event("A", Rc::new(Event::Atom(CmpOp::Ge, sum, CVal::num(2.0))));
        p.add_target(a);
        check_full_assignments(&p);
    }

    #[test]
    fn early_resolution_from_intervals() {
        // S = x⊗1 + 5; atom [S >= 4] resolves TRUE without assigning x:
        // contribution of x⊗1 is [0,1], so S ∈ [5,6] ≥ 4.
        let mut p = Program::new();
        let x = p.fresh_var();
        let s = Rc::new(CVal::Sum(vec![
            CVal::cond(Program::var(x), Value::Num(1.0)),
            CVal::num(5.0),
        ]));
        let a = p.declare_event("A", Rc::new(Event::Atom(CmpOp::Ge, s, CVal::num(4.0))));
        p.add_target(a);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let masks = Masks::new(&net);
        assert_eq!(masks.bool_mask(net.targets[0]), BoolMask::True);
        assert_eq!(masks.unresolved_targets(), 0);
    }

    #[test]
    fn undefined_comparison_resolves_true() {
        // A ≡ [⊥⊗1 <= x⊗0]: left side certainly undefined ⇒ true at init.
        let mut p = Program::new();
        let x = p.fresh_var();
        let a = p.declare_event(
            "A",
            Rc::new(Event::Atom(
                CmpOp::Le,
                Rc::new(CVal::Const(Value::Undef)),
                CVal::cond(Program::var(x), Value::Num(0.0)),
            )),
        );
        p.add_target(a);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let masks = Masks::new(&net);
        assert_eq!(masks.bool_mask(net.targets[0]), BoolMask::True);
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
        assert_eq!(masks.bool_mask(net.targets[0]), BoolMask::Unknown);
        let mut hits = Vec::new();
        masks.assign(Var(0), false, &mut |id, v| hits.push((id, v)));
        assert_eq!(masks.bool_mask(net.targets[0]), BoolMask::True);
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
        assert_eq!(masks.bool_mask(net.targets[0]), BoolMask::True);
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
        let mut p = Program::new();
        let x = p.fresh_var();
        // S = x⊗1 + x⊗2 + dist(x⊗3, ⊤⊗0); assigning x changes all three
        // summands (and the dist's child) in one wave.
        let s = Rc::new(CVal::Sum(vec![
            CVal::cond(Program::var(x), Value::Num(1.0)),
            CVal::cond(Program::var(x), Value::Num(2.0)),
            Rc::new(CVal::Dist(
                CVal::cond(Program::var(x), Value::Num(3.0)),
                CVal::num(0.0),
            )),
        ]));
        let a = p.declare_event("A", Rc::new(Event::Atom(CmpOp::Ge, s, CVal::num(6.0))));
        p.add_target(a);
        check_full_assignments(&p);
    }

    /// Exhaustive mask-vs-eval agreement on a k-medoids-shaped program
    /// (sum/dist/compare over conditional points).
    #[test]
    fn kmedoids_shaped_masking_matches_eval() {
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let o0 = CVal::cond(Program::var(x0), Value::point(&[0.0, 0.0]));
        let o1 = CVal::cond(Program::var(x1), Value::point(&[3.0, 4.0]));
        let o2 = CVal::point(&[6.0, 8.0]);
        let d01 = Rc::new(CVal::Dist(o0.clone(), o1.clone()));
        let d02 = Rc::new(CVal::Dist(o0.clone(), o2.clone()));
        let a = p.declare_event("A", Rc::new(Event::Atom(CmpOp::Le, d01, d02)));
        let s = Rc::new(CVal::Sum(vec![
            Rc::new(CVal::Guard(Program::eref(a), Rc::new(CVal::Dist(o1, o2)))),
            CVal::num(1.0),
        ]));
        let b = p.declare_event("B", Rc::new(Event::Atom(CmpOp::Lt, s, CVal::num(5.0))));
        p.add_target(a);
        p.add_target(b);
        check_full_assignments(&p);
    }
}
