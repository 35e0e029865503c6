//! Building hash-consed event networks from grounded event programs.

use crate::node::{Node, NodeId, NodeKind};
use enframe_core::fxhash::{FxHashMap, FxHasher};
use enframe_core::{CVal, CmpOp, CoreError, Def, Event, GroundProgram, Value, Var};
use std::hash::{Hash, Hasher};
use std::rc::Rc;

/// The node arena of a network under construction, hash-consed against
/// itself: the index maps a hash of `(kind, children, payload bits)` to a
/// node id and equality is checked against `nodes[id]`, so interning
/// stores no second copy of a node's children or constant. Colliding
/// hashes probe linearly in key space (entries are never removed).
struct NodeTable {
    nodes: Vec<Node>,
    index: FxHashMap<u64, NodeId>,
}

/// Hashes a node's content; payloads by bit pattern, as [`Value`]'s
/// equality compares them.
fn content_hash(kind: &NodeKind, children: &[NodeId], value: Option<&Value>) -> u64 {
    let mut h = FxHasher::default();
    kind.hash(&mut h);
    children.hash(&mut h);
    match value {
        None => h.write_u8(0),
        Some(Value::Undef) => h.write_u8(1),
        Some(Value::Num(x)) => {
            h.write_u8(2);
            h.write_u64(x.to_bits());
        }
        Some(Value::Point(p)) => {
            h.write_u8(3);
            for x in p.iter() {
                h.write_u64(x.to_bits());
            }
        }
    }
    h.finish()
}

impl NodeTable {
    fn with_capacity(nodes: usize) -> Self {
        NodeTable {
            nodes: Vec::with_capacity(nodes),
            index: FxHashMap::default(),
        }
    }

    /// The id of the node with this content, appended if it is new.
    fn intern(&mut self, kind: NodeKind, children: &[NodeId], value: Option<&Value>) -> NodeId {
        let mut key = content_hash(&kind, children, value);
        while let Some(&id) = self.index.get(&key) {
            let node = &self.nodes[id.index()];
            if node.kind == kind && node.children == children && node.value.as_ref() == value {
                return id;
            }
            key = key.wrapping_add(1);
        }
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind,
            children: children.to_vec(),
            parents: Vec::new(),
            value: value.cloned(),
        });
        self.index.insert(key, id);
        id
    }
}

/// Structural statistics of a network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkStats {
    /// Total nodes.
    pub nodes: usize,
    /// Total child edges.
    pub edges: usize,
    /// Boolean-valued nodes.
    pub bool_nodes: usize,
    /// Numeric-valued nodes.
    pub numeric_nodes: usize,
    /// Input-variable leaves present.
    pub var_nodes: usize,
    /// Largest fan-in.
    pub max_fanin: usize,
    /// Largest fan-out.
    pub max_fanout: usize,
}

/// A hash-consed event network.
#[derive(Debug, Clone)]
pub struct Network {
    nodes: Vec<Node>,
    /// Number of input random variables of the underlying program.
    pub n_vars: u32,
    /// Compilation-target nodes (Boolean), in registration order.
    pub targets: Vec<NodeId>,
    /// Human-readable names of the targets.
    pub target_names: Vec<String>,
    var_nodes: Vec<Option<NodeId>>,
}

struct Builder {
    table: NodeTable,
    /// Children of the n-ary nodes being assembled, innermost last; a node
    /// that turns out to exist already then costs no allocation.
    kids: Vec<NodeId>,
    ev_memo: FxHashMap<*const Event, NodeId>,
    cv_memo: FxHashMap<*const CVal, NodeId>,
    def_nodes: Vec<NodeId>,
    var_nodes: Vec<Option<NodeId>>,
}

impl Network {
    /// Builds the network for a grounded program. All compilation targets
    /// must be Boolean definitions.
    pub fn build(gp: &GroundProgram) -> Result<Network, CoreError> {
        let mut b = Builder {
            table: NodeTable::with_capacity(gp.len() * 2),
            kids: Vec::new(),
            ev_memo: FxHashMap::default(),
            cv_memo: FxHashMap::default(),
            def_nodes: Vec::with_capacity(gp.len()),
            var_nodes: vec![None; gp.n_vars as usize],
        };
        for (_, def) in gp.defs() {
            let id = match def {
                Def::Event(e) => b.event(e),
                Def::CVal(c) => b.cval(c),
            };
            b.def_nodes.push(id);
        }
        let mut targets = Vec::with_capacity(gp.targets.len());
        let mut target_names = Vec::with_capacity(gp.targets.len());
        for &t in &gp.targets {
            let node = b.def_nodes[t.index()];
            if !b.table.nodes[node.index()].is_bool() {
                return Err(CoreError::TypeMismatch {
                    ident: gp.name_of(t),
                    expected: "a Boolean compilation target",
                });
            }
            targets.push(node);
            target_names.push(gp.name_of(t));
        }
        let mut net = Network {
            nodes: b.table.nodes,
            // A term may mention a variable the program never counted.
            n_vars: b.var_nodes.len() as u32,
            targets,
            target_names,
            var_nodes: b.var_nodes,
        };
        net.prune_to_targets();
        net.fill_parents();
        Ok(net)
    }

    /// Drops nodes that no target (transitively) depends on. Declarations
    /// that are never consumed — e.g. final medoid c-values when only
    /// `Centre` events are targeted — would otherwise be masked on every
    /// branch for nothing.
    fn prune_to_targets(&mut self) {
        let n = self.nodes.len();
        let mut live = vec![false; n];
        let mut stack: Vec<NodeId> = self.targets.clone();
        for &t in &stack {
            live[t.index()] = true;
        }
        while let Some(id) = stack.pop() {
            for &c in &self.nodes[id.index()].children {
                if !live[c.index()] {
                    live[c.index()] = true;
                    stack.push(c);
                }
            }
        }
        if live.iter().all(|&l| l) {
            return;
        }
        // Compact in place, preserving (topological) order. Pruned nodes
        // map to the u32::MAX sentinel.
        let mut remap = vec![NodeId(u32::MAX); n];
        let mut kept = 0;
        for i in 0..n {
            if live[i] {
                remap[i] = NodeId(kept as u32);
                self.nodes.swap(kept, i);
                for c in self.nodes[kept].children.iter_mut() {
                    // Children precede parents, so they are remapped already.
                    *c = remap[c.index()];
                }
                kept += 1;
            }
        }
        self.nodes.truncate(kept);
        for t in self.targets.iter_mut() {
            *t = remap[t.index()];
        }
        for slot in self.var_nodes.iter_mut() {
            *slot = slot.map(|v| remap[v.index()]).filter(|v| v.0 != u32::MAX);
        }
    }

    /// Fills every node's parent list, in ascending parent order, from one
    /// counting pass so that each list is allocated once at its final size.
    fn fill_parents(&mut self) {
        let mut fan_out = vec![0u32; self.nodes.len()];
        for node in &self.nodes {
            for &c in &node.children {
                fan_out[c.index()] += 1;
            }
        }
        for (node, n) in self.nodes.iter_mut().zip(fan_out) {
            node.parents = Vec::with_capacity(n as usize);
        }
        for i in 0..self.nodes.len() {
            // Children precede their parents.
            let (before, rest) = self.nodes.split_at_mut(i);
            for &c in &rest[0].children {
                before[c.index()].parents.push(NodeId(i as u32));
            }
        }
    }

    /// The nodes, in topological order (children before parents).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The leaf node of variable `v`, if the variable occurs.
    pub fn var_node(&self, v: Var) -> Option<NodeId> {
        self.var_nodes.get(v.index()).copied().flatten()
    }

    /// The network's one static variable ranking: the variables that
    /// occur in it, by descending parent count, ties in index order.
    ///
    /// "The algorithm chooses a next variable x′ such that it influences
    /// as many events as possible" (paper §4.1). The decision tree breaks
    /// the ties of its per-node choice by this ranking; d-DNNF's decisions
    /// and the OBDD's initial order follow it as is. A better ranking
    /// (ROADMAP item 19) replaces this body.
    pub fn var_order(&self) -> Vec<Var> {
        let mut ranked: Vec<(Var, usize)> = (0..self.n_vars)
            .map(Var)
            .filter_map(|v| Some((v, self.node(self.var_node(v)?).parents.len())))
            .collect();
        // Stable sort: ties keep index order.
        ranked.sort_by_key(|&(_, parents)| std::cmp::Reverse(parents));
        ranked.into_iter().map(|(v, _)| v).collect()
    }

    /// Structural statistics.
    pub fn stats(&self) -> NetworkStats {
        let mut s = NetworkStats {
            nodes: self.nodes.len(),
            ..NetworkStats::default()
        };
        for n in &self.nodes {
            s.edges += n.children.len();
            if n.is_bool() {
                s.bool_nodes += 1;
            } else {
                s.numeric_nodes += 1;
            }
            if matches!(n.kind, NodeKind::Var(_)) {
                s.var_nodes += 1;
            }
            s.max_fanin = s.max_fanin.max(n.children.len());
            s.max_fanout = s.max_fanout.max(n.parents.len());
        }
        s
    }
}

impl Builder {
    /// Interns an n-ary node over the children assembled on `kids` since
    /// `base` (at least one; a single child stands for itself) and pops
    /// them.
    fn intern_kids(&mut self, kind: NodeKind, base: usize) -> NodeId {
        let id = match &self.kids[base..] {
            [only] => *only,
            kids => self.table.intern(kind, kids, None),
        };
        self.kids.truncate(base);
        id
    }

    fn const_bool(&mut self, b: bool) -> NodeId {
        self.table.intern(NodeKind::ConstBool(b), &[], None)
    }

    fn const_val(&mut self, v: &Value) -> NodeId {
        self.table.intern(NodeKind::ConstVal, &[], Some(v))
    }

    fn is_const(&self, id: NodeId) -> Option<bool> {
        match self.table.nodes[id.index()].kind {
            NodeKind::ConstBool(b) => Some(b),
            _ => None,
        }
    }

    /// `And` (`unit` = true) or `Or` (`unit` = false) over `parts`: the
    /// unit is dropped, its complement absorbs.
    fn connective(&mut self, kind: NodeKind, unit: bool, parts: &[Rc<Event>]) -> NodeId {
        let base = self.kids.len();
        for p in parts {
            let c = self.event(p);
            match self.is_const(c) {
                Some(b) if b == unit => {}
                Some(_) => {
                    self.kids.truncate(base);
                    return c;
                }
                None => self.kids.push(c),
            }
        }
        if self.kids.len() == base {
            return self.const_bool(unit);
        }
        self.intern_kids(kind, base)
    }

    fn event(&mut self, e: &Rc<Event>) -> NodeId {
        // A term with one owner is reached once; only shared terms can be
        // met again.
        let shared = Rc::strong_count(e) > 1;
        if shared {
            if let Some(&id) = self.ev_memo.get(&Rc::as_ptr(e)) {
                return id;
            }
        }
        let id = match &**e {
            Event::Tru => self.const_bool(true),
            Event::Fls => self.const_bool(false),
            Event::Var(v) => {
                let id = self.table.intern(NodeKind::Var(*v), &[], None);
                if v.index() >= self.var_nodes.len() {
                    self.var_nodes.resize(v.index() + 1, None);
                }
                self.var_nodes[v.index()] = Some(id);
                id
            }
            Event::Not(inner) => {
                let c = self.event(inner);
                match self.is_const(c) {
                    Some(b) => self.const_bool(!b),
                    None => self.table.intern(NodeKind::Not, &[c], None),
                }
            }
            Event::And(parts) => self.connective(NodeKind::And, true, parts),
            Event::Or(parts) => self.connective(NodeKind::Or, false, parts),
            Event::Atom(op, a, b) => {
                let ca = self.cval(a);
                let cb = self.cval(b);
                // [c θ c] with θ ∈ {≤, ≥, =} is vacuously true: equal when
                // defined, true when undefined.
                if ca == cb && matches!(op, CmpOp::Le | CmpOp::Ge | CmpOp::Eq) {
                    self.const_bool(true)
                } else {
                    self.table.intern(NodeKind::Cmp(*op), &[ca, cb], None)
                }
            }
            Event::Ref(d) => self.def_nodes[d.index()],
        };
        if shared {
            self.ev_memo.insert(Rc::as_ptr(e), id);
        }
        id
    }

    /// `Sum` or `Prod` over `parts`; `empty` is the value of no parts.
    fn aggregate(&mut self, kind: NodeKind, empty: Value, parts: &[Rc<CVal>]) -> NodeId {
        if parts.is_empty() {
            return self.const_val(&empty);
        }
        let base = self.kids.len();
        for p in parts {
            let c = self.cval(p);
            self.kids.push(c);
        }
        self.intern_kids(kind, base)
    }

    fn cval(&mut self, c: &Rc<CVal>) -> NodeId {
        let shared = Rc::strong_count(c) > 1;
        if shared {
            if let Some(&id) = self.cv_memo.get(&Rc::as_ptr(c)) {
                return id;
            }
        }
        let id = match &**c {
            CVal::Const(v) => self.const_val(v),
            CVal::Cond(e, v) => {
                let g = self.event(e);
                match self.is_const(g) {
                    Some(true) => self.const_val(v),
                    Some(false) => self.const_val(&Value::Undef),
                    None => self.table.intern(NodeKind::Cond, &[g], Some(v)),
                }
            }
            CVal::Guard(e, inner) => {
                let g = self.event(e);
                let ci = self.cval(inner);
                match self.is_const(g) {
                    Some(true) => ci,
                    Some(false) => self.const_val(&Value::Undef),
                    None => self.table.intern(NodeKind::Guard, &[g, ci], None),
                }
            }
            CVal::Sum(parts) => self.aggregate(NodeKind::Sum, Value::Undef, parts),
            CVal::Prod(parts) => self.aggregate(NodeKind::Prod, Value::Num(1.0), parts),
            CVal::Inv(inner) => {
                let ci = self.cval(inner);
                self.table.intern(NodeKind::Inv, &[ci], None)
            }
            CVal::Pow(inner, r) => {
                let ci = self.cval(inner);
                self.table.intern(NodeKind::Pow(*r), &[ci], None)
            }
            CVal::Dist(a, b) => {
                let ca = self.cval(a);
                let cb = self.cval(b);
                self.table.intern(NodeKind::Dist, &[ca, cb], None)
            }
            CVal::Ref(d) => self.def_nodes[d.index()],
        };
        if shared {
            self.cv_memo.insert(Rc::as_ptr(c), id);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::{space, Program, Valuation, VarTable};
    use enframe_core::{CVal, Event};
    use std::rc::Rc;

    /// Example 1 lineage with a couple of derived events.
    fn example_program() -> Program {
        let mut p = Program::new();
        let x1 = p.fresh_var();
        let x2 = p.fresh_var();
        let x3 = p.fresh_var();
        let x4 = p.fresh_var();
        let o0 = p.declare_event("Phi0", Program::or([Program::var(x1), Program::var(x3)]));
        let o1 = p.declare_event("Phi1", Program::var(x2));
        let o2 = p.declare_event("Phi2", Program::var(x3));
        let _o3 = p.declare_event("Phi3", Program::and([Program::nvar(x2), Program::var(x4)]));
        let both = p.declare_event(
            "Both12",
            Program::and([Program::eref(o1), Program::eref(o2)]),
        );
        // A shared subexpression: Phi0 ∨ Phi1 used twice.
        let shared = Program::or([Program::eref(o0), Program::eref(o1)]);
        let d1 = p.declare_event("D1", shared.clone());
        let d2 = p.declare_event("D2", Program::and([shared, Program::eref(o2)]));
        p.add_target(both);
        p.add_target(d1);
        p.add_target(d2);
        p
    }

    #[test]
    fn build_and_eval_matches_reference() {
        let p = example_program();
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        for code in 0..16u64 {
            let nu = Valuation::from_code(4, code);
            let net_vals = net.eval(&nu).unwrap();
            for (k, &t) in g.targets.iter().enumerate() {
                let want = g.eval_bool(t, &nu).unwrap();
                assert_eq!(net_vals[k], want, "target {k} world {code:04b}");
            }
        }
    }

    #[test]
    fn hash_consing_dedupes_shared_subexpressions() {
        let p = example_program();
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        // The Or(Phi0, Phi1) subterm of D1 and D2 must be a single node:
        // node count stays small.
        let or_nodes = net
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Or))
            .count();
        // Phi0 (x1∨x3) and the shared (Phi0∨Phi1): exactly two Or nodes.
        assert_eq!(or_nodes, 2);
    }

    #[test]
    fn identical_literal_nodes_are_shared() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let a = p.declare_event("A", Program::and([Program::var(x), Program::var(x)]));
        p.add_target(a);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        // And with duplicate children of one shared Var node.
        let var_nodes = net
            .nodes()
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::Var(_)))
            .count();
        assert_eq!(var_nodes, 1);
    }

    #[test]
    fn constant_folding_of_guards() {
        let mut p = Program::new();
        let _x = p.fresh_var();
        p.declare_cval(
            "C",
            Rc::new(CVal::Guard(Rc::new(Event::Tru), CVal::num(3.0))),
        );
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        // Guard(true, 3.0) folds to the constant.
        assert!(net
            .nodes()
            .iter()
            .all(|n| !matches!(n.kind, NodeKind::Guard)));
    }

    #[test]
    fn self_comparison_folds_true() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let c = CVal::cond(Program::var(x), Value::Num(1.0));
        let a = p.declare_event("A", Rc::new(Event::Atom(CmpOp::Le, c.clone(), c)));
        p.add_target(a);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let t = net.targets[0];
        assert!(matches!(net.node(t).kind, NodeKind::ConstBool(true)));
    }

    #[test]
    fn parents_are_consistent() {
        let p = example_program();
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        for (i, n) in net.nodes().iter().enumerate() {
            for &c in &n.children {
                assert!(
                    net.node(c).parents.contains(&NodeId(i as u32)),
                    "child {c:?} missing parent {i}"
                );
            }
            for &pa in &n.parents {
                assert!(
                    net.node(pa).children.contains(&NodeId(i as u32)),
                    "parent {pa:?} missing child {i}"
                );
            }
        }
    }

    #[test]
    fn topological_order_children_first() {
        let p = example_program();
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        for (i, n) in net.nodes().iter().enumerate() {
            for &c in &n.children {
                assert!(c.index() < i, "child {c:?} not before parent {i}");
            }
        }
    }

    /// The ranking of a network over four variables with one target per
    /// event.
    fn var_order_of(events: Vec<Rc<Event>>) -> Vec<Var> {
        let mut p = Program::new();
        p.ensure_vars(4);
        for (i, e) in events.into_iter().enumerate() {
            let t = p.declare_event_at("T", &[i as i64], e);
            p.add_target(t);
        }
        Network::build(&p.ground().unwrap()).unwrap().var_order()
    }

    #[test]
    fn var_occurrences_counts_parents() {
        // A variable's occurrences are the parents of its leaf; the
        // ranking orders the variables by them.
        let net = Network::build(&example_program().ground().unwrap()).unwrap();
        let parents = |v: Var| net.node(net.var_node(v).unwrap()).parents.len();
        // x2 is Phi1, which feeds Both12 and the shared Phi0 ∨ Phi1.
        assert!(parents(Var(1)) >= 2);
        // x4 occurs only in Phi3, which no target reaches.
        assert_eq!(net.var_node(Var(3)), None);
        let order = net.var_order();
        assert_eq!(order.len(), 3);
        assert!(order.windows(2).all(|w| parents(w[0]) >= parents(w[1])));
    }

    #[test]
    fn var_order_excludes_unused_variables() {
        assert_eq!(var_order_of(vec![Program::nvar(Var(2))]), vec![Var(2)]);
    }

    #[test]
    fn var_order_puts_busy_variables_first() {
        // x1 occurs in three events, x0 in one.
        let (x0, x1) = (Program::var(Var(0)), Program::var(Var(1)));
        let both = Program::and([x0, x1.clone()]);
        let either = Program::or([x1, Program::nvar(Var(1))]);
        assert_eq!(var_order_of(vec![both, either]), vec![Var(1), Var(0)]);
    }

    #[test]
    fn var_order_breaks_ties_in_index_order() {
        let events = vec![Program::var(Var(3)), Program::nvar(Var(1))];
        assert_eq!(var_order_of(events), vec![Var(1), Var(3)]);
    }

    #[test]
    fn cval_targets_rejected() {
        let mut p = Program::new();
        let _ = p.fresh_var();
        let c = p.declare_cval("C", CVal::num(1.0));
        // `Program::add_target` takes events only; a grounded program's
        // targets are open, so the builder checks them too.
        let mut g = p.ground().unwrap();
        g.targets.push(c.def());
        assert!(Network::build(&g).is_err());
    }

    #[test]
    fn n_vars_covers_uncounted_variables() {
        // The program counts no variable, yet its term mentions x3.
        let mut p = Program::new();
        let e = p.declare_event("E", Program::var(Var(3)));
        p.add_target(e);
        let g = p.ground().unwrap();
        assert_eq!(g.n_vars, 0);
        let net = Network::build(&g).unwrap();
        assert_eq!(net.n_vars, 4);
        assert_eq!(net.var_node(Var(3)), Some(net.targets[0]));
        assert_eq!(net.var_order(), vec![Var(3)]);
        // A program that counts more variables than it mentions keeps its count.
        let mut p = Program::new();
        p.ensure_vars(6);
        let e = p.declare_event("E", Program::var(Var(3)));
        p.add_target(e);
        assert_eq!(Network::build(&p.ground().unwrap()).unwrap().n_vars, 6);
    }

    #[test]
    fn stats_reflect_structure() {
        let p = example_program();
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let s = net.stats();
        assert_eq!(s.nodes, net.len());
        assert!(s.edges > 0);
        // Phi3 (over x4) feeds no target and is pruned with its variable.
        assert_eq!(s.var_nodes, 3);
        assert_eq!(s.bool_nodes, s.nodes - s.numeric_nodes);
    }

    #[test]
    fn probability_via_enumeration_of_network() {
        // Cross-check: probability computed by enumerating network evals
        // equals the core brute-force probability.
        let p = example_program();
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::new(vec![0.3, 0.5, 0.7, 0.9]);
        let want = space::target_probabilities(&g, &vt);
        let mut got = vec![0.0; net.targets.len()];
        for (nu, pr) in space::worlds(&vt) {
            let vals = net.eval(&nu).unwrap();
            for (k, v) in vals.iter().enumerate() {
                if *v {
                    got[k] += pr;
                }
            }
        }
        for (a, b) in got.iter().zip(&want) {
            assert!((a - b).abs() < 1e-12);
        }
    }
}
