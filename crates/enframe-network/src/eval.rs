//! The §3.2 valuation rule of one network node, stated once.
//!
//! A comparison with `u` is true, an undefined summand is the additive
//! identity, an undefined factor absorbs the product, and a false guard
//! yields `u`: [`eval_node`] is that rule per [`NodeKind`], over a
//! three-valued domain ([`Partial`]): a node is decided as soon as its
//! children force it, and stays [`Partial::Unknown`] otherwise. Every
//! network evaluator runs this one function:
//!
//! * [`Network::eval`] at a complete valuation, where no node stays
//!   `Unknown`;
//! * the d-DNNF compiler's incremental evaluator (`enframe-obdd`'s
//!   `peval`), one flipped node at a time;
//! * the decision tree's masks (`enframe-prob`'s `Masks`), which add an
//!   interval overlay only where this rule returns `Unknown`.
//!
//! The rule is monotone: extending the assignment never changes a decided
//! node, so incremental callers re-evaluate only undecided nodes.

use crate::build::Network;
use crate::node::{Node, NodeId, NodeKind};
use enframe_core::{CoreError, Valuation, Value, Var};

/// A node's value under a partial assignment of the input variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Partial {
    /// Boolean node with a forced truth value.
    B(bool),
    /// Numeric node with a forced value (possibly `u`).
    V(Value),
    /// Not yet determined by the partial assignment.
    Unknown,
}

/// One node's value from its children's values (`child`) and, for a
/// variable leaf, the assignment (`var`). An ill-typed operation is an
/// error.
pub fn eval_node<'a>(
    node: &Node,
    child: impl Fn(NodeId) -> &'a Partial,
    var: impl FnOnce(Var) -> Option<bool>,
) -> Result<Partial, CoreError> {
    let kid = |i: usize| child(node.children[i]);
    let payload = || node.value.clone().expect("ConstVal/Cond payload");
    Ok(match &node.kind {
        NodeKind::Var(v) => var(*v).map_or(Partial::Unknown, Partial::B),
        NodeKind::ConstBool(b) => Partial::B(*b),
        NodeKind::Not => match kid(0) {
            Partial::B(b) => Partial::B(!b),
            _ => Partial::Unknown,
        },
        NodeKind::And => gate(node, &child, false),
        NodeKind::Or => gate(node, &child, true),
        // An undefined side makes any comparison true, even when the
        // other side is still unknown.
        NodeKind::Cmp(op) => match (kid(0), kid(1)) {
            (Partial::V(Value::Undef), _) | (_, Partial::V(Value::Undef)) => Partial::B(true),
            (Partial::V(a), Partial::V(b)) => Partial::B(a.compare(*op, b)?),
            _ => Partial::Unknown,
        },
        NodeKind::ConstVal => Partial::V(payload()),
        NodeKind::Cond => match kid(0) {
            Partial::B(true) => Partial::V(payload()),
            Partial::B(false) => Partial::V(Value::Undef),
            _ => Partial::Unknown,
        },
        // Both outcomes are `u` once the payload is `u`.
        NodeKind::Guard => match (kid(0), kid(1)) {
            (_, Partial::V(Value::Undef)) | (Partial::B(false), _) => Partial::V(Value::Undef),
            (Partial::B(true), Partial::V(v)) => Partial::V(v.clone()),
            _ => Partial::Unknown,
        },
        NodeKind::Sum => fold(node, &child, Value::Undef, Value::add)?,
        // One known-`u` factor resolves the product early.
        NodeKind::Prod
            if node
                .children
                .iter()
                .any(|&c| matches!(child(c), Partial::V(Value::Undef))) =>
        {
            Partial::V(Value::Undef)
        }
        NodeKind::Prod => fold(node, &child, Value::Num(1.0), Value::mul)?,
        NodeKind::Inv => match kid(0) {
            Partial::V(v) => Partial::V(v.inv()?),
            _ => Partial::Unknown,
        },
        NodeKind::Pow(r) => match kid(0) {
            Partial::V(v) => Partial::V(v.pow(*r)?),
            _ => Partial::Unknown,
        },
        NodeKind::Dist => match (kid(0), kid(1)) {
            (Partial::V(Value::Undef), _) | (_, Partial::V(Value::Undef)) => {
                Partial::V(Value::Undef)
            }
            (Partial::V(a), Partial::V(b)) => Partial::V(a.dist(b)?),
            _ => Partial::Unknown,
        },
    })
}

/// `And` (`absorbing` = false) or `Or` (`absorbing` = true): decided by
/// the first absorbing child, or by all children agreeing on the unit.
fn gate<'a>(node: &Node, child: &impl Fn(NodeId) -> &'a Partial, absorbing: bool) -> Partial {
    let mut out = Partial::B(!absorbing);
    for &c in &node.children {
        match child(c) {
            Partial::B(b) if *b == absorbing => return Partial::B(absorbing),
            Partial::B(_) => {}
            _ => out = Partial::Unknown,
        }
    }
    out
}

/// The left fold of `op` over the children from `init`, once every child
/// is decided — the order the reference evaluator folds in, so decided
/// sums and products agree with it bit for bit.
fn fold<'a>(
    node: &Node,
    child: &impl Fn(NodeId) -> &'a Partial,
    init: Value,
    op: fn(&Value, &Value) -> Result<Value, CoreError>,
) -> Result<Partial, CoreError> {
    let mut acc = init;
    for &c in &node.children {
        let Partial::V(v) = child(c) else {
            return Ok(Partial::Unknown);
        };
        acc = op(&acc, v)?;
    }
    Ok(Partial::V(acc))
}

impl Network {
    /// Every node's value under a partial assignment, bottom-up from
    /// scratch: [`eval_node`] in topological (id) order.
    pub fn eval_all(&self, var: impl Fn(Var) -> Option<bool>) -> Result<Vec<Partial>, CoreError> {
        let mut out: Vec<Partial> = Vec::with_capacity(self.len());
        for i in 0..self.len() {
            let node = self.node(NodeId(i as u32));
            let value = eval_node(node, |c| &out[c.index()], &var)?;
            out.push(value);
        }
        Ok(out)
    }

    /// The targets' truth values under a complete valuation.
    pub fn eval(&self, nu: &Valuation) -> Result<Vec<bool>, CoreError> {
        let all = self.eval_all(|v| Some(nu.get(v)))?;
        Ok(self
            .targets
            .iter()
            .map(|&t| match all[t.index()] {
                Partial::B(b) => b,
                _ => unreachable!("a complete valuation decides every Boolean node"),
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures;

    /// At every complete valuation the rule decides every target as the
    /// reference evaluator on the grounded program does.
    #[test]
    fn complete_valuations_match_the_reference() {
        for seed in 0..16 {
            for p in fixtures::programs(seed) {
                let g = p.ground().unwrap();
                let net = Network::build(&g).unwrap();
                let n = g.n_vars as usize;
                for code in 0..1u64 << n {
                    let nu = Valuation::from_code(n, code);
                    let want: Vec<bool> = g
                        .targets
                        .iter()
                        .map(|&t| g.eval_bool(t, &nu).unwrap())
                        .collect();
                    assert_eq!(net.eval(&nu).unwrap(), want, "seed {seed}, world {code:b}");
                }
            }
        }
    }

    /// The rule is monotone: a node decided under a partial assignment
    /// keeps its value in every completion of it.
    #[test]
    fn decided_nodes_keep_their_value_in_every_completion() {
        for seed in 0..16 {
            let mut rng = fixtures::Rng::new(seed);
            for p in fixtures::programs(seed) {
                let net = Network::build(&p.ground().unwrap()).unwrap();
                let assignment = fixtures::partial_assignment(net.n_vars, &mut rng);
                let lookup = |v: Var| assignment.iter().find(|a| a.0 == v).map(|a| a.1);
                let partial = net.eval_all(lookup).unwrap();
                for _ in 0..8 {
                    let fill: Vec<bool> = (0..net.n_vars).map(|_| rng.below(2) == 0).collect();
                    let full = net
                        .eval_all(|v| Some(lookup(v).unwrap_or(fill[v.index()])))
                        .unwrap();
                    for (i, p) in partial.iter().enumerate() {
                        if *p != Partial::Unknown {
                            assert_eq!(p, &full[i], "seed {seed}, node {i}");
                        }
                    }
                }
            }
        }
    }
}
