//! Nodes of an event network.

use enframe_core::{CmpOp, Value, Var};

/// Dense node identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The operator of a network node.
///
/// Boolean-valued: `Var`, `ConstBool`, `Not`, `And`, `Or`, `Cmp`.
/// Numeric-valued (c-values): the rest.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// An input Boolean random variable (leaf).
    Var(Var),
    /// Boolean constant leaf.
    ConstBool(bool),
    /// Negation (1 Boolean child).
    Not,
    /// N-ary conjunction.
    And,
    /// N-ary disjunction.
    Or,
    /// Comparison atom between two numeric children.
    Cmp(CmpOp),
    /// Constant c-value leaf; payload in [`Node::value`].
    ConstVal,
    /// `Φ ⊗ v`: child 0 is the guard, payload in [`Node::value`].
    Cond,
    /// `Φ ∧ c`: child 0 is the guard (Boolean), child 1 the c-value.
    Guard,
    /// N-ary sum of c-values (`Σ`); undefined summands act as identity.
    Sum,
    /// N-ary product of c-values (`Π`); undefined factors absorb.
    Prod,
    /// Multiplicative inverse (1 child).
    Inv,
    /// Integer power (1 child).
    Pow(i32),
    /// Distance between two c-values.
    Dist,
}

impl NodeKind {
    /// Whether nodes of this kind are Boolean-valued.
    pub fn is_bool(&self) -> bool {
        matches!(
            self,
            NodeKind::Var(_)
                | NodeKind::ConstBool(_)
                | NodeKind::Not
                | NodeKind::And
                | NodeKind::Or
                | NodeKind::Cmp(_)
        )
    }

    /// Short operator label for display/DOT.
    pub fn label(&self) -> String {
        match self {
            NodeKind::Var(v) => format!("x{}", v.0),
            NodeKind::ConstBool(true) => "T".into(),
            NodeKind::ConstBool(false) => "F".into(),
            NodeKind::Not => "!".into(),
            NodeKind::And => "AND".into(),
            NodeKind::Or => "OR".into(),
            NodeKind::Cmp(op) => format!("{op}"),
            NodeKind::ConstVal => "const".into(),
            NodeKind::Cond => "(x)".into(),
            NodeKind::Guard => "/\\".into(),
            NodeKind::Sum => "SUM".into(),
            NodeKind::Prod => "PROD".into(),
            NodeKind::Inv => "inv".into(),
            NodeKind::Pow(r) => format!("pow{r}"),
            NodeKind::Dist => "dist".into(),
        }
    }
}

/// A node: operator, children, parents (filled by the builder), and an
/// optional constant payload (for `ConstVal`/`Cond`).
#[derive(Debug, Clone)]
pub struct Node {
    /// Operator.
    pub kind: NodeKind,
    /// Children in argument order.
    pub children: Vec<NodeId>,
    /// Parents (every node that lists this node among its children).
    pub parents: Vec<NodeId>,
    /// Constant payload for `ConstVal` and `Cond`.
    pub value: Option<Value>,
}

impl Node {
    /// Whether this node is Boolean-valued.
    pub fn is_bool(&self) -> bool {
        self.kind.is_bool()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_classification() {
        assert!(NodeKind::Var(Var(0)).is_bool());
        assert!(NodeKind::Cmp(CmpOp::Le).is_bool());
        assert!(!NodeKind::Sum.is_bool());
        assert!(!NodeKind::Cond.is_bool());
    }

    #[test]
    fn labels() {
        assert_eq!(NodeKind::Var(Var(3)).label(), "x3");
        assert_eq!(NodeKind::Pow(2).label(), "pow2");
        assert_eq!(NodeKind::Cmp(CmpOp::Le).label(), "<=");
    }
}
