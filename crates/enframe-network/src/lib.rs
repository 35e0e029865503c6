//! # enframe-network — event networks
//!
//! "The event programs consist of interconnected events, which are
//! represented in an *event network*: a graph representation of the event
//! programs, in which nodes are, e.g., Boolean connectives, comparisons,
//! aggregates, and c-values" (paper §4.1).
//!
//! [`Network::build`] converts a grounded event program into a hash-consed
//! DAG: structurally identical subexpressions are stored **once**
//! ("expressions common to several events are only represented once"),
//! parent links are materialised for bottom-up mask propagation, and the
//! compilation targets are registered. Comparisons whose two operands are
//! the same node fold to constants where the §3.2 semantics allows.
//!
//! A bounded loop is stored unrolled, one copy of its body per iteration.
//! The paper's §4.2 *folded* encoding (body stored once, masks carried
//! across iterations) is not reproduced: an implementation of it was
//! measured slower than the unrolled network and expanded to more mask
//! slots than the unrolled network has nodes (see the README).
//!
//! The module also offers:
//! * the §3.2 rule of one node ([`eval::eval_node`]), the one statement of
//!   the node semantics that every evaluator of a network runs: direct
//!   evaluation under a complete valuation ([`Network::eval`], validated
//!   against the reference evaluator of `enframe-core`), the d-DNNF
//!   compiler's incremental evaluator and the decision tree's masks;
//! * structural statistics ([`Network::stats`]) for the memory/size
//!   observations of §5;
//! * Graphviz export ([`dot::to_dot`]) mirroring the paper's Figure 5.

pub mod build;
pub mod dot;
pub mod eval;
#[cfg(test)]
mod fixtures;
pub mod node;

pub use build::Network;
pub use eval::{eval_node, Partial};
pub use node::{Node, NodeId, NodeKind};
