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
//! * direct evaluation of the network under a complete valuation
//!   ([`Network::eval`]) — used to validate the builder against the
//!   reference evaluator of `enframe-core`;
//! * structural statistics ([`Network::stats`]) for the memory/size
//!   observations of §5;
//! * Graphviz export ([`dot::to_dot`]) mirroring the paper's Figure 5.

pub mod build;
pub mod dot;
pub mod node;

pub use build::Network;
pub use node::{Node, NodeId, NodeKind};
