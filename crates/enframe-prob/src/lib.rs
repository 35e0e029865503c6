//! # enframe-prob — probability computation for event programs
//!
//! The most expensive task supported by ENFrame: computing the
//! probabilities of a large number of interconnected events, which is
//! #P-hard in general (paper §4). Three complementary techniques are
//! implemented, mirroring the paper:
//!
//! 1. **Bulk compilation** ([`compile()`]): all compilation targets are
//!    compiled in one depth-first exploration of the decision tree induced
//!    by Shannon expansion on the input variables (Algorithm 1). Partial
//!    variable assignments are *masked* into the event network
//!    (Algorithm 2, [`Masks`]) instead of materialising the restricted
//!    events `Φ|x`, and a trail-based undo makes backtracking cheap.
//!    Per-target probability bounds `[L, U]` tighten as branches resolve;
//!    upon full exploration they converge to the exact probabilities.
//!    Each decision branches on the unassigned variable that influences
//!    the most unresolved events (§4.1), ties going to the network's one
//!    static ranking, [`Network::var_order`](enframe_network::Network::var_order).
//! 2. **Anytime absolute ε-approximation** ([`compile()`] with
//!    [`Strategy::Eager`]/[`Strategy::Lazy`]/[`Strategy::Hybrid`]): an
//!    error budget of `2ε` per target is spent on pruning subtrees whose
//!    probability mass fits in the remaining budget; the three strategies
//!    differ in how the budget is split between the left and right Shannon
//!    branches (§4.3). The guarantee `U − L ≤ 2ε` holds on termination.
//! 3. **Distributed compilation** ([`distr`]): the decision tree is split
//!    into jobs of bounded depth `d`, explored concurrently by a pool of
//!    workers that fork boundary nodes as new jobs and account every
//!    branch straight into the shared bounds (§4.4). This is the one
//!    search: sequential [`compile()`] runs it as a single job on the
//!    calling thread.
//!
//! All three run over the unrolled event network: the §4.2 folded loop
//! encoding and its convergence check are not reproduced (see the
//! README).
//!
//! **Sensitivity analysis** ([`sensitivity()`], §1) builds on the same
//! engine: exact per-variable derivatives of every target probability
//! (multilinearity), influence ranking for explanation, and exact what-if
//! perturbation without recompilation.

pub mod bounds;
pub mod compile;
pub mod distr;
#[cfg(test)]
#[path = "../../enframe-network/src/fixtures.rs"]
mod fixtures;
pub mod masks;
pub mod sensitivity;

pub use compile::{
    compile, compile_scoped, degrade_to_bounds, CompileResult, Options, Stats, Strategy,
};
pub use distr::{compile_distributed, DistOptions};
pub use masks::Masks;
pub use sensitivity::{sensitivity, Influence, Sensitivity};
