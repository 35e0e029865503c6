//! Weighted model counting over d-DNNF — one sequential sweep.
//!
//! This is the payoff of the two structural invariants the compiler
//! maintains: children of an `And` mention **disjoint** variable sets,
//! so their probabilities multiply; children of an `Or` are **logically
//! inconsistent**, so their probabilities add; and variables a child
//! never mentions marginalise out automatically because `p + (1−p) = 1`
//! (no smoothing pass is needed for probability computation). Nodes are
//! stored in creation order with children preceding parents, so the
//! whole union DAG is counted in **one forward sweep** — no recursion,
//! no state kept between calls, just an array of per-node
//! probabilities.
//!
//! ## Determinism
//!
//! Floating-point reduction is order-sensitive for three or more
//! operands, and child *handle* order is a manager-numbering artefact
//! (merging per-worker managers renumbers handles). The sweep therefore
//! reduces each node's child probabilities in a **canonical order** —
//! sorted by [`f64::total_cmp`] — so a sentence's probability depends
//! only on its *abstract* structure, not on handle numbering: a
//! parallel target fan-out, whose merged manager numbers nodes
//! differently than a sequential compile, still yields
//! bitwise-identical probabilities.

use super::{DnnfManager, DnnfNode};
use crate::ObddError;
use enframe_core::budget::BudgetScope;
use enframe_core::VarTable;

/// Stride between budget checkpoints in the sweep: WMC is a
/// cheap linear pass, so checking every node would cost more than the
/// work it guards.
const WMC_CHECK_STRIDE: usize = 4096;

/// One node's probability from its children's probabilities. `child`
/// reads an already-computed probability by node index; `scratch` is a
/// reusable buffer for the canonical (totally ordered) reduction.
///
/// # Panics
/// Panics if a literal's variable is not covered by `vt`.
fn node_probability(
    node: &DnnfNode,
    vt: &VarTable,
    child: impl Fn(usize) -> f64,
    scratch: &mut Vec<f64>,
) -> f64 {
    match node {
        DnnfNode::Const(b) => {
            if *b {
                1.0
            } else {
                0.0
            }
        }
        DnnfNode::Lit { var, positive } => {
            assert!(
                var.index() < vt.len(),
                "variable table covers {} variables but the d-DNNF mentions x{}",
                vt.len(),
                var.0
            );
            if *positive {
                vt.prob(*var)
            } else {
                1.0 - vt.prob(*var)
            }
        }
        DnnfNode::And(cs) => {
            scratch.clear();
            scratch.extend(cs.iter().map(|c| child(c.index())));
            scratch.sort_unstable_by(|a, b| a.total_cmp(b));
            scratch.iter().product()
        }
        DnnfNode::Or(cs) => {
            scratch.clear();
            scratch.extend(cs.iter().map(|c| child(c.index())));
            scratch.sort_unstable_by(|a, b| a.total_cmp(b));
            scratch.iter().sum()
        }
    }
}

/// Unwraps a sweep made under the unlimited scope, which cannot exceed
/// a budget.
pub(crate) fn unlimited<T>(swept: Result<T, ObddError>) -> T {
    swept.unwrap_or_else(|e| unreachable!("unlimited scope cannot exceed a budget: {e}"))
}

/// The probability of every stored node under `vt`, indexed by node
/// index: `probs[f.index()]` is the probability of sentence `f`. One
/// linear pass on the calling thread that checkpoints `scope` every
/// `WMC_CHECK_STRIDE` nodes.
///
/// # Panics
/// Panics if a stored literal's variable is not covered by `vt`.
pub fn node_probabilities(
    man: &DnnfManager,
    vt: &VarTable,
    scope: &BudgetScope,
) -> Result<Vec<f64>, ObddError> {
    let nodes = man.nodes();
    let mut probs: Vec<f64> = Vec::with_capacity(nodes.len());
    let mut scratch = Vec::new();
    for (i, node) in nodes.iter().enumerate() {
        if i % WMC_CHECK_STRIDE == 0 {
            scope.checkpoint()?;
        }
        // Children are created before parents, so their entries are
        // already in `probs`.
        let p = node_probability(node, vt, |c| probs[c], &mut scratch);
        probs.push(p);
    }
    Ok(probs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnnf::Dnnf;
    use enframe_core::Var;

    /// The sweep under the unlimited scope.
    fn sweep(man: &DnnfManager, vt: &VarTable) -> Vec<f64> {
        unlimited(node_probabilities(man, vt, &BudgetScope::unlimited()))
    }

    #[test]
    fn constants_and_literals() {
        let mut man = DnnfManager::new();
        let x = man.lit(Var(0), true);
        let nx = man.lit(Var(0), false);
        let vt = VarTable::new(vec![0.3]);
        let probs = sweep(&man, &vt);
        assert_eq!(probs[Dnnf::TRUE.index()], 1.0);
        assert_eq!(probs[Dnnf::FALSE.index()], 0.0);
        assert!((probs[x.index()] - 0.3).abs() < 1e-12);
        assert!((probs[nx.index()] - 0.7).abs() < 1e-12);
    }

    #[test]
    fn decomposable_and_multiplies_and_decision_or_adds() {
        let mut man = DnnfManager::new();
        let x = man.lit(Var(0), true);
        let y = man.lit(Var(1), true);
        let xy = man.and([x, y]);
        // (x0 ∧ x1) via decision on x2: x2 ? (x0 ∧ x1) : x0.
        let d = man.decision(Var(2), xy, x);
        let vt = VarTable::new(vec![0.5, 0.4, 0.25]);
        let probs = sweep(&man, &vt);
        assert!((probs[xy.index()] - 0.2).abs() < 1e-12);
        let want = 0.25 * 0.2 + 0.75 * 0.5;
        assert!((probs[d.index()] - want).abs() < 1e-12);
    }

    #[test]
    fn unmentioned_variables_marginalise_out() {
        // A literal over x0 in a 3-variable table: x1, x2 marginalise.
        let mut man = DnnfManager::new();
        let x = man.lit(Var(0), true);
        let vt = VarTable::new(vec![0.6, 0.1, 0.9]);
        let probs = sweep(&man, &vt);
        assert!((probs[x.index()] - 0.6).abs() < 1e-12);
    }

    /// Handle numbering must not affect probabilities: absorbing a
    /// manager into a fresh one permutes handles, and the canonical
    /// reduction has to absorb the permutation.
    #[test]
    fn probabilities_are_invariant_under_absorb_renumbering() {
        let mut man = DnnfManager::new();
        let lits: Vec<Dnnf> = (0..9).map(|v| man.lit(Var(v), true)).collect();
        let a = man.and(lits[0..4].iter().copied());
        let b = man.and(lits[4..9].iter().copied());
        let d = man.decision(Var(9), a, b);
        let vt = VarTable::new((0..10).map(|i| 0.05 + 0.09 * i as f64).collect::<Vec<_>>());
        let probs = sweep(&man, &vt);

        // Interleave unrelated nodes first so absorb renumbers.
        let mut other = DnnfManager::new();
        for v in 0..6 {
            other.lit(Var(v), false);
        }
        let map = other.absorb(&man);
        let probs2 = sweep(&other, &vt);
        for f in [a, b, d] {
            assert_eq!(
                probs[f.index()].to_bits(),
                probs2[map[f.index()].index()].to_bits()
            );
        }
    }
}
