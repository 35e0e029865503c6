//! Weighted model counting over d-DNNF — one sweep, sequential or
//! data-parallel by its worker count.
//!
//! This is the payoff of the two structural invariants the compiler
//! maintains: children of an `And` mention **disjoint** variable sets,
//! so their probabilities multiply; children of an `Or` are **logically
//! inconsistent**, so their probabilities add; and variables a child
//! never mentions marginalise out automatically because `p + (1−p) = 1`
//! (no smoothing pass is needed for probability computation). Nodes are
//! stored in creation order with children preceding parents, so the
//! whole union DAG is counted in **one forward sweep** — no recursion,
//! no cache invalidation protocol, just an array of per-node
//! probabilities.
//!
//! ## Determinism
//!
//! Floating-point reduction is order-sensitive for three or more
//! operands, and child *handle* order is a manager-numbering artefact
//! (merging per-worker managers renumbers handles). The sweep therefore
//! reduces each node's child probabilities in a **canonical order** —
//! sorted by [`f64::total_cmp`] — through one `node_probability`
//! kernel. Consequences, both load-bearing for the parallel paths:
//!
//! * [`node_probabilities`] is bitwise-equal across worker counts and
//!   chunkings: each node's value is the same pure function of its
//!   children's values, only the evaluation schedule differs.
//! * A sentence's probability depends only on its *abstract* structure,
//!   not on handle numbering — so a parallel target fan-out, whose
//!   merged manager numbers nodes differently than a sequential
//!   compile, still yields bitwise-identical probabilities.

use super::{DnnfManager, DnnfNode};
use crate::ObddError;
use enframe_core::budget::BudgetScope;
use enframe_core::{pool, VarTable};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Stride between budget checkpoints in the sequential sweep: WMC is a
/// cheap linear pass, so checking every node would cost more than the
/// work it guards.
const WMC_CHECK_STRIDE: usize = 4096;

/// One node's probability from its children's probabilities — the
/// single reduction kernel of the sequential and the parallel sweep,
/// so the two are bitwise-identical by construction. `child`
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

/// Unwraps a sweep made under the unlimited scope. The one error such a
/// sweep can return is a worker's caught panic — the documented one for
/// a `vt` that is too short — which is raised again here, on the
/// caller's thread, after the pool was joined.
pub(crate) fn unlimited<T>(swept: Result<T, ObddError>) -> T {
    match swept {
        Ok(value) => value,
        Err(ObddError::WorkerPanicked { message, .. }) => panic!("{message}"),
        Err(e) => unreachable!("unlimited scope cannot exceed a budget: {e}"),
    }
}

/// The probability of every stored node under `vt`, indexed by node
/// index: `probs[f.index()]` is the probability of sentence `f`.
///
/// At one worker this is one linear pass that checkpoints `scope` every
/// `WMC_CHECK_STRIDE` nodes. With more, the nodes are swept as a
/// **level wavefront** on the worker pool: a node's level is one past
/// its deepest child's, each level is split into `workers` contiguous
/// chunks by creation index, and a level starts when the one below is
/// complete. The kernel is the same, so the result is **bitwise-equal
/// for every worker count**. Every chunk checkpoints the scope; a
/// worker that fails or panics (a `vt` that is too short surfaces as
/// [`ObddError::WorkerPanicked`] with the documented message) cancels
/// its siblings, and the error is returned after the join.
///
/// # Panics
/// Panics if a stored literal's variable is not covered by `vt` and
/// the sweep runs sequentially.
pub fn node_probabilities(
    man: &DnnfManager,
    vt: &VarTable,
    workers: usize,
    scope: &BudgetScope,
) -> Result<Vec<f64>, ObddError> {
    let nodes = man.nodes();
    let workers = workers.min(nodes.len()).max(1);
    if workers <= 1 {
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
        return Ok(probs);
    }

    // Levels: constants and literals are 0, internal nodes one past
    // their deepest child. Creation order is topological, so one
    // forward pass suffices.
    let mut level = vec![0u32; nodes.len()];
    let mut n_levels = 1usize;
    for (i, node) in nodes.iter().enumerate() {
        if let DnnfNode::And(cs) | DnnfNode::Or(cs) = node {
            let l = 1 + cs.iter().map(|c| level[c.index()]).max().unwrap_or(0);
            level[i] = l;
            n_levels = n_levels.max(l as usize + 1);
        }
    }
    // Counting sort of node indices by level; ties keep creation order.
    let mut starts = vec![0usize; n_levels + 1];
    for &l in &level {
        starts[l as usize + 1] += 1;
    }
    for l in 1..=n_levels {
        starts[l] += starts[l - 1];
    }
    let mut order = vec![0u32; nodes.len()];
    let mut next = starts.clone();
    for (i, &l) in level.iter().enumerate() {
        order[next[l as usize]] = i as u32;
        next[l as usize] += 1;
    }

    // f64 bit patterns behind atomics: each slot is written by exactly
    // one worker, and cross-level reads are ordered by the hand-off
    // below (the per-slot acquire/release pairing is belt-and-braces on
    // top of it).
    let probs: Vec<AtomicU64> = (0..nodes.len()).map(|_| AtomicU64::new(0)).collect();
    // A job is one (level, chunk); a level's chunks are queued by
    // whoever finishes the last chunk of the level below (the AcqRel
    // count-down plus the queue's lock order that worker after every
    // write to the level below), so no chunk starts before its inputs
    // are complete and no worker ever waits on anything but the queue.
    let left: Vec<AtomicUsize> = (0..n_levels).map(|_| AtomicUsize::new(workers)).collect();
    let queue = pool::Queue::new((0..workers).map(|chunk| (0usize, chunk)));
    pool::run(scope, workers, &queue, |worker| {
        let mut scratch = Vec::new();
        while let Some((l, chunk)) = worker.next_stage() {
            scope.checkpoint()?;
            let lvl = &order[starts[l]..starts[l + 1]];
            let lo = lvl.len() * chunk / workers;
            let hi = lvl.len() * (chunk + 1) / workers;
            for &i in &lvl[lo..hi] {
                let p = node_probability(
                    &nodes[i as usize],
                    vt,
                    |c| f64::from_bits(probs[c].load(Ordering::Acquire)),
                    &mut scratch,
                );
                probs[i as usize].store(p.to_bits(), Ordering::Release);
            }
            if left[l].fetch_sub(1, Ordering::AcqRel) == 1 && l + 1 < n_levels {
                for chunk in 0..workers {
                    queue.push((l + 1, chunk));
                }
            }
        }
        Ok::<(), ObddError>(())
    })?;
    if let Some(verdict) = scope.verdict() {
        return Err(verdict.into());
    }
    Ok(probs
        .into_iter()
        .map(|a| f64::from_bits(a.into_inner()))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dnnf::Dnnf;
    use enframe_core::Var;

    /// The sweep at `workers` under the unlimited scope.
    fn sweep(man: &DnnfManager, vt: &VarTable, workers: usize) -> Vec<f64> {
        unlimited(node_probabilities(
            man,
            vt,
            workers,
            &BudgetScope::unlimited(),
        ))
    }

    #[test]
    fn constants_and_literals() {
        let mut man = DnnfManager::new();
        let x = man.lit(Var(0), true);
        let nx = man.lit(Var(0), false);
        let vt = VarTable::new(vec![0.3]);
        let probs = sweep(&man, &vt, 1);
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
        let probs = sweep(&man, &vt, 1);
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
        let probs = sweep(&man, &vt, 1);
        assert!((probs[x.index()] - 0.6).abs() < 1e-12);
    }

    /// A deep/wide synthetic DAG over 24 variables: alternating
    /// decision/AND layers to get both node kinds at many levels, with
    /// fan-in 3 so reduction order genuinely matters.
    fn layered_dag() -> (DnnfManager, u32) {
        let mut man = DnnfManager::new();
        let n_vars = 24u32;
        let mut layer: Vec<Dnnf> = (0..n_vars).map(|v| man.lit(Var(v), v % 2 == 0)).collect();
        for round in 0..6u32 {
            layer = layer
                .chunks(3)
                .enumerate()
                .map(|(i, c)| {
                    if round % 2 == 0 {
                        man.and(c.iter().copied())
                    } else {
                        let hi = c[0];
                        let lo = *c.last().unwrap();
                        man.decision(Var((i as u32 + round) % n_vars), hi, lo)
                    }
                })
                .collect();
        }
        (man, n_vars)
    }

    /// The parallel sweep must match the sequential one bit-for-bit at
    /// every node, for several worker counts (including more workers
    /// than some levels have nodes).
    #[test]
    fn parallel_sweep_is_bitwise_equal_to_sequential() {
        let (man, n_vars) = layered_dag();
        let vt = enframe_core::VarTable::new(
            (0..n_vars)
                .map(|i| 0.17 + 0.029 * i as f64)
                .collect::<Vec<_>>(),
        );
        let seq = sweep(&man, &vt, 1);
        for workers in [2, 3, 5, 8, 64] {
            let par = sweep(&man, &vt, workers);
            assert_eq!(seq.len(), par.len());
            for i in 0..seq.len() {
                assert_eq!(
                    seq[i].to_bits(),
                    par[i].to_bits(),
                    "node {i} differs at workers={workers}"
                );
            }
        }
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
        let probs = sweep(&man, &vt, 1);

        // Interleave unrelated nodes first so absorb renumbers.
        let mut other = DnnfManager::new();
        for v in 0..6 {
            other.lit(Var(v), false);
        }
        let map = other.absorb(&man);
        let probs2 = sweep(&other, &vt, 1);
        for f in [a, b, d] {
            assert_eq!(
                probs[f.index()].to_bits(),
                probs2[map[f.index()].index()].to_bits()
            );
        }
    }

    /// Regression: a worker that panicked mid-level (here on the
    /// documented assertion, a table shorter than a stored literal's
    /// variable) used to miss its barrier, so its siblings waited
    /// forever and the sweep never returned. The sweep must end, with
    /// the panic as a structured error, and `unlimited` must raise it
    /// again with the same message. This thread is the watchdog.
    #[test]
    fn a_panicking_worker_ends_the_sweep() {
        for workers in [2, 8] {
            let (tx, rx) = std::sync::mpsc::channel();
            std::thread::spawn(move || {
                let (man, _) = layered_dag();
                let short = VarTable::uniform(5, 0.5);
                let scoped = node_probabilities(&man, &short, workers, &BudgetScope::unlimited());
                let raised = std::panic::catch_unwind(|| sweep(&man, &short, workers));
                let _ = tx.send((scoped, raised.map_err(|p| p.downcast::<String>().ok())));
            });
            let (scoped, raised) = rx
                .recv_timeout(std::time::Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("the sweep hung at workers={workers}"));
            let documented = "variable table covers 5 variables but the d-DNNF mentions x";
            match scoped {
                Err(ObddError::WorkerPanicked { message, .. }) => {
                    assert!(message.starts_with(documented), "{message}")
                }
                other => panic!("workers={workers}: expected WorkerPanicked, got {other:?}"),
            }
            let payload = raised.expect_err("a short table is a panic for this entry point");
            assert!(payload.is_some_and(|m| m.starts_with(documented)));
        }
    }
}
