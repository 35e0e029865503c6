//! Bulk compilation of event networks (paper Algorithm 1).
//!
//! A single depth-first exploration of the Shannon decision tree compiles
//! *all* targets at once: each branch partially evaluates the network via
//! mask propagation; when a target resolves under branch ν, `Pr(ν)` is
//! added to its lower bound (if true) or removed from its upper bound (if
//! false). Exact compilation explores until every branch has resolved all
//! targets; the ε-approximations prune subtrees whose mass fits into the
//! remaining per-target error budget, guaranteeing `U − L ≤ 2ε` on
//! termination (Definition 2).
//!
//! Budget strategies (§4.3):
//! * [`Strategy::Lazy`] — keeps the whole budget for the rightmost
//!   branches and stops as soon as all bounds are tight;
//! * [`Strategy::Eager`] — spends the budget on the leftmost branches as
//!   soon as possible, then behaves exactly;
//! * [`Strategy::Hybrid`] — halves the budget at every decision node,
//!   passing unused left-branch budget to the right branch.
//!
//! Deviation from the pseudocode: the prune check charges only targets
//! still *unresolved* in the current branch — resolved targets have
//! already accounted the subtree's mass, so charging them would waste
//! budget without improving the guarantee.
//!
//! [`compile_scoped`] and [`crate::distr::compile_distributed`] share the
//! up-front variable-table check, so a short table panics in both before
//! any exploration starts.

use crate::masks::{BoolMask, Masks};
use crate::order::{static_order, VarOrder};
use enframe_core::budget::{BudgetScope, Exceeded};
use enframe_core::{Var, VarTable};
use enframe_network::{Network, NodeId};
use std::collections::HashMap;

/// Budget-spending strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Exact compilation (ε ignored).
    #[default]
    Exact,
    /// Spend the budget on the leftmost branches first.
    Eager,
    /// Keep the budget for the rightmost branches; stop on tight bounds.
    Lazy,
    /// Halve the budget per decision node; carry residuals rightwards.
    Hybrid,
}

/// Compilation options.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Strategy; `Exact` ignores `epsilon`.
    pub strategy: Strategy,
    /// Absolute error bound ε (the budget per target is `2ε`).
    pub epsilon: f64,
    /// Variable-order heuristic.
    pub order: VarOrder,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            strategy: Strategy::Exact,
            epsilon: 0.0,
            order: VarOrder::StaticOccurrence,
        }
    }
}

impl Options {
    /// Exact compilation.
    pub fn exact() -> Self {
        Options::default()
    }

    /// Approximation with the given strategy and ε.
    pub fn approx(strategy: Strategy, epsilon: f64) -> Self {
        Options {
            strategy,
            epsilon,
            order: VarOrder::StaticOccurrence,
        }
    }
}

/// Exploration statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Decision-tree branches entered.
    pub branches: u64,
    /// Variable assignments propagated.
    pub assignments: u64,
    /// Subtrees pruned against the error budget.
    pub prunes: u64,
    /// Deepest decision level reached.
    pub deepest: u32,
}

/// Result of a compilation run: per-target probability bounds.
#[derive(Debug, Clone)]
pub struct CompileResult {
    /// Lower bounds `L` per target.
    pub lower: Vec<f64>,
    /// Upper bounds `U` per target.
    pub upper: Vec<f64>,
    /// Target names (from the ground program).
    pub names: Vec<String>,
    /// Exploration statistics.
    pub stats: Stats,
    /// `Some` when the exploration was stopped early by an exhausted
    /// budget or an external cancellation. The bounds are still *sound*
    /// — a branch that never resolves a target simply leaves its mass
    /// between `lower` and `upper` — they are just wider than the
    /// strategy would otherwise guarantee.
    pub exhausted: Option<Exceeded>,
}

impl CompileResult {
    /// The bound width `U − L` of a target.
    pub fn width(&self, i: usize) -> f64 {
        self.upper[i] - self.lower[i]
    }

    /// The midpoint estimate `(L + U) / 2` — a valid absolute
    /// ε-approximation whenever the width is ≤ 2ε.
    pub fn estimate(&self, i: usize) -> f64 {
        0.5 * (self.lower[i] + self.upper[i])
    }

    /// The largest bound width across targets.
    pub fn max_width(&self) -> f64 {
        (0..self.lower.len())
            .map(|i| self.width(i))
            .fold(0.0, f64::max)
    }
}

/// Compiles the network against the variable probabilities, returning
/// bounds for every registered target.
///
/// # Panics
/// Panics if the variable table does not cover the network's variables.
pub fn compile(net: &Network, vt: &VarTable, opts: Options) -> CompileResult {
    compile_scoped(net, vt, opts, &BudgetScope::unlimited())
}

/// The up-front check of every compile entry point: a variable table
/// shorter than the network's variable range is a caller error, reported
/// before any work starts.
pub(crate) fn check_var_table(net: &Network, vt: &VarTable) {
    assert!(
        vt.len() >= net.n_vars as usize,
        "variable table covers {} variables but the network uses {}",
        vt.len(),
        net.n_vars
    );
}

/// Each target's positions in `targets`, keyed by node: several targets
/// may share one node.
pub(crate) fn target_positions(targets: &[NodeId]) -> HashMap<NodeId, Vec<usize>> {
    let mut node_targets: HashMap<NodeId, Vec<usize>> = HashMap::new();
    for (i, &t) in targets.iter().enumerate() {
        node_targets.entry(t).or_default().push(i);
    }
    node_targets
}

/// [`compile`] under a budget: the exploration checks `scope` once per
/// decision-tree branch and stops early when the budget runs out,
/// returning the (sound, possibly wide) bounds accumulated so far with
/// [`CompileResult::exhausted`] set to the verdict.
///
/// # Panics
/// Panics if the variable table does not cover the network's variables.
pub fn compile_scoped(
    net: &Network,
    vt: &VarTable,
    opts: Options,
    scope: &BudgetScope,
) -> CompileResult {
    check_var_table(net, vt);
    let targets = net.targets.clone();
    let mut c = Driver {
        vt,
        opts,
        lower: vec![0.0; targets.len()],
        upper: vec![1.0; targets.len()],
        node_targets: target_positions(&targets),
        targets,
        store: Masks::new(net),
        order: static_order(net, opts.order),
        assigned: vec![false; net.n_vars as usize],
        stats: Stats::default(),
        scope,
        stopped: false,
    };
    // Targets resolved by the empty assignment cover the whole space.
    for (i, &t) in c.targets.iter().enumerate() {
        match c.store.bool_mask(t) {
            BoolMask::True => c.lower[i] = 1.0,
            BoolMask::False => c.upper[i] = 0.0,
            BoolMask::Unknown => {}
        }
    }
    let eps2 = if opts.strategy == Strategy::Exact {
        0.0
    } else {
        2.0 * opts.epsilon
    };
    let budgets = vec![eps2; c.targets.len()];
    c.dfs(0, 1.0, budgets);
    CompileResult {
        lower: c.lower,
        upper: c.upper,
        names: net.target_names.clone(),
        stats: c.stats,
        exhausted: if c.stopped { scope.verdict() } else { None },
    }
}

struct Driver<'v, 'n> {
    vt: &'v VarTable,
    opts: Options,
    store: Masks<'n>,
    /// Target nodes, parallel to `lower`/`upper`.
    targets: Vec<NodeId>,
    order: Vec<Var>,
    assigned: Vec<bool>,
    lower: Vec<f64>,
    upper: Vec<f64>,
    node_targets: HashMap<NodeId, Vec<usize>>,
    stats: Stats,
    /// Shared budget/cancellation state, charged one step per branch.
    scope: &'v BudgetScope,
    /// Set once the scope rejects a check: the rest of the tree unwinds
    /// without exploring. Early stop is *sound* for the bounds — an
    /// unexplored branch's mass just stays between `lower` and `upper`.
    stopped: bool,
}

impl Driver<'_, '_> {
    /// True iff every target is resolved in the current branch or has
    /// globally tight bounds (Algorithm 1's second entry check).
    fn all_reached_or_tight(&self, eps2: f64) -> bool {
        self.targets.iter().enumerate().all(|(i, &t)| {
            self.store.state(t).is_resolved() || self.upper[i] - self.lower[i] <= eps2
        })
    }

    fn next_var(&self, depth: usize) -> Option<Var> {
        match self.opts.order {
            VarOrder::Dynamic => {
                let mut best: Option<(usize, Var)> = None;
                for &v in &self.order {
                    if self.assigned[v.index()] {
                        continue;
                    }
                    let score = self.store.unresolved_parents_of_var(v);
                    if best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, v));
                    }
                }
                best.map(|(_, v)| v)
            }
            _ => self.order.get(depth).copied(),
        }
    }

    fn dfs(&mut self, depth: usize, p: f64, budgets: Vec<f64>) -> Vec<f64> {
        // Budget safe point, one step per branch. Returning without
        // exploring is always sound for the bounds (see `stopped`).
        if self.stopped || self.scope.check_steps(1).is_err() {
            self.stopped = true;
            return budgets;
        }
        self.stats.branches += 1;
        self.stats.deepest = self.stats.deepest.max(depth as u32);
        if self.store.unresolved_targets() == 0 {
            return budgets;
        }
        let approx = self.opts.strategy != Strategy::Exact;
        let eps2 = 2.0 * self.opts.epsilon;
        if approx && self.all_reached_or_tight(eps2) {
            return budgets;
        }
        let Some(x) = self.next_var(depth) else {
            // All variables assigned: every target must be resolved.
            debug_assert_eq!(self.store.unresolved_targets(), 0);
            return budgets;
        };
        let px = self.vt.prob(x);

        // Budget split per strategy.
        let (left_budget, mut right_budget) = match self.opts.strategy {
            Strategy::Exact => (budgets.clone(), budgets),
            Strategy::Eager => {
                let zeros = vec![0.0; budgets.len()];
                (budgets, zeros)
            }
            Strategy::Lazy => {
                let zeros = vec![0.0; budgets.len()];
                (zeros, budgets)
            }
            Strategy::Hybrid => {
                let half: Vec<f64> = budgets.iter().map(|b| b * 0.5).collect();
                (half.clone(), half)
            }
        };

        let left_residual = self.branch(depth, x, true, p * px, left_budget);
        if self.opts.strategy != Strategy::Exact {
            for (r, l) in right_budget.iter_mut().zip(&left_residual) {
                *r += l;
            }
        } else {
            right_budget = left_residual;
        }
        if approx && self.all_reached_or_tight(eps2) {
            // All probability bounds ε-approximated: skip the right branch.
            return right_budget;
        }
        self.branch(depth, x, false, p * (1.0 - px), right_budget)
    }

    fn branch(
        &mut self,
        depth: usize,
        x: Var,
        value: bool,
        p: f64,
        mut budgets: Vec<f64>,
    ) -> Vec<f64> {
        if p == 0.0 {
            // Zero-mass branch: resolutions would contribute nothing.
            return budgets;
        }
        if self.opts.strategy != Strategy::Exact {
            // Prune if the branch mass fits in every unresolved target's
            // budget.
            let prunable = self
                .targets
                .iter()
                .enumerate()
                .all(|(i, &t)| self.store.state(t).is_resolved() || budgets[i] >= p);
            if prunable {
                self.stats.prunes += 1;
                for (i, &t) in self.targets.iter().enumerate() {
                    if !self.store.state(t).is_resolved() {
                        budgets[i] -= p;
                    }
                }
                return budgets;
            }
        }
        let mark = self.store.checkpoint();
        self.stats.assignments += 1;
        // Split borrows: collect resolutions first, then account.
        let mut resolutions: Vec<(NodeId, bool)> = Vec::new();
        self.store
            .assign(x, value, &mut |id, truth| resolutions.push((id, truth)));
        for (id, truth) in resolutions {
            if let Some(targets) = self.node_targets.get(&id) {
                for &i in targets {
                    if truth {
                        self.lower[i] += p;
                    } else {
                        self.upper[i] -= p;
                    }
                }
            }
        }
        self.assigned[x.index()] = true;
        let res = self.dfs(depth + 1, p, budgets);
        self.assigned[x.index()] = false;
        self.store.rollback(mark);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::program::{SymCVal, SymEvent, ValSrc};
    use enframe_core::{space, CmpOp, Program, Value};
    use std::rc::Rc;

    fn exact_probs(p: &Program, vt: &VarTable) -> (Vec<f64>, CompileResult) {
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let want = space::target_probabilities(&g, vt);
        let got = compile(&net, vt, Options::exact());
        (want, got)
    }

    /// A program with propositional and aggregate targets over 4 variables.
    fn mixed_program() -> Program {
        let mut p = Program::new();
        let vars: Vec<_> = (0..4).map(|_| p.fresh_var()).collect();
        let e1 = p.declare_event(
            "E1",
            Program::or([
                Program::and([Program::var(vars[0]), Program::nvar(vars[1])]),
                Program::var(vars[2]),
            ]),
        );
        let sum = Rc::new(SymCVal::Sum(
            (0..4)
                .map(|i| {
                    Rc::new(SymCVal::Cond(
                        Program::var(vars[i]),
                        ValSrc::Const(Value::Num(i as f64 + 1.0)),
                    ))
                })
                .collect(),
        ));
        let e2 = p.declare_event(
            "E2",
            Rc::new(SymEvent::Atom(
                CmpOp::Ge,
                sum,
                Rc::new(SymCVal::Lit(ValSrc::Const(Value::Num(4.0)))),
            )),
        );
        let e3 = p.declare_event(
            "E3",
            Program::and([Program::eref(e1.clone()), Program::eref(e2.clone())]),
        );
        p.add_target(e1);
        p.add_target(e2);
        p.add_target(e3);
        p
    }

    #[test]
    fn exact_matches_brute_force() {
        let p = mixed_program();
        let vt = VarTable::new(vec![0.3, 0.5, 0.7, 0.9]);
        let (want, got) = exact_probs(&p, &vt);
        for i in 0..want.len() {
            assert!(
                (got.lower[i] - want[i]).abs() < 1e-9,
                "target {i}: lower {} vs {}",
                got.lower[i],
                want[i]
            );
            assert!(
                (got.upper[i] - want[i]).abs() < 1e-9,
                "target {i}: upper {} vs {}",
                got.upper[i],
                want[i]
            );
        }
    }

    #[test]
    fn exact_with_every_order_heuristic() {
        let p = mixed_program();
        let vt = VarTable::uniform(4, 0.5);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let want = space::target_probabilities(&g, &vt);
        for order in [
            VarOrder::Sequential,
            VarOrder::StaticOccurrence,
            VarOrder::Dynamic,
        ] {
            let got = compile(
                &net,
                &vt,
                Options {
                    order,
                    ..Options::exact()
                },
            );
            for i in 0..want.len() {
                assert!(
                    (got.lower[i] - want[i]).abs() < 1e-9,
                    "{order:?} target {i}"
                );
                assert!((got.upper[i] - want[i]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn approximation_respects_epsilon() {
        let p = mixed_program();
        let vt = VarTable::new(vec![0.3, 0.5, 0.7, 0.9]);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let want = space::target_probabilities(&g, &vt);
        for strategy in [Strategy::Eager, Strategy::Lazy, Strategy::Hybrid] {
            for eps in [0.01, 0.1, 0.3] {
                let got = compile(&net, &vt, Options::approx(strategy, eps));
                for i in 0..want.len() {
                    assert!(
                        got.width(i) <= 2.0 * eps + 1e-12,
                        "{strategy:?} ε={eps}: width {} > 2ε",
                        got.width(i)
                    );
                    assert!(
                        got.lower[i] <= want[i] + 1e-12 && want[i] <= got.upper[i] + 1e-12,
                        "{strategy:?} ε={eps}: true prob outside bounds"
                    );
                    let est = got.estimate(i);
                    assert!(
                        (est - want[i]).abs() <= eps + 1e-12,
                        "{strategy:?} ε={eps}: estimate off by {}",
                        (est - want[i]).abs()
                    );
                }
            }
        }
    }

    #[test]
    fn approximation_prunes_branches() {
        // With a generous epsilon the hybrid scheme must explore fewer
        // branches than exact.
        let p = mixed_program();
        let vt = VarTable::uniform(4, 0.5);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let exact = compile(&net, &vt, Options::exact());
        let approx = compile(&net, &vt, Options::approx(Strategy::Hybrid, 0.25));
        assert!(
            approx.stats.branches < exact.stats.branches,
            "approx {} vs exact {}",
            approx.stats.branches,
            exact.stats.branches
        );
        assert!(approx.stats.prunes > 0);
    }

    #[test]
    fn constant_targets_resolve_without_exploration() {
        let mut p = Program::new();
        let _x = p.fresh_var();
        let t = p.declare_event("T", Rc::new(SymEvent::Tru));
        let f = p.declare_event("F", Rc::new(SymEvent::Fls));
        p.add_target(t);
        p.add_target(f);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::uniform(1, 0.5);
        let got = compile(&net, &vt, Options::exact());
        assert_eq!(got.lower, vec![1.0, 0.0]);
        assert_eq!(got.upper, vec![1.0, 0.0]);
        assert_eq!(got.stats.assignments, 0);
    }

    #[test]
    fn deterministic_variables_skip_zero_branches() {
        // P(x)=1: the false branch has zero mass and is skipped.
        let mut p = Program::new();
        let x = p.fresh_var();
        let e = p.declare_event("E", Program::var(x));
        p.add_target(e);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::new(vec![1.0]);
        let got = compile(&net, &vt, Options::exact());
        assert_eq!(got.lower, vec![1.0]);
        assert_eq!(got.upper, vec![1.0]);
    }

    #[test]
    fn bounds_monotone_under_shrinking_epsilon() {
        let p = mixed_program();
        let vt = VarTable::new(vec![0.4, 0.6, 0.2, 0.8]);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let loose = compile(&net, &vt, Options::approx(Strategy::Hybrid, 0.2));
        let tight = compile(&net, &vt, Options::approx(Strategy::Hybrid, 0.02));
        assert!(tight.max_width() <= loose.max_width() + 1e-12);
    }

    /// Builds a random propositional program over `n` variables from a seed.
    fn random_program(n: usize, seed: u64) -> Program {
        let mut p = Program::new();
        let vars: Vec<_> = (0..n).map(|_| p.fresh_var()).collect();
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut exprs: Vec<Rc<SymEvent>> = vars.iter().map(|&v| Program::var(v)).collect();
        for _ in 0..6 {
            let a = exprs[(next() as usize) % exprs.len()].clone();
            let b = exprs[(next() as usize) % exprs.len()].clone();
            let e = match next() % 3 {
                0 => Program::and([a, b]),
                1 => Program::or([a, b]),
                _ => Program::not(a),
            };
            exprs.push(e);
        }
        for (i, e) in exprs.iter().rev().take(3).enumerate() {
            let id = p.declare_event(&format!("T{i}"), e.clone());
            p.add_target(id);
        }
        p
    }

    mod prop {
        use super::*;
        use crate::compile::Strategy as CStrategy;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            /// Exact compilation equals brute force on random propositional
            /// programs with random probabilities.
            #[test]
            fn prop_exact_equals_brute_force(
                seed in 0u64..10_000,
                p0 in 0.05f64..0.95,
                p1 in 0.05f64..0.95,
                p2 in 0.05f64..0.95,
                p3 in 0.05f64..0.95,
            ) {
                let prog = random_program(4, seed);
                let vt = VarTable::new(vec![p0, p1, p2, p3]);
                let (want, got) = exact_probs(&prog, &vt);
                for i in 0..want.len() {
                    prop_assert!((got.lower[i] - want[i]).abs() < 1e-9);
                    prop_assert!((got.upper[i] - want[i]).abs() < 1e-9);
                }
            }

            /// Every approximation strategy keeps the true probability inside
            /// its bounds and meets the ε guarantee.
            #[test]
            fn prop_approx_guarantee(
                seed in 0u64..10_000,
                eps in 0.02f64..0.4,
            ) {
                let prog = random_program(5, seed);
                let vt = VarTable::uniform(5, 0.5);
                let g = prog.ground().unwrap();
                let net = Network::build(&g).unwrap();
                let want = space::target_probabilities(&g, &vt);
                for strategy in [CStrategy::Eager, CStrategy::Lazy, CStrategy::Hybrid] {
                    let got = compile(&net, &vt, Options::approx(strategy, eps));
                    for i in 0..want.len() {
                        prop_assert!(got.width(i) <= 2.0 * eps + 1e-12);
                        prop_assert!(got.lower[i] <= want[i] + 1e-12);
                        prop_assert!(want[i] <= got.upper[i] + 1e-12);
                    }
                }
            }
        }
    }
}
