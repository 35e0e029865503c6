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
//! The search itself lives in [`crate::distr`]: [`compile_scoped`] runs
//! it as one job on the calling thread, and
//! [`crate::distr::compile_distributed`] cuts it into jobs for a pool.

use crate::order::VarOrder;
use enframe_core::budget::{Budget, BudgetScope, Exceeded};
use enframe_core::VarTable;
use enframe_network::Network;
use enframe_telemetry::{self as telemetry, Counter, Phase};

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

/// [`compile`] under a budget: the exploration checks `scope` once per
/// decision-tree branch and stops early when the budget runs out,
/// returning the (sound, possibly wide) bounds accumulated so far with
/// [`CompileResult::exhausted`] set to the verdict.
///
/// This is the one-job case of [`crate::distr`]'s search: the root job,
/// explored with no depth limit on the calling thread.
///
/// # Panics
/// Panics if the variable table does not cover the network's variables.
pub fn compile_scoped(
    net: &Network,
    vt: &VarTable,
    opts: Options,
    scope: &BudgetScope,
) -> CompileResult {
    crate::distr::compile_one_job(net, vt, opts, scope)
}

/// The bottom rung of the degradation ladder: after an exact engine
/// exhausted `budget`, re-run the anytime hybrid search at `epsilon` over
/// the same network under the *same* budget (an absolute deadline grants
/// it exactly the remaining time). Whatever it reaches is a sound
/// `[L, U]` enclosure of the exact answer.
pub fn degrade_to_bounds(
    net: &Network,
    vt: &VarTable,
    epsilon: f64,
    budget: Budget,
) -> CompileResult {
    telemetry::count(Counter::Fallback);
    let _span = telemetry::span(Phase::Degraded);
    let scope = BudgetScope::new(budget);
    let res = compile_scoped(net, vt, Options::approx(Strategy::Hybrid, epsilon), &scope);
    scope.record_telemetry();
    res
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
