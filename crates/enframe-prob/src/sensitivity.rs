//! Sensitivity analysis and explanation of event programs.
//!
//! "Besides probability computation, events can be used for sensitivity
//! analysis and explanation of the program result" (paper §1). This
//! module makes that concrete: the probability of any event is a
//! **multilinear** polynomial in the input-variable probabilities
//! `p_1 … p_m` (each world's mass is a product with at most one factor
//! per variable), so for every target `Φ` and variable `x`
//!
//! ```text
//! Pr[Φ] = p_x · Pr[Φ | x] + (1 − p_x) · Pr[Φ | ¬x]
//! ∂Pr[Φ]/∂p_x = Pr[Φ | x] − Pr[Φ | ¬x]
//! ```
//!
//! and the derivative is *independent of `p_x`* — perturbing one
//! variable's probability moves the target probability exactly linearly.
//! [`sensitivity`] computes the conditioned probabilities by compiling
//! the network with `p_x` pinned to 1 and to 0 (two compilations per
//! variable, reusing the bulk engine unchanged); [`Sensitivity`] then
//! answers perturbation queries exactly and ranks variables by influence
//! to *explain* a result ("which sensor readings drive the probability
//! that o₃ is a medoid?").

use crate::compile::{compile, Options};
use enframe_core::{Var, VarTable};
use enframe_network::Network;

/// Influence of one variable on one target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Influence {
    /// The input variable.
    pub var: Var,
    /// `∂Pr[target]/∂p_var = Pr[target | var] − Pr[target | ¬var]`.
    pub derivative: f64,
}

/// The result of a sensitivity analysis: conditioned probabilities and
/// derivatives for every (target, variable) pair.
#[derive(Debug, Clone)]
pub struct Sensitivity {
    /// Target names, parallel to the outer index of the matrices.
    pub names: Vec<String>,
    /// Unconditioned probability of each target at the analysed table.
    pub base: Vec<f64>,
    /// `cond_true[t][v] = Pr[target t | variable v true]`.
    pub cond_true: Vec<Vec<f64>>,
    /// `cond_false[t][v] = Pr[target t | variable v false]`.
    pub cond_false: Vec<Vec<f64>>,
    /// The probabilities the analysis was run at.
    probs: Vec<f64>,
}

impl Sensitivity {
    /// The derivative `∂Pr[target]/∂p_v`.
    pub fn derivative(&self, target: usize, v: Var) -> f64 {
        self.cond_true[target][v.index()] - self.cond_false[target][v.index()]
    }

    /// The exact probability of `target` after changing `p_v` to `new_p`,
    /// all other probabilities unchanged. Exact by multilinearity — no
    /// recompilation needed.
    pub fn perturbed(&self, target: usize, v: Var, new_p: f64) -> f64 {
        self.base[target] + (new_p - self.probs[v.index()]) * self.derivative(target, v)
    }

    /// Variables ranked by decreasing absolute influence on `target`
    /// (ties broken by variable index for determinism). Zero-influence
    /// variables are omitted — they are *irrelevant* to the target.
    pub fn explain(&self, target: usize) -> Vec<Influence> {
        let mut out: Vec<Influence> = (0..self.probs.len())
            .map(|i| Influence {
                var: Var(i as u32),
                derivative: self.derivative(target, Var(i as u32)),
            })
            .filter(|inf| inf.derivative != 0.0)
            .collect();
        out.sort_by(|a, b| {
            b.derivative
                .abs()
                .partial_cmp(&a.derivative.abs())
                .unwrap()
                .then(a.var.0.cmp(&b.var.0))
        });
        out
    }

    /// The top-`k` influencers of `target`.
    pub fn top_influencers(&self, target: usize, k: usize) -> Vec<Influence> {
        let mut out = self.explain(target);
        out.truncate(k);
        out
    }
}

/// Runs a sensitivity analysis of every target against every input
/// variable: `2m + 1` compilations for `m` variables.
///
/// `opts` selects the engine; with an ε-approximation the derivatives are
/// accurate to `±2ε` (each conditioned probability to `±ε`). Use
/// [`Options::exact`] for exact derivatives.
///
/// ```
/// use enframe_core::{Program, Var, VarTable};
/// use enframe_network::Network;
/// use enframe_prob::{sensitivity, Options};
///
/// // E ≡ x0 ∨ x1: Pr = 1 − (1−p0)(1−p1), so ∂Pr/∂p0 = 1 − p1.
/// let mut p = Program::new();
/// let x0 = p.fresh_var();
/// let x1 = p.fresh_var();
/// let e = p.declare_event("E", Program::or([Program::var(x0), Program::var(x1)]));
/// p.add_target(e);
/// let net = Network::build(&p.ground().unwrap()).unwrap();
///
/// let vt = VarTable::new(vec![0.3, 0.6]);
/// let s = sensitivity(&net, &vt, Options::exact());
/// assert!((s.derivative(0, x0) - 0.4).abs() < 1e-12);
/// // Exact what-if without recompiling (multilinearity):
/// assert!((s.perturbed(0, x0, 1.0) - 1.0).abs() < 1e-12);
/// ```
pub fn sensitivity(net: &Network, vt: &VarTable, opts: Options) -> Sensitivity {
    let m = vt.len();
    let base_res = compile(net, vt, opts);
    let n_targets = base_res.lower.len();
    let base: Vec<f64> = (0..n_targets).map(|i| base_res.estimate(i)).collect();
    let probs: Vec<f64> = (0..m).map(|i| vt.prob(Var(i as u32))).collect();

    let mut cond_true = vec![vec![0.0; m]; n_targets];
    let mut cond_false = vec![vec![0.0; m]; n_targets];
    for i in 0..m {
        let v = Var(i as u32);
        if net.var_node(v).is_none() {
            // The variable does not occur: conditioning changes nothing.
            for t in 0..n_targets {
                cond_true[t][i] = base[t];
                cond_false[t][i] = base[t];
            }
            continue;
        }
        for (value, out) in [(true, &mut cond_true), (false, &mut cond_false)] {
            let mut pinned = probs.clone();
            pinned[i] = if value { 1.0 } else { 0.0 };
            let res = compile(net, &VarTable::new(pinned), opts);
            for (t, row) in out.iter_mut().enumerate() {
                row[i] = res.estimate(t);
            }
        }
    }

    Sensitivity {
        names: base_res.names,
        base,
        cond_true,
        cond_false,
        probs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::{space, Program};

    /// `E ≡ x0 ∨ x1` over independent variables.
    fn or_network() -> (Network, VarTable) {
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let e = p.declare_event("E", Program::or([Program::var(x0), Program::var(x1)]));
        p.add_target(e);
        let g = p.ground().unwrap();
        (Network::build(&g).unwrap(), VarTable::new(vec![0.3, 0.6]))
    }

    #[test]
    fn or_derivatives_are_counter_probabilities() {
        // Pr[x0 ∨ x1] = 1 − (1−p0)(1−p1); ∂/∂p0 = 1 − p1.
        let (net, vt) = or_network();
        let s = sensitivity(&net, &vt, Options::exact());
        assert!((s.derivative(0, Var(0)) - 0.4).abs() < 1e-12);
        assert!((s.derivative(0, Var(1)) - 0.7).abs() < 1e-12);
        assert!((s.base[0] - (1.0 - 0.7 * 0.4)).abs() < 1e-12);
    }

    #[test]
    fn base_decomposes_over_conditions() {
        // Pr[t] = p_x · Pr[t|x] + (1−p_x) · Pr[t|¬x] for every variable.
        let (net, vt) = or_network();
        let s = sensitivity(&net, &vt, Options::exact());
        for v in 0..2 {
            let p = vt.prob(Var(v));
            let recomposed =
                p * s.cond_true[0][v as usize] + (1.0 - p) * s.cond_false[0][v as usize];
            assert!((recomposed - s.base[0]).abs() < 1e-12, "var {v}");
        }
    }

    #[test]
    fn perturbation_matches_recompilation() {
        let (net, vt) = or_network();
        let s = sensitivity(&net, &vt, Options::exact());
        for new_p in [0.0, 0.25, 0.5, 0.99] {
            let predicted = s.perturbed(0, Var(0), new_p);
            let recompiled = compile(&net, &VarTable::new(vec![new_p, 0.6]), Options::exact());
            assert!(
                (predicted - recompiled.lower[0]).abs() < 1e-12,
                "p0={new_p}: predicted {predicted} vs {}",
                recompiled.lower[0]
            );
        }
    }

    #[test]
    fn negated_variables_oppose() {
        // E ≡ ¬x0 ∧ x1: raising p0 lowers Pr[E].
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let e = p.declare_event("E", Program::and([Program::nvar(x0), Program::var(x1)]));
        p.add_target(e);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::new(vec![0.5, 0.5]);
        let s = sensitivity(&net, &vt, Options::exact());
        assert!(s.derivative(0, Var(0)) < 0.0);
        assert!(s.derivative(0, Var(1)) > 0.0);
    }

    #[test]
    fn irrelevant_variables_have_zero_influence() {
        // x2 is declared but feeds no target.
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let _x1 = p.fresh_var();
        let e = p.declare_event("E", Program::var(x0));
        p.add_target(e);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::new(vec![0.5, 0.5]);
        let s = sensitivity(&net, &vt, Options::exact());
        assert_eq!(s.derivative(0, Var(1)), 0.0);
        let expl = s.explain(0);
        assert_eq!(expl.len(), 1, "only x0 is relevant");
        assert_eq!(expl[0].var, Var(0));
        assert!((expl[0].derivative - 1.0).abs() < 1e-12);
    }

    #[test]
    fn explanation_ranks_by_influence() {
        // E ≡ x0 ∨ (x1 ∧ x2) with p = 0.5: x0 dominates.
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let x2 = p.fresh_var();
        let e = p.declare_event(
            "E",
            Program::or([
                Program::var(x0),
                Program::and([Program::var(x1), Program::var(x2)]),
            ]),
        );
        p.add_target(e);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::uniform(3, 0.5);
        let s = sensitivity(&net, &vt, Options::exact());
        let top = s.top_influencers(0, 2);
        assert_eq!(top[0].var, Var(0));
        assert!(top[0].derivative > top[1].derivative);
    }

    #[test]
    fn approximate_sensitivity_within_combined_epsilon() {
        let (net, vt) = or_network();
        let exact = sensitivity(&net, &vt, Options::exact());
        let eps = 0.05;
        let approx = sensitivity(
            &net,
            &vt,
            Options::approx(crate::compile::Strategy::Hybrid, eps),
        );
        for v in 0..2 {
            let d = (approx.derivative(0, Var(v)) - exact.derivative(0, Var(v))).abs();
            assert!(d <= 2.0 * eps + 1e-12, "var {v}: |Δ| = {d}");
        }
    }

    mod prop {
        use super::*;
        use enframe_core::Event;
        use proptest::prelude::*;
        use std::rc::Rc;

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
            let mut exprs: Vec<Rc<Event>> = vars.iter().map(|&v| Program::var(v)).collect();
            for _ in 0..5 {
                let a = exprs[(next() as usize) % exprs.len()].clone();
                let b = exprs[(next() as usize) % exprs.len()].clone();
                let e = match next() % 3 {
                    0 => Program::and([a, b]),
                    1 => Program::or([a, b]),
                    _ => Program::not(a),
                };
                exprs.push(e);
            }
            let t = p.declare_event("T", exprs.last().unwrap().clone());
            p.add_target(t);
            p
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(30))]

            /// Multilinearity: the predicted perturbation equals a fresh
            /// brute-force computation at the new probability.
            #[test]
            fn prop_perturbation_is_exact(
                seed in 0u64..10_000,
                var in 0u32..4,
                p_old in 0.1f64..0.9,
                p_new in 0.0f64..1.0,
            ) {
                let prog = random_program(4, seed);
                let g = prog.ground().unwrap();
                let net = Network::build(&g).unwrap();
                let mut probs = vec![0.4, 0.55, 0.3, 0.7];
                probs[var as usize] = p_old;
                let vt = VarTable::new(probs.clone());
                let s = sensitivity(&net, &vt, Options::exact());
                probs[var as usize] = p_new;
                let want = space::target_probabilities(&g, &VarTable::new(probs));
                let got = s.perturbed(0, Var(var), p_new);
                prop_assert!((got - want[0]).abs() < 1e-9,
                    "predicted {got} vs brute-force {}", want[0]);
            }

            /// Derivatives are bounded by 1 in absolute value (they are
            /// differences of probabilities).
            #[test]
            fn prop_derivative_bounded(seed in 0u64..10_000) {
                let prog = random_program(4, seed);
                let g = prog.ground().unwrap();
                let net = Network::build(&g).unwrap();
                let vt = VarTable::uniform(4, 0.5);
                let s = sensitivity(&net, &vt, Options::exact());
                for v in 0..4 {
                    let d = s.derivative(0, Var(v));
                    prop_assert!((-1.0..=1.0).contains(&d));
                }
            }
        }
    }
}
