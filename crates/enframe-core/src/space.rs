//! The probability space induced by the input random variables
//! (Definition 1) and brute-force reference computations.
//!
//! Everything in this module enumerates all `2^|X|` valuations, so it is
//! only usable for small `X` — which is exactly its purpose: it is the
//! *golden standard* that the optimized engines (`enframe-prob`) and the
//! naïve baseline (`enframe-worlds`) are tested against.

use crate::ground::{DefId, Evaluator, GroundProgram};
use crate::value::ValueKey;
use crate::var::{Valuation, VarTable};
use crate::CoreError;
use std::collections::BTreeMap;

/// Hard cap on `|X|` for brute-force enumeration (2^24 worlds).
pub const MAX_ENUM_VARS: usize = 24;

/// Iterates over all `(valuation, probability)` pairs of the induced space.
///
/// # Panics
/// Panics if the table has more than [`MAX_ENUM_VARS`] variables.
pub fn worlds(vt: &VarTable) -> impl Iterator<Item = (Valuation, f64)> + '_ {
    let n = vt.len();
    assert!(
        n <= MAX_ENUM_VARS,
        "brute-force enumeration capped at {MAX_ENUM_VARS} variables, got {n}"
    );
    (0..(1u64 << n)).map(move |code| {
        let nu = Valuation::from_code(n, code);
        let p = vt.world_prob(&nu);
        (nu, p)
    })
}

/// Exact probabilities of all registered targets, by enumeration.
///
/// # Panics
/// Panics if a target is not a Boolean definition (use
/// [`cval_distribution`] for c-value targets) or enumeration fails.
pub fn target_probabilities(gp: &GroundProgram, vt: &VarTable) -> Vec<f64> {
    let mut totals = vec![0.0; gp.targets.len()];
    let mut ev = Evaluator::new(gp);
    for (nu, p) in worlds(vt) {
        if p == 0.0 {
            continue;
        }
        ev.reset();
        for (k, &t) in gp.targets.iter().enumerate() {
            if ev.event(t, &nu).expect("target evaluation failed") {
                totals[k] += p;
            }
        }
    }
    totals
}

/// The exact distribution of a c-value definition: maps each possible
/// outcome (including `u`) to its probability.
pub fn cval_distribution(
    gp: &GroundProgram,
    id: DefId,
    vt: &VarTable,
) -> Result<BTreeMap<ValueKey, f64>, CoreError> {
    let mut dist: BTreeMap<ValueKey, f64> = BTreeMap::new();
    let mut ev = Evaluator::new(gp);
    for (nu, p) in worlds(vt) {
        if p == 0.0 {
            continue;
        }
        ev.reset();
        let v = ev.cval(id, &nu)?;
        *dist.entry(v.order_key()).or_insert(0.0) += p;
    }
    Ok(dist)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CVal, Event};
    use crate::program::Program;
    use crate::value::Value;
    use crate::Var;
    use std::rc::Rc;

    /// The expectation of a scalar c-value definition, conditioned on it being
    /// defined. Returns `(expectation, P(defined))`; the expectation is `None`
    /// when the value is undefined with probability 1.
    fn cval_expectation(
        gp: &GroundProgram,
        id: DefId,
        vt: &VarTable,
    ) -> Result<(Option<f64>, f64), CoreError> {
        let mut weighted = 0.0;
        let mut mass = 0.0;
        let mut ev = Evaluator::new(gp);
        for (nu, p) in worlds(vt) {
            if p == 0.0 {
                continue;
            }
            ev.reset();
            match ev.cval(id, &nu)? {
                Value::Num(x) => {
                    weighted += p * x;
                    mass += p;
                }
                Value::Undef => {}
                Value::Point(_) => {
                    return Err(CoreError::ValueType(
                        "expectation of a vector-valued c-value".into(),
                    ))
                }
            }
        }
        if mass == 0.0 {
            Ok((None, 0.0))
        } else {
            Ok((Some(weighted / mass), mass))
        }
    }

    /// Exact probability of a single Boolean definition, by enumeration.
    fn event_probability(gp: &GroundProgram, id: DefId, vt: &VarTable) -> Result<f64, CoreError> {
        let mut total = 0.0;
        let mut ev = Evaluator::new(gp);
        for (nu, p) in worlds(vt) {
            if p == 0.0 {
                continue;
            }
            ev.reset();
            if ev.event(id, &nu)? {
                total += p;
            }
        }
        Ok(total)
    }

    #[test]
    fn worlds_cover_unit_mass() {
        let vt = VarTable::new(vec![0.3, 0.7, 0.5]);
        let total: f64 = worlds(&vt).map(|(_, p)| p).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(worlds(&vt).count(), 8);
    }

    #[test]
    fn event_probability_disjunction() {
        // P(x0 ∨ x1) = 1 − 0.5·0.5 = 0.75 for p = 0.5.
        let mut p = Program::new();
        let a = p.fresh_var();
        let b = p.fresh_var();
        let e = p.declare_event("E", Program::or([Program::var(a), Program::var(b)]));
        p.add_target(e);
        let g = p.ground().unwrap();
        let vt = VarTable::uniform(2, 0.5);
        let got = event_probability(&g, g.targets[0], &vt).unwrap();
        assert!((got - 0.75).abs() < 1e-12);
        assert_eq!(target_probabilities(&g, &vt), vec![got]);
    }

    #[test]
    fn mutex_pair_never_co_occurs() {
        // Φ(o1) = x0, Φ(o2) = ¬x0: P(both) = 0.
        let mut p = Program::new();
        let x = p.fresh_var();
        let both = p.declare_event("Both", Program::and([Program::var(x), Program::nvar(x)]));
        p.add_target(both);
        let g = p.ground().unwrap();
        let vt = VarTable::uniform(1, 0.6);
        assert_eq!(event_probability(&g, g.targets[0], &vt).unwrap(), 0.0);
    }

    #[test]
    fn cval_distribution_enumerates_outcomes() {
        // C = x0 ⊗ 1 + x1 ⊗ 2: outcomes u, 1, 2, 3.
        let mut p = Program::new();
        let a = p.fresh_var();
        let b = p.fresh_var();
        let c = p.declare_cval(
            "C",
            Rc::new(CVal::Sum(vec![
                CVal::cond(Program::var(a), Value::Num(1.0)),
                CVal::cond(Program::var(b), Value::Num(2.0)),
            ])),
        );
        let g = p.ground().unwrap();
        let id = g.lookup_named("C", &[]).unwrap();
        let _ = c;
        let vt = VarTable::new(vec![0.5, 0.5]);
        let dist = cval_distribution(&g, id, &vt).unwrap();
        assert_eq!(dist.len(), 4);
        assert!((dist[&Value::Undef.order_key()] - 0.25).abs() < 1e-12);
        assert!((dist[&Value::Num(3.0).order_key()] - 0.25).abs() < 1e-12);
    }

    #[test]
    fn cval_expectation_conditional() {
        // C = x0 ⊗ 10 with p = 0.25: E[C | defined] = 10, P(defined) = 0.25.
        let mut p = Program::new();
        let a = p.fresh_var();
        p.declare_cval("C", CVal::cond(Program::var(a), Value::Num(10.0)));
        let g = p.ground().unwrap();
        let id = g.lookup_named("C", &[]).unwrap();
        let vt = VarTable::new(vec![0.25]);
        let (e, mass) = cval_expectation(&g, id, &vt).unwrap();
        assert_eq!(e, Some(10.0));
        assert!((mass - 0.25).abs() < 1e-12);
    }

    #[test]
    fn deterministic_variable_prob_one() {
        let mut p = Program::new();
        let a = p.fresh_var();
        let e = p.declare_event("E", Program::var(a));
        p.add_target(e);
        let g = p.ground().unwrap();
        let vt = VarTable::new(vec![1.0]);
        assert_eq!(target_probabilities(&g, &vt), vec![1.0]);
    }

    #[test]
    fn atom_probability_with_undefined_sides() {
        // A ≡ [x0⊗1 ≤ x1⊗2]: false only when both defined and 1 ≤ 2 fails —
        // never; hence P(A) = 1.
        let mut p = Program::new();
        let a = p.fresh_var();
        let b = p.fresh_var();
        let at = p.declare_event(
            "A",
            Rc::new(Event::Atom(
                crate::CmpOp::Le,
                CVal::cond(Program::var(a), Value::Num(1.0)),
                CVal::cond(Program::var(b), Value::Num(2.0)),
            )),
        );
        p.add_target(at);
        let g = p.ground().unwrap();
        let vt = VarTable::uniform(2, 0.5);
        assert_eq!(target_probabilities(&g, &vt), vec![1.0]);
    }

    use proptest::prelude::*;

    proptest! {
        /// For random 3-variable lineage formulas, P(E) + P(¬E) = 1.
        #[test]
        fn prob_complement_sums_to_one(seed in 0u64..200) {
            // Derive a small random formula from the seed deterministically.
            let mut p = Program::new();
            let vars: Vec<Var> = (0..3).map(|_| p.fresh_var()).collect();
            let lit = |s: u64, _p: &Program| {
                let v = vars[(s % 3) as usize];
                if (s / 3) % 2 == 0 { Program::var(v) } else { Program::nvar(v) }
            };
            let e = Program::or([
                Program::and([lit(seed, &p), lit(seed / 7, &p)]),
                lit(seed / 13, &p),
            ]);
            let pos = p.declare_event("E", e.clone());
            let neg = p.declare_event("NE", Program::not(e));
            p.add_target(pos);
            p.add_target(neg);
            let g = p.ground().unwrap();
            let vt = VarTable::new(vec![0.3, 0.5, 0.8]);
            let probs = target_probabilities(&g, &vt);
            prop_assert!((probs[0] + probs[1] - 1.0).abs() < 1e-9);
        }
    }
}
