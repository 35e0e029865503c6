//! Grounded event expressions and conditional values (paper §3.1).
//!
//! The grammar implemented here is exactly the paper's:
//!
//! ```text
//! CVAL  ::= EVENT ⊗ VAL | CVAL⁻¹ | CVAL + CVAL | CVAL^INT
//!         | CVAL · CVAL | dist(CVAL, CVAL) | EVENT ∧ CVAL
//! ATOM  ::= [CVAL COMP CVAL]
//! EVENT ::= propositional formula over X, EIDs, ATOMs
//! ```
//!
//! `Σ`/`Π`-expressions are represented as n-ary [`CVal::Sum`]/[`CVal::Prod`].
//! Identifier references ([`Event::Ref`]/[`CVal::Ref`]) point into a
//! [`crate::GroundProgram`]'s definition table by [`crate::DefId`]; trees
//! built outside a program (e.g. tuple lineage in a pc-table) simply never
//! contain references.

use crate::ground::{DefId, Evaluator};
use crate::value::Value;
use crate::var::{Valuation, Var};
use crate::CoreError;
use std::fmt;
use std::rc::Rc;

/// Comparison operator of an atom `[CVAL θ CVAL]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `≤`
    Le,
    /// `<`
    Lt,
    /// `≥`
    Ge,
    /// `>`
    Gt,
    /// `=`
    Eq,
}

impl CmpOp {
    /// The operator with swapped operands (`a θ b` ⇔ `b θ' a`).
    pub fn flip(self) -> CmpOp {
        match self {
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Ge => CmpOp::Le,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Eq => CmpOp::Eq,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Le => "<=",
            CmpOp::Lt => "<",
            CmpOp::Ge => ">=",
            CmpOp::Gt => ">",
            CmpOp::Eq => "==",
        };
        f.write_str(s)
    }
}

/// A Boolean event expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The constant ⊤.
    Tru,
    /// The constant ⊥.
    Fls,
    /// An input Boolean random variable from `X`.
    Var(Var),
    /// Negation. The event language allows negation, which takes it beyond
    /// the positive provenance semirings it extends (paper §6).
    Not(Rc<Event>),
    /// N-ary conjunction.
    And(Vec<Rc<Event>>),
    /// N-ary disjunction.
    Or(Vec<Rc<Event>>),
    /// A comparison atom between two conditional values.
    Atom(CmpOp, Rc<CVal>, Rc<CVal>),
    /// Reference to a named event declaration in the enclosing program.
    Ref(DefId),
}

impl Event {
    /// Smart conjunction: flattens nested `And`s and folds constants.
    pub fn and(parts: impl IntoIterator<Item = Rc<Event>>) -> Rc<Event> {
        let mut out = Vec::new();
        for p in parts {
            match &*p {
                Event::Tru => {}
                Event::Fls => return Rc::new(Event::Fls),
                Event::And(inner) => out.extend(inner.iter().cloned()),
                _ => out.push(p),
            }
        }
        match out.len() {
            0 => Rc::new(Event::Tru),
            1 => out.pop().unwrap(),
            _ => Rc::new(Event::And(out)),
        }
    }

    /// Smart disjunction: flattens nested `Or`s and folds constants.
    pub fn or(parts: impl IntoIterator<Item = Rc<Event>>) -> Rc<Event> {
        let mut out = Vec::new();
        for p in parts {
            match &*p {
                Event::Fls => {}
                Event::Tru => return Rc::new(Event::Tru),
                Event::Or(inner) => out.extend(inner.iter().cloned()),
                _ => out.push(p),
            }
        }
        match out.len() {
            0 => Rc::new(Event::Fls),
            1 => out.pop().unwrap(),
            _ => Rc::new(Event::Or(out)),
        }
    }

    /// Smart negation: folds constants and double negation.
    ///
    /// (Named after the paper's connective; not the `std::ops::Not` trait —
    /// this is an associated constructor, not a method.)
    #[allow(clippy::should_implement_trait)]
    pub fn not(e: Rc<Event>) -> Rc<Event> {
        match &*e {
            Event::Tru => Rc::new(Event::Fls),
            Event::Fls => Rc::new(Event::Tru),
            Event::Not(inner) => inner.clone(),
            _ => Rc::new(Event::Not(e)),
        }
    }

    /// A variable literal.
    pub fn var(v: Var) -> Rc<Event> {
        Rc::new(Event::Var(v))
    }

    /// A negative variable literal.
    pub fn nvar(v: Var) -> Rc<Event> {
        Rc::new(Event::Not(Rc::new(Event::Var(v))))
    }

    /// Evaluates a *closed* event (one containing no `Ref`s) under a
    /// complete valuation. Events with references must be evaluated through
    /// [`crate::GroundProgram`].
    pub fn eval_closed(&self, nu: &Valuation) -> Result<bool, CoreError> {
        Evaluator::closed().eval_event_expr(self, nu)
    }

    /// Collects every input variable mentioned in the expression
    /// (not chasing references).
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            Event::Tru | Event::Fls | Event::Ref(_) => {}
            Event::Var(v) => out.push(*v),
            Event::Not(e) => e.collect_vars(out),
            Event::And(es) | Event::Or(es) => {
                for e in es {
                    e.collect_vars(out);
                }
            }
            Event::Atom(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Event::Tru => write!(f, "T"),
            Event::Fls => write!(f, "F"),
            Event::Var(v) => write!(f, "x{}", v.0),
            Event::Not(e) => write!(f, "!({e})"),
            Event::And(es) => join(f, es, " & "),
            Event::Or(es) => join(f, es, " | "),
            Event::Atom(op, a, b) => write!(f, "[{a} {op} {b}]"),
            Event::Ref(d) => write!(f, "@{}", d.0),
        }
    }
}

fn join<T: fmt::Display>(f: &mut fmt::Formatter<'_>, items: &[T], sep: &str) -> fmt::Result {
    write!(f, "(")?;
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            f.write_str(sep)?;
        }
        write!(f, "{it}")?;
    }
    write!(f, ")")
}

/// A conditional value (c-value).
#[derive(Debug, Clone, PartialEq)]
pub enum CVal {
    /// A constant, i.e. `⊤ ⊗ v`.
    Const(Value),
    /// `Φ ⊗ v`: the value `v` if `Φ` holds, undefined otherwise.
    Cond(Rc<Event>, Value),
    /// `Φ ∧ c`: the value of `c` if `Φ` holds, undefined otherwise.
    Guard(Rc<Event>, Rc<CVal>),
    /// N-ary sum (`Σ`); undefined summands act as the additive identity.
    Sum(Vec<Rc<CVal>>),
    /// N-ary product (`Π`); undefined factors absorb.
    Prod(Vec<Rc<CVal>>),
    /// Multiplicative inverse.
    Inv(Rc<CVal>),
    /// Integer exponentiation (the user language's `pow(B, r)`).
    Pow(Rc<CVal>, i32),
    /// Distance between two (vector- or scalar-valued) c-values.
    Dist(Rc<CVal>, Rc<CVal>),
    /// Reference to a named c-value declaration in the enclosing program.
    Ref(DefId),
}

impl CVal {
    /// A constant scalar c-value.
    pub fn num(x: f64) -> Rc<CVal> {
        Rc::new(CVal::Const(Value::Num(x)))
    }

    /// A constant point c-value.
    pub fn point(coords: &[f64]) -> Rc<CVal> {
        Rc::new(CVal::Const(Value::point(coords)))
    }

    /// `Φ ⊗ v`.
    pub fn cond(event: Rc<Event>, value: Value) -> Rc<CVal> {
        Rc::new(CVal::Cond(event, value))
    }

    /// Evaluates a *closed* c-value (no `Ref`s) under a complete valuation.
    pub fn eval_closed(&self, nu: &Valuation) -> Result<Value, CoreError> {
        Evaluator::closed().eval_cval_expr(self, nu)
    }

    /// Collects every input variable mentioned in the expression
    /// (not chasing references).
    pub fn collect_vars(&self, out: &mut Vec<Var>) {
        match self {
            CVal::Const(_) | CVal::Ref(_) => {}
            CVal::Cond(e, _) => e.collect_vars(out),
            CVal::Guard(e, c) => {
                e.collect_vars(out);
                c.collect_vars(out);
            }
            CVal::Sum(cs) | CVal::Prod(cs) => {
                for c in cs {
                    c.collect_vars(out);
                }
            }
            CVal::Inv(c) | CVal::Pow(c, _) => c.collect_vars(out),
            CVal::Dist(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
        }
    }
}

impl fmt::Display for CVal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CVal::Const(v) => write!(f, "{v}"),
            CVal::Cond(e, v) => write!(f, "({e} (x) {v})"),
            CVal::Guard(e, c) => write!(f, "({e} /\\ {c})"),
            CVal::Sum(cs) => join(f, cs, " + "),
            CVal::Prod(cs) => join(f, cs, " * "),
            CVal::Inv(c) => write!(f, "({c})^-1"),
            CVal::Pow(c, r) => write!(f, "({c})^{r}"),
            CVal::Dist(a, b) => write!(f, "dist({a}, {b})"),
            CVal::Ref(d) => write!(f, "@{}", d.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> Rc<Event> {
        Event::var(Var(i))
    }

    #[test]
    fn smart_and_folds_constants() {
        let t = Rc::new(Event::Tru);
        let x = v(0);
        assert_eq!(&*Event::and([t.clone(), x.clone()]), &*x);
        let fls = Rc::new(Event::Fls);
        assert_eq!(&*Event::and([x.clone(), fls]), &Event::Fls);
        assert_eq!(&*Event::and([]), &Event::Tru);
    }

    #[test]
    fn smart_or_folds_constants() {
        let t = Rc::new(Event::Tru);
        let x = v(0);
        assert_eq!(&*Event::or([x.clone(), t]), &Event::Tru);
        assert_eq!(&*Event::or([]), &Event::Fls);
        let fls = Rc::new(Event::Fls);
        assert_eq!(&*Event::or([fls, x.clone()]), &*x);
    }

    #[test]
    fn smart_not_folds() {
        let x = v(3);
        let nn = Event::not(Event::not(x.clone()));
        assert_eq!(&*nn, &*x);
        assert_eq!(&*Event::not(Rc::new(Event::Tru)), &Event::Fls);
    }

    #[test]
    fn and_flattens_nested() {
        let e = Event::and([Event::and([v(0), v(1)]), v(2)]);
        match &*e {
            Event::And(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected flat And, got {other:?}"),
        }
    }

    #[test]
    fn eval_closed_propositional() {
        // (x0 ∨ x2) ∧ ¬x1
        let e = Event::and([Event::or([v(0), v(2)]), Event::not(v(1))]);
        let nu = Valuation::from_bits(vec![true, false, false]);
        assert!(e.eval_closed(&nu).unwrap());
        let nu2 = Valuation::from_bits(vec![true, true, false]);
        assert!(!e.eval_closed(&nu2).unwrap());
    }

    #[test]
    fn eval_closed_cvalue_if_then_else_semantics() {
        // Paper Example 2: M0 = Φ(o0) ⊗ o0 + ¬Φ(o0) ⊗ o2.
        let phi = v(0);
        let m0 = Rc::new(CVal::Sum(vec![
            CVal::cond(phi.clone(), Value::point(&[1.0, 0.0])),
            CVal::cond(Event::not(phi), Value::point(&[5.0, 0.0])),
        ]));
        let nu_t = Valuation::from_bits(vec![true]);
        let nu_f = Valuation::from_bits(vec![false]);
        assert_eq!(m0.eval_closed(&nu_t).unwrap(), Value::point(&[1.0, 0.0]));
        assert_eq!(m0.eval_closed(&nu_f).unwrap(), Value::point(&[5.0, 0.0]));
    }

    #[test]
    fn sum_skips_undefined_summands() {
        // Φ ⊗ 2 + Ψ ⊗ 3 with Φ true, Ψ false = 2.
        let c = CVal::Sum(vec![
            CVal::cond(v(0), Value::Num(2.0)),
            CVal::cond(v(1), Value::Num(3.0)),
        ]);
        let nu = Valuation::from_bits(vec![true, false]);
        assert_eq!(c.eval_closed(&nu).unwrap(), Value::Num(2.0));
        let nu_none = Valuation::from_bits(vec![false, false]);
        assert!(c.eval_closed(&nu_none).unwrap().is_undef());
    }

    #[test]
    fn prod_absorbs_undefined() {
        let c = CVal::Prod(vec![CVal::cond(v(0), Value::Num(2.0)), CVal::num(3.0)]);
        let nu = Valuation::from_bits(vec![false]);
        assert!(c.eval_closed(&nu).unwrap().is_undef());
        let nu_t = Valuation::from_bits(vec![true]);
        assert_eq!(c.eval_closed(&nu_t).unwrap(), Value::Num(6.0));
    }

    #[test]
    fn atom_with_undefined_side_is_true() {
        // [Φ⊗1 <= ⊥⊗0] — right side always undefined ⇒ atom true.
        let atom = Event::Atom(
            CmpOp::Le,
            CVal::cond(v(0), Value::Num(1.0)),
            CVal::cond(Rc::new(Event::Fls), Value::Num(0.0)),
        );
        for bits in [vec![true], vec![false]] {
            assert!(atom.eval_closed(&Valuation::from_bits(bits)).unwrap());
        }
    }

    #[test]
    fn guard_semantics() {
        // Φ ∧ (⊤ ⊗ 7): 7 if Φ, undefined otherwise.
        let c = CVal::Guard(v(0), CVal::num(7.0));
        assert_eq!(
            c.eval_closed(&Valuation::from_bits(vec![true])).unwrap(),
            Value::Num(7.0)
        );
        assert!(c
            .eval_closed(&Valuation::from_bits(vec![false]))
            .unwrap()
            .is_undef());
    }

    #[test]
    fn collect_vars_finds_all() {
        let e = Event::Atom(
            CmpOp::Lt,
            Rc::new(CVal::Dist(
                CVal::cond(v(3), Value::Num(0.0)),
                CVal::num(1.0),
            )),
            Rc::new(CVal::Inv(CVal::cond(v(5), Value::Num(2.0)))),
        );
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        vars.sort();
        assert_eq!(vars, vec![Var(3), Var(5)]);
    }

    #[test]
    fn refs_refuse_closed_eval() {
        let e = Event::Ref(DefId(0));
        assert!(e.eval_closed(&Valuation::all_false(0)).is_err());
        let c = CVal::Ref(DefId(0));
        assert!(c.eval_closed(&Valuation::all_false(0)).is_err());
    }

    #[test]
    fn cmp_flip() {
        assert_eq!(CmpOp::Le.flip(), CmpOp::Ge);
        assert_eq!(CmpOp::Lt.flip(), CmpOp::Gt);
        assert_eq!(CmpOp::Eq.flip(), CmpOp::Eq);
    }

    #[test]
    fn display_round_trip_smoke() {
        let e = Event::and([v(0), Event::not(v(1))]);
        assert_eq!(e.to_string(), "(x0 & !(x1))");
        let c = CVal::Sum(vec![CVal::num(1.0), CVal::cond(v(0), Value::Num(2.0))]);
        assert_eq!(c.to_string(), "(1 + (x0 (x) 2))");
    }
}
