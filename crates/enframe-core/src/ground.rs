//! Grounded programs and the reference evaluator.
//!
//! "The meaning of an event program is simply the set of all named and
//! grounded c-value and event expressions defined by the program" (§3.4).
//! A [`GroundProgram`] is exactly that set: the definition table a
//! [`crate::Program`] declared, in declaration (hence dependency) order,
//! plus the compilation targets. It shares the table with the program
//! that made it, so grounding copies no term.
//!
//! The [`Evaluator`] implements the valuation semantics of §3.2 directly
//! over the grounded definitions, memoising shared subexpressions. It is
//! deliberately simple: it is the *reference* semantics used to validate
//! the optimized compilation engines in `enframe-prob`, and the engine of
//! the naïve per-world baseline in `enframe-worlds`.

use crate::event::{CVal, Event};
use crate::fxhash::FxHashMap;
use crate::symbol::{Interner, Symbol};
use crate::value::Value;
use crate::var::Valuation;
use crate::CoreError;
use std::rc::Rc;

/// A grounded identifier: base name plus concrete indices.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Ident {
    /// Interned base name.
    pub sym: Symbol,
    /// Concrete index values, outermost first.
    pub idx: Vec<i64>,
}

impl Ident {
    /// An identifier with indices.
    pub fn indexed(sym: Symbol, idx: Vec<i64>) -> Self {
        Ident { sym, idx }
    }

    /// Renders the identifier using the given interner, e.g. `InCl[0][3]`.
    pub fn render(&self, interner: &Interner) -> String {
        let mut s = interner.resolve(self.sym).to_owned();
        for i in &self.idx {
            s.push_str(&format!("[{i}]"));
        }
        s
    }
}

/// Dense id of a grounded definition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DefId(pub u32);

impl DefId {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A grounded definition body.
#[derive(Debug, Clone)]
pub enum Def {
    /// A Boolean event.
    Event(Rc<Event>),
    /// A conditional value.
    CVal(Rc<CVal>),
}

/// The named definitions of a program: identifiers, bodies and the index
/// from one to the other.
#[derive(Debug, Clone, Default)]
pub(crate) struct Table {
    pub(crate) interner: Interner,
    pub(crate) defs: Vec<(Ident, Def)>,
    pub(crate) index: FxHashMap<Ident, DefId>,
}

impl Table {
    pub(crate) fn lookup(&self, name: &str, idx: &[i64]) -> Option<DefId> {
        let sym = self.interner.get(name)?;
        self.index.get(&Ident::indexed(sym, idx.to_vec())).copied()
    }
}

/// A grounded event program: a flat, dependency-ordered definition table
/// plus compilation targets.
#[derive(Debug, Clone)]
pub struct GroundProgram {
    pub(crate) table: Rc<Table>,
    /// Compilation targets, in registration order.
    pub targets: Vec<DefId>,
    /// Number of input random variables.
    pub n_vars: u32,
}

impl GroundProgram {
    /// The definitions in declaration (hence dependency) order.
    pub fn defs(&self) -> &[(Ident, Def)] {
        &self.table.defs
    }

    /// Number of definitions.
    pub fn len(&self) -> usize {
        self.table.defs.len()
    }

    /// Whether the program has no definitions.
    pub fn is_empty(&self) -> bool {
        self.table.defs.is_empty()
    }

    /// The interner of the definitions' names.
    pub fn interner(&self) -> &Interner {
        &self.table.interner
    }

    /// Looks up a definition id by name and indices.
    pub fn lookup_named(&self, name: &str, idx: &[i64]) -> Option<DefId> {
        self.table.lookup(name, idx)
    }

    /// The identifier of a definition.
    pub fn ident(&self, id: DefId) -> &Ident {
        &self.table.defs[id.index()].0
    }

    /// The body of a definition.
    pub fn def(&self, id: DefId) -> &Def {
        &self.table.defs[id.index()].1
    }

    /// Human-readable name of a definition.
    pub fn name_of(&self, id: DefId) -> String {
        self.ident(id).render(self.interner())
    }

    /// Evaluates a Boolean definition under a complete valuation.
    pub fn eval_bool(&self, id: DefId, nu: &Valuation) -> Result<bool, CoreError> {
        Evaluator::new(self).event(id, nu)
    }

    /// Evaluates a c-value definition under a complete valuation.
    pub fn eval_value(&self, id: DefId, nu: &Valuation) -> Result<Value, CoreError> {
        Evaluator::new(self).cval(id, nu)
    }
}

/// Memoising evaluator over a ground program, for one valuation at a time.
/// It is also the one walker of closed terms ([`Event::eval_closed`],
/// [`CVal::eval_closed`]): without a program, a `Ref` is an unknown
/// identifier.
///
/// Construct once and call [`Evaluator::reset`] between valuations to reuse
/// the memo allocations.
pub struct Evaluator<'a> {
    gp: Option<&'a GroundProgram>,
    memo_bool: Vec<Option<bool>>,
    memo_val: Vec<Option<Value>>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `gp`.
    pub fn new(gp: &'a GroundProgram) -> Self {
        Evaluator {
            gp: Some(gp),
            memo_bool: vec![None; gp.len()],
            memo_val: vec![None; gp.len()],
        }
    }

    /// An evaluator of closed terms, with no program to resolve `Ref`s in.
    pub(crate) fn closed() -> Self {
        Evaluator {
            gp: None,
            memo_bool: Vec::new(),
            memo_val: Vec::new(),
        }
    }

    /// The program a `Ref` names a definition of.
    fn program(&self) -> Result<&'a GroundProgram, CoreError> {
        self.gp.ok_or_else(|| {
            CoreError::UnknownIdent("cannot evaluate a reference outside a program".into())
        })
    }

    /// Clears memoised results (call between valuations).
    pub fn reset(&mut self) {
        self.memo_bool.fill(None);
        self.memo_val.fill(None);
    }

    /// Evaluates Boolean definition `id` under `nu`.
    pub fn event(&mut self, id: DefId, nu: &Valuation) -> Result<bool, CoreError> {
        let gp = self.program()?;
        if let Some(b) = self.memo_bool[id.index()] {
            return Ok(b);
        }
        let expr = match gp.def(id) {
            Def::Event(e) => e.clone(),
            Def::CVal(_) => {
                return Err(CoreError::TypeMismatch {
                    ident: gp.name_of(id),
                    expected: "an event",
                })
            }
        };
        let b = self.eval_event_expr(&expr, nu)?;
        self.memo_bool[id.index()] = Some(b);
        Ok(b)
    }

    /// Evaluates c-value definition `id` under `nu`.
    pub fn cval(&mut self, id: DefId, nu: &Valuation) -> Result<Value, CoreError> {
        let gp = self.program()?;
        if let Some(v) = &self.memo_val[id.index()] {
            return Ok(v.clone());
        }
        let expr = match gp.def(id) {
            Def::CVal(c) => c.clone(),
            Def::Event(_) => {
                return Err(CoreError::TypeMismatch {
                    ident: gp.name_of(id),
                    expected: "a c-value",
                })
            }
        };
        let v = self.eval_cval_expr(&expr, nu)?;
        self.memo_val[id.index()] = Some(v.clone());
        Ok(v)
    }

    /// Evaluates an event expression (possibly containing references into
    /// the program) under `nu`.
    pub fn eval_event_expr(&mut self, e: &Event, nu: &Valuation) -> Result<bool, CoreError> {
        match e {
            Event::Tru => Ok(true),
            Event::Fls => Ok(false),
            Event::Var(v) => Ok(nu.get(*v)),
            Event::Not(inner) => Ok(!self.eval_event_expr(inner, nu)?),
            Event::And(es) => {
                for part in es {
                    if !self.eval_event_expr(part, nu)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Event::Or(es) => {
                for part in es {
                    if self.eval_event_expr(part, nu)? {
                        return Ok(true);
                    }
                }
                Ok(false)
            }
            Event::Atom(op, a, b) => {
                let va = self.eval_cval_expr(a, nu)?;
                let vb = self.eval_cval_expr(b, nu)?;
                va.compare(*op, &vb)
            }
            Event::Ref(id) => self.event(*id, nu),
        }
    }

    /// Evaluates a c-value expression under `nu`.
    pub fn eval_cval_expr(&mut self, c: &CVal, nu: &Valuation) -> Result<Value, CoreError> {
        match c {
            CVal::Const(v) => Ok(v.clone()),
            CVal::Cond(e, v) => {
                if self.eval_event_expr(e, nu)? {
                    Ok(v.clone())
                } else {
                    Ok(Value::Undef)
                }
            }
            CVal::Guard(e, inner) => {
                if self.eval_event_expr(e, nu)? {
                    self.eval_cval_expr(inner, nu)
                } else {
                    Ok(Value::Undef)
                }
            }
            CVal::Sum(cs) => {
                let mut acc = Value::Undef;
                for part in cs {
                    let v = self.eval_cval_expr(part, nu)?;
                    acc = acc.add(&v)?;
                }
                Ok(acc)
            }
            CVal::Prod(cs) => {
                let mut acc = Value::Num(1.0);
                for part in cs {
                    let v = self.eval_cval_expr(part, nu)?;
                    acc = acc.mul(&v)?;
                }
                Ok(acc)
            }
            CVal::Inv(inner) => self.eval_cval_expr(inner, nu)?.inv(),
            CVal::Pow(inner, r) => self.eval_cval_expr(inner, nu)?.pow(*r),
            CVal::Dist(a, b) => {
                let va = self.eval_cval_expr(a, nu)?;
                let vb = self.eval_cval_expr(b, nu)?;
                va.dist(&vb)
            }
            CVal::Ref(id) => self.cval(*id, nu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CmpOp, Program, Var};

    /// Builds the paper's Example 1 lineage:
    /// Φ(o0)=x1∨x3, Φ(o1)=x2, Φ(o2)=x3, Φ(o3)=¬x2∧x4  (renamed to x0..x3).
    fn example1() -> Program {
        let mut p = Program::new();
        let x1 = p.fresh_var();
        let x2 = p.fresh_var();
        let x3 = p.fresh_var();
        let x4 = p.fresh_var();
        p.declare_event_at(
            "Phi",
            &[0],
            Program::or([Program::var(x1), Program::var(x3)]),
        );
        p.declare_event_at("Phi", &[1], Program::var(x2));
        p.declare_event_at("Phi", &[2], Program::var(x3));
        p.declare_event_at(
            "Phi",
            &[3],
            Program::and([Program::nvar(x2), Program::var(x4)]),
        );
        p
    }

    #[test]
    fn ground_flat_declarations() {
        let p = example1();
        let g = p.ground().unwrap();
        assert_eq!(g.len(), 4);
        assert_eq!(g.name_of(DefId(0)), "Phi[0]");
        assert!(g.lookup_named("Phi", &[3]).is_some());
        assert!(g.lookup_named("Phi", &[4]).is_none());
    }

    #[test]
    fn redeclaration_is_rejected() {
        let mut p = example1();
        p.declare_event_at("Phi", &[0], Rc::new(Event::Tru));
        assert!(matches!(p.ground(), Err(CoreError::Redeclaration(_))));
    }

    #[test]
    fn reference_resolution_and_eval() {
        let mut p = example1();
        // Query: are o1 and o2 both present? E ≡ Phi[1] ∧ Phi[2].
        let phi = |p: &Program, i| p.event_at("Phi", &[i]).unwrap();
        let e = p.declare_event(
            "Both",
            Program::and([Program::eref(phi(&p, 1)), Program::eref(phi(&p, 2))]),
        );
        p.add_target(e);
        let g = p.ground().unwrap();
        assert_eq!(g.targets.len(), 1);
        // x2 (index 1) true and x3 (index 2) true -> Both = true.
        let nu = Valuation::from_bits(vec![false, true, true, false]);
        assert!(g.eval_bool(g.targets[0], &nu).unwrap());
        let nu2 = Valuation::from_bits(vec![false, true, false, false]);
        assert!(!g.eval_bool(g.targets[0], &nu2).unwrap());
    }

    #[test]
    fn unknown_reference_is_reported() {
        let mut p = Program::new();
        let dangling = Rc::new(Event::Ref(DefId(0)));
        assert!(matches!(
            p.declare_closed_event("E", &dangling),
            Err(CoreError::UnknownIdent(_))
        ));
        let nu = Valuation::from_bits(vec![]);
        assert!(matches!(
            dangling.eval_closed(&nu),
            Err(CoreError::UnknownIdent(_))
        ));
    }

    #[test]
    fn type_mismatch_on_ref_is_reported() {
        // `Program::eref` only takes event handles, but a raw `Event::Ref`
        // can still name a c-value; the evaluator reports it.
        let mut p = Program::new();
        let c = p.declare_cval("C", CVal::num(1.0));
        let e = p.declare_event("E", Rc::new(Event::Ref(c.def())));
        let g = p.ground().unwrap();
        let nu = Valuation::from_bits(vec![]);
        assert!(matches!(
            g.eval_bool(e.def(), &nu),
            Err(CoreError::TypeMismatch { .. })
        ));
        assert!(matches!(
            g.eval_value(e.def(), &nu),
            Err(CoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn big_sum_with_atoms() {
        // DistSum-style: Σ_{p=0..3} (X[p] ⊗ p) then an atom comparing to 3.
        let mut p = Program::new();
        let xs: Vec<_> = (0..3)
            .map(|j| {
                let v = p.fresh_var();
                p.declare_event_at("X", &[j], Program::var(v))
            })
            .collect();
        let sum = Rc::new(CVal::Sum(
            xs.iter()
                .zip(0..)
                .map(|(&x, j)| CVal::cond(Program::eref(x), Value::Num(f64::from(j))))
                .collect(),
        ));
        let s = p.declare_cval("S", sum);
        let atom = p.declare_event(
            "A",
            Rc::new(Event::Atom(CmpOp::Ge, Program::cref(s), CVal::num(3.0))),
        );
        p.add_target(atom);
        let g = p.ground().unwrap();
        // x1 and x2 true: sum = 1 + 2 = 3 >= 3 -> true.
        let nu = Valuation::from_bits(vec![false, true, true]);
        assert!(g.eval_bool(g.targets[0], &nu).unwrap());
        // only x1: sum = 1 -> false.
        let nu2 = Valuation::from_bits(vec![false, true, false]);
        assert!(!g.eval_bool(g.targets[0], &nu2).unwrap());
        // no vars: sum undefined -> atom TRUE by §3.2.
        let nu3 = Valuation::from_bits(vec![false, false, false]);
        assert!(g.eval_bool(g.targets[0], &nu3).unwrap());
    }

    #[test]
    fn grounding_shares_the_table() {
        let mut p = example1();
        let g = p.ground().unwrap();
        assert!(Rc::ptr_eq(&p.table, &g.table), "ground copies nothing");
        // Declaring after grounding leaves the grounded program as it was.
        p.declare_event("Late", Program::var(Var(0)));
        assert_eq!((g.len(), p.ground().unwrap().len()), (4, 5));
    }
}
