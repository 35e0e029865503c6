//! Event programs: named event and c-value declarations (paper §3.4).
//!
//! An event program is a finite set of immutable declarations
//! `EID ≡ EVENT` and `EID ≡ CVAL`. [`Program`] takes them one at a time as
//! grounded [`Event`]/[`CVal`] terms, and each declaration returns a typed
//! handle ([`EventId`] or [`CValId`]). A later term refers to it through
//! [`Program::eref`] or [`Program::cref`]. A reference built this way is
//! always to an earlier declaration of the right kind, so the definitions
//! are in dependency order by construction.
//!
//! The paper's `∀`-loops are not a construct here. Translation unrolls
//! every loop of a user program, so each iteration's declarations arrive
//! with concrete indices (`M[1][2]`, `InCl[0][3]`, …).
//! [`Program::ground`] packages the table and the targets into a
//! [`GroundProgram`] without copying a term.

use crate::event::{CVal, Event};
use crate::ground::{Def, DefId, GroundProgram, Ident, Table};
use crate::var::Var;
use crate::CoreError;
use std::collections::hash_map::Entry;
use std::rc::Rc;

/// Handle of a declared Boolean event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(DefId);

/// Handle of a declared c-value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CValId(DefId);

impl EventId {
    /// The declaration's id in the grounded program.
    pub fn def(self) -> DefId {
        self.0
    }
}

impl CValId {
    /// The declaration's id in the grounded program.
    pub fn def(self) -> DefId {
        self.0
    }
}

/// An event program: named definitions in declaration order, and the
/// compilation targets among them.
#[derive(Debug, Clone, Default)]
pub struct Program {
    pub(crate) table: Rc<Table>,
    targets: Vec<DefId>,
    n_vars: u32,
    /// The first identifier declared twice; [`Program::ground`] reports it.
    redeclared: Option<String>,
}

impl Program {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a fresh input random variable and returns it.
    pub fn fresh_var(&mut self) -> Var {
        let v = Var(self.n_vars);
        self.n_vars += 1;
        v
    }

    /// Declares that variables `0..n` are in use (for programs whose events
    /// were built with externally allocated variables).
    pub fn ensure_vars(&mut self, n: u32) {
        self.n_vars = self.n_vars.max(n);
    }

    /// Number of input random variables.
    pub fn n_vars(&self) -> u32 {
        self.n_vars
    }

    /// Number of declarations.
    pub fn len(&self) -> usize {
        self.table.defs.len()
    }

    /// Whether nothing has been declared.
    pub fn is_empty(&self) -> bool {
        self.table.defs.is_empty()
    }

    fn declare(&mut self, name: &str, idx: &[i64], def: Def) -> DefId {
        let table = Rc::make_mut(&mut self.table);
        let ident = Ident::indexed(table.interner.intern(name), idx.to_vec());
        let id = DefId(table.defs.len() as u32);
        match table.index.entry(ident.clone()) {
            Entry::Vacant(slot) => {
                slot.insert(id);
            }
            Entry::Occupied(_) => {
                if self.redeclared.is_none() {
                    self.redeclared = Some(ident.render(&table.interner));
                }
            }
        }
        table.defs.push((ident, def));
        id
    }

    /// Declares a top-level (unindexed) Boolean event.
    pub fn declare_event(&mut self, name: &str, rhs: Rc<Event>) -> EventId {
        self.declare_event_at(name, &[], rhs)
    }

    /// Declares an indexed Boolean event, e.g. `InCl[0][3]`.
    pub fn declare_event_at(&mut self, name: &str, idx: &[i64], rhs: Rc<Event>) -> EventId {
        EventId(self.declare(name, idx, Def::Event(rhs)))
    }

    /// Declares a top-level (unindexed) c-value.
    pub fn declare_cval(&mut self, name: &str, rhs: Rc<CVal>) -> CValId {
        self.declare_cval_at(name, &[], rhs)
    }

    /// Declares an indexed c-value, e.g. `M[1][2]`.
    pub fn declare_cval_at(&mut self, name: &str, idx: &[i64], rhs: Rc<CVal>) -> CValId {
        CValId(self.declare(name, idx, Def::CVal(rhs)))
    }

    /// Declares a top-level Boolean event from a *closed* expression (no
    /// `Ref`s), the shape produced by the lineage generators of
    /// `enframe-data`. This makes externally built lineage directly
    /// targetable by every compilation engine.
    ///
    /// Also registers the event's variables via [`Program::ensure_vars`],
    /// so the grounded program's variable count covers the lineage. Fails
    /// with [`CoreError::UnknownIdent`] if `e` refers to a declaration.
    pub fn declare_closed_event(
        &mut self,
        name: &str,
        e: &Rc<Event>,
    ) -> Result<EventId, CoreError> {
        if !closed(e) {
            return Err(CoreError::UnknownIdent(format!(
                "closed event `{name}` refers to a declaration"
            )));
        }
        let mut vars = Vec::new();
        e.collect_vars(&mut vars);
        if let Some(max) = vars.iter().map(|v| v.0).max() {
            self.ensure_vars(max + 1);
        }
        Ok(self.declare_event(name, e.clone()))
    }

    /// The event declared as `name[idx…]`, if there is one.
    pub fn event_at(&self, name: &str, idx: &[i64]) -> Option<EventId> {
        self.table.lookup(name, idx).and_then(|d| self.event_id(d))
    }

    /// The handle of definition `d` if it is an event of this program.
    pub fn event_id(&self, d: DefId) -> Option<EventId> {
        match self.table.defs.get(d.index()) {
            Some((_, Def::Event(_))) => Some(EventId(d)),
            _ => None,
        }
    }

    /// The handle of definition `d` if it is a c-value of this program.
    pub fn cval_id(&self, d: DefId) -> Option<CValId> {
        match self.table.defs.get(d.index()) {
            Some((_, Def::CVal(_))) => Some(CValId(d)),
            _ => None,
        }
    }

    /// Registers a compilation target.
    pub fn add_target(&mut self, id: EventId) {
        self.targets.push(id.0);
    }

    /// The grounded program: this program's definitions, shared rather
    /// than copied, and its targets. Fails with
    /// [`CoreError::Redeclaration`] if an identifier was declared twice.
    pub fn ground(&self) -> Result<GroundProgram, CoreError> {
        if let Some(ident) = &self.redeclared {
            return Err(CoreError::Redeclaration(ident.clone()));
        }
        Ok(GroundProgram {
            table: self.table.clone(),
            targets: self.targets.clone(),
            n_vars: self.n_vars,
        })
    }

    // --- expression helpers ---------------------------------------------

    /// A variable literal.
    pub fn var(v: Var) -> Rc<Event> {
        Event::var(v)
    }

    /// A negated variable literal.
    pub fn nvar(v: Var) -> Rc<Event> {
        Event::nvar(v)
    }

    /// Conjunction ([`Event::and`]).
    pub fn and(parts: impl IntoIterator<Item = Rc<Event>>) -> Rc<Event> {
        Event::and(parts)
    }

    /// Disjunction ([`Event::or`]).
    pub fn or(parts: impl IntoIterator<Item = Rc<Event>>) -> Rc<Event> {
        Event::or(parts)
    }

    /// Negation ([`Event::not`]).
    pub fn not(e: Rc<Event>) -> Rc<Event> {
        Event::not(e)
    }

    /// Reference to a declared event.
    pub fn eref(id: EventId) -> Rc<Event> {
        Rc::new(Event::Ref(id.0))
    }

    /// Reference to a declared c-value.
    pub fn cref(id: CValId) -> Rc<CVal> {
        Rc::new(CVal::Ref(id.0))
    }
}

/// Whether `e` refers to no declaration.
fn closed(e: &Event) -> bool {
    match e {
        Event::Tru | Event::Fls | Event::Var(_) => true,
        Event::Not(inner) => closed(inner),
        Event::And(parts) | Event::Or(parts) => parts.iter().all(|p| closed(p)),
        Event::Atom(_, a, b) => closed_cval(a) && closed_cval(b),
        Event::Ref(_) => false,
    }
}

fn closed_cval(c: &CVal) -> bool {
    match c {
        CVal::Const(_) => true,
        CVal::Cond(e, _) => closed(e),
        CVal::Guard(e, inner) => closed(e) && closed_cval(inner),
        CVal::Sum(parts) | CVal::Prod(parts) => parts.iter().all(|p| closed_cval(p)),
        CVal::Inv(inner) | CVal::Pow(inner, _) => closed_cval(inner),
        CVal::Dist(a, b) => closed_cval(a) && closed_cval(b),
        CVal::Ref(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CmpOp;
    use crate::value::Value;

    #[test]
    fn fresh_vars_are_sequential() {
        let mut p = Program::new();
        assert_eq!(p.fresh_var(), Var(0));
        assert_eq!(p.fresh_var(), Var(1));
        assert_eq!(p.n_vars(), 2);
        p.ensure_vars(10);
        assert_eq!(p.n_vars(), 10);
        p.ensure_vars(5);
        assert_eq!(p.n_vars(), 10);
    }

    #[test]
    fn closed_events_lift_and_ground() {
        use crate::{space, VarTable};
        // Φ = (x0 ∧ ¬x2) ∨ [x1 ⊗ 1 ≤ 0.5] — a closed event with an atom.
        let atom = Rc::new(Event::Atom(
            CmpOp::Le,
            CVal::cond(Event::var(Var(1)), Value::Num(1.0)),
            CVal::num(0.5),
        ));
        let phi = Event::or([Event::and([Event::var(Var(0)), Event::nvar(Var(2))]), atom]);
        let mut p = Program::new();
        let id = p.declare_closed_event("Phi", &phi).unwrap();
        p.add_target(id);
        assert_eq!(p.n_vars(), 3, "ensure_vars covers the lineage");
        let g = p.ground().unwrap();
        let vt = VarTable::new(vec![0.5, 0.5, 0.5]);
        let want: f64 = space::worlds(&vt)
            .filter(|(nu, _)| phi.eval_closed(nu).unwrap())
            .map(|(_, pr)| pr)
            .sum();
        let got = space::target_probabilities(&g, &vt);
        assert!((got[0] - want).abs() < 1e-12);
    }

    #[test]
    fn lifting_references_is_rejected() {
        // A reference anywhere in the term, here inside an atom.
        let mut p = Program::new();
        let c = p.declare_cval("C", CVal::num(1.0));
        let e = p.declare_event("E", Program::var(Var(0)));
        let atom = Rc::new(Event::Atom(CmpOp::Le, Program::cref(c), CVal::num(0.0)));
        assert!(p.declare_closed_event("A", &atom).is_err());
        let guarded = Event::and([Program::var(Var(1)), Program::eref(e)]);
        assert!(p.declare_closed_event("G", &guarded).is_err());
        assert_eq!(p.len(), 2, "a rejected event is not declared");
    }

    #[test]
    fn handles_are_kinded() {
        let mut p = Program::new();
        let e = p.declare_event_at("E", &[2], Program::var(Var(0)));
        let c = p.declare_cval("C", CVal::num(1.0));
        assert_eq!(p.event_at("E", &[2]), Some(e));
        assert_eq!(p.event_at("C", &[]), None, "a c-value is no event");
        assert_eq!(p.event_id(c.def()), None);
        assert_eq!(p.cval_id(c.def()), Some(c));
        assert_eq!(p.cval_id(DefId(9)), None);
    }
}
