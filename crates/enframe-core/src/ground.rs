//! Grounding of symbolic event programs and the reference evaluator.
//!
//! "The meaning of an event program is simply the set of all named and
//! grounded c-value and event expressions defined by the program" (§3.4).
//! [`ground_program`] instantiates every `∀`-loop and big operator,
//! resolves identifier references to [`DefId`]s, and enforces the
//! single-assignment discipline of event declarations.
//!
//! The [`Evaluator`] implements the valuation semantics of §3.2 directly
//! over the grounded definitions, memoising shared subexpressions. It is
//! deliberately simple: it is the *reference* semantics used to validate
//! the optimized compilation engines in `enframe-prob`, and the engine of
//! the naïve per-world baseline in `enframe-worlds`.

use crate::event::{CVal, Event};
use crate::fxhash::FxHashMap;
use crate::program::{Item, Program, SymCVal, SymEvent, SymIdent, TargetSpec, ValSrc};
use crate::symbol::{Interner, Symbol};
use crate::value::Value;
use crate::var::Valuation;
use crate::CoreError;
use std::collections::HashMap;
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
    /// An identifier with no indices.
    pub fn plain(sym: Symbol) -> Self {
        Ident { sym, idx: vec![] }
    }

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

impl Def {
    /// Whether this is a Boolean definition.
    pub fn is_event(&self) -> bool {
        matches!(self, Def::Event(_))
    }
}

/// A fully grounded event program: a flat, dependency-ordered definition
/// table plus compilation targets.
#[derive(Debug, Clone)]
pub struct GroundProgram {
    /// Identifier interner (shared with the source program).
    pub interner: Interner,
    defs: Vec<(Ident, Def)>,
    index: FxHashMap<Ident, DefId>,
    /// Compilation targets, in registration order.
    pub targets: Vec<DefId>,
    /// Number of input random variables.
    pub n_vars: u32,
}

impl GroundProgram {
    /// The definitions in declaration (hence dependency) order.
    pub fn defs(&self) -> &[(Ident, Def)] {
        &self.defs
    }

    /// Number of grounded definitions.
    pub fn len(&self) -> usize {
        self.defs.len()
    }

    /// Whether the program has no definitions.
    pub fn is_empty(&self) -> bool {
        self.defs.is_empty()
    }

    /// Looks up a definition id by identifier.
    pub fn lookup(&self, ident: &Ident) -> Option<DefId> {
        self.index.get(ident).copied()
    }

    /// Looks up a definition id by name and indices.
    pub fn lookup_named(&self, name: &str, idx: &[i64]) -> Option<DefId> {
        let sym = self.interner.get(name)?;
        self.lookup(&Ident::indexed(sym, idx.to_vec()))
    }

    /// The identifier of a definition.
    pub fn ident(&self, id: DefId) -> &Ident {
        &self.defs[id.index()].0
    }

    /// The body of a definition.
    pub fn def(&self, id: DefId) -> &Def {
        &self.defs[id.index()].1
    }

    /// Human-readable name of a definition.
    pub fn name_of(&self, id: DefId) -> String {
        self.ident(id).render(&self.interner)
    }

    /// All definition ids whose base name matches `name`.
    pub fn family(&self, name: &str) -> Vec<DefId> {
        match self.interner.get(name) {
            None => vec![],
            Some(sym) => self
                .defs
                .iter()
                .enumerate()
                .filter(|(_, (id, _))| id.sym == sym)
                .map(|(i, _)| DefId(i as u32))
                .collect(),
        }
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
///
/// Construct once and call [`Evaluator::reset`] between valuations to reuse
/// the memo allocations.
pub struct Evaluator<'a> {
    gp: &'a GroundProgram,
    memo_bool: Vec<Option<bool>>,
    memo_val: Vec<Option<Value>>,
}

impl<'a> Evaluator<'a> {
    /// Creates an evaluator for `gp`.
    pub fn new(gp: &'a GroundProgram) -> Self {
        Evaluator {
            gp,
            memo_bool: vec![None; gp.len()],
            memo_val: vec![None; gp.len()],
        }
    }

    /// Clears memoised results (call between valuations).
    pub fn reset(&mut self) {
        self.memo_bool.fill(None);
        self.memo_val.fill(None);
    }

    /// Evaluates Boolean definition `id` under `nu`.
    pub fn event(&mut self, id: DefId, nu: &Valuation) -> Result<bool, CoreError> {
        if let Some(b) = self.memo_bool[id.index()] {
            return Ok(b);
        }
        let expr = match self.gp.def(id) {
            Def::Event(e) => e.clone(),
            Def::CVal(_) => {
                return Err(CoreError::TypeMismatch {
                    ident: self.gp.name_of(id),
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
        if let Some(v) = &self.memo_val[id.index()] {
            return Ok(v.clone());
        }
        let expr = match self.gp.def(id) {
            Def::CVal(c) => c.clone(),
            Def::Event(_) => {
                return Err(CoreError::TypeMismatch {
                    ident: self.gp.name_of(id),
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

// ---------------------------------------------------------------------------
// Grounding
// ---------------------------------------------------------------------------

struct Grounder<'a> {
    program: &'a Program,
    defs: Vec<(Ident, Def)>,
    index: FxHashMap<Ident, DefId>,
    env: HashMap<Symbol, i64>,
    /// The identifier [`Grounder::ground_ident`] evaluated last; reused so
    /// that resolving a reference allocates nothing.
    ident: Ident,
    /// Grounded form of every *shared* symbolic term met outside all
    /// loops, by `Rc` address. The translator shares sub-terms heavily
    /// (every read of a slot clones its `Rc`; `breakTies` nests each
    /// prefix disjunction inside the next), and grounding a shared term
    /// once keeps both this pass and everything downstream — which memoise
    /// by address too — proportional to the program rather than to its
    /// tree expansion. A term under a loop binding grounds differently
    /// per iteration and is never memoised.
    events: FxHashMap<*const SymEvent, Rc<Event>>,
    cvals: FxHashMap<*const SymCVal, Rc<CVal>>,
}

/// Grounds a symbolic [`Program`] into a flat [`GroundProgram`].
pub fn ground_program(program: &Program) -> Result<GroundProgram, CoreError> {
    let mut g = Grounder {
        program,
        defs: Vec::new(),
        index: FxHashMap::default(),
        env: HashMap::new(),
        ident: Ident::plain(Symbol(0)),
        events: FxHashMap::default(),
        cvals: FxHashMap::default(),
    };
    g.items(&program.items)?;

    let mut targets = Vec::new();
    for spec in &program.targets {
        match spec {
            TargetSpec::Exact(si) => {
                g.ground_ident(si)?;
                let def =
                    g.index.get(&g.ident).copied().ok_or_else(|| {
                        CoreError::UnknownTarget(g.ident.render(&program.interner))
                    })?;
                targets.push(def);
            }
            TargetSpec::Family(sym) => {
                let mut found = false;
                for (i, (ident, _)) in g.defs.iter().enumerate() {
                    if ident.sym == *sym {
                        targets.push(DefId(i as u32));
                        found = true;
                    }
                }
                if !found {
                    return Err(CoreError::UnknownTarget(
                        program.interner.resolve(*sym).to_owned(),
                    ));
                }
            }
        }
    }

    Ok(GroundProgram {
        interner: program.interner.clone(),
        defs: g.defs,
        index: g.index,
        targets,
        n_vars: program.n_vars(),
    })
}

impl<'a> Grounder<'a> {
    fn items(&mut self, items: &[Item]) -> Result<(), CoreError> {
        for item in items {
            match item {
                Item::DeclEvent { lhs, rhs } => {
                    let body = self.event(rhs)?;
                    self.define(lhs, Def::Event(body))?;
                }
                Item::DeclCVal { lhs, rhs } => {
                    let body = self.cval(rhs)?;
                    self.define(lhs, Def::CVal(body))?;
                }
                Item::Loop { var, lo, hi, body } => {
                    let lo = lo.eval(&self.env, &self.program.interner)?;
                    let hi = hi.eval(&self.env, &self.program.interner)?;
                    let saved = self.env.get(var).copied();
                    for i in lo..hi {
                        self.env.insert(*var, i);
                        self.items(body)?;
                    }
                    match saved {
                        Some(v) => {
                            self.env.insert(*var, v);
                        }
                        None => {
                            self.env.remove(var);
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn define(&mut self, lhs: &SymIdent, def: Def) -> Result<(), CoreError> {
        self.ground_ident(lhs)?;
        if self.index.contains_key(&self.ident) {
            return Err(CoreError::Redeclaration(
                self.ident.render(&self.program.interner),
            ));
        }
        let id = DefId(self.defs.len() as u32);
        self.index.insert(self.ident.clone(), id);
        self.defs.push((self.ident.clone(), def));
        Ok(())
    }

    /// Evaluates `si` under the current loop bindings into `self.ident`.
    fn ground_ident(&mut self, si: &SymIdent) -> Result<(), CoreError> {
        self.ident.sym = si.sym;
        self.ident.idx.clear();
        for e in &si.idx {
            let i = e.eval(&self.env, &self.program.interner)?;
            self.ident.idx.push(i);
        }
        Ok(())
    }

    /// Resolves a reference to an already grounded definition of the
    /// wanted kind.
    fn resolve_ref(&mut self, si: &SymIdent, want_event: bool) -> Result<DefId, CoreError> {
        self.ground_ident(si)?;
        let id =
            self.index.get(&self.ident).copied().ok_or_else(|| {
                CoreError::UnknownIdent(self.ident.render(&self.program.interner))
            })?;
        if self.defs[id.index()].1.is_event() != want_event {
            return Err(CoreError::TypeMismatch {
                ident: self.ident.render(&self.program.interner),
                expected: if want_event { "an event" } else { "a c-value" },
            });
        }
        Ok(id)
    }

    fn value_of(&self, src: &ValSrc) -> Result<Value, CoreError> {
        match src {
            ValSrc::Const(v) => Ok(v.clone()),
            ValSrc::Data { table, index } => {
                let mut idx = Vec::with_capacity(index.len());
                for e in index {
                    idx.push(e.eval(&self.env, &self.program.interner)?);
                }
                let t =
                    self.program.tables.get(table.0 as usize).ok_or_else(|| {
                        CoreError::ValueType(format!("unknown table {}", table.0))
                    })?;
                t.get(&idx).cloned()
            }
        }
    }

    fn event(&mut self, e: &Rc<SymEvent>) -> Result<Rc<Event>, CoreError> {
        let memoise = Rc::strong_count(e) > 1 && self.env.is_empty();
        if memoise {
            if let Some(done) = self.events.get(&Rc::as_ptr(e)) {
                return Ok(done.clone());
            }
        }
        let out = match &**e {
            SymEvent::Tru => Rc::new(Event::Tru),
            SymEvent::Fls => Rc::new(Event::Fls),
            SymEvent::Var(v) => Rc::new(Event::Var(*v)),
            SymEvent::Not(inner) => Event::not(self.event(inner)?),
            SymEvent::And(parts) => {
                let parts = parts
                    .iter()
                    .map(|p| self.event(p))
                    .collect::<Result<Vec<_>, _>>()?;
                Event::and(parts)
            }
            SymEvent::Or(parts) => {
                let parts = parts
                    .iter()
                    .map(|p| self.event(p))
                    .collect::<Result<Vec<_>, _>>()?;
                Event::or(parts)
            }
            SymEvent::Atom(op, a, b) => Rc::new(Event::Atom(*op, self.cval(a)?, self.cval(b)?)),
            SymEvent::Ref(si) => Rc::new(Event::Ref(self.resolve_ref(si, true)?)),
            SymEvent::BigAnd { var, lo, hi, body } => {
                let parts = self.expand_range(*var, lo, hi, |g| g.event(body))?;
                Event::and(parts)
            }
            SymEvent::BigOr { var, lo, hi, body } => {
                let parts = self.expand_range(*var, lo, hi, |g| g.event(body))?;
                Event::or(parts)
            }
        };
        if memoise {
            self.events.insert(Rc::as_ptr(e), out.clone());
        }
        Ok(out)
    }

    fn cval(&mut self, c: &Rc<SymCVal>) -> Result<Rc<CVal>, CoreError> {
        let memoise = Rc::strong_count(c) > 1 && self.env.is_empty();
        if memoise {
            if let Some(done) = self.cvals.get(&Rc::as_ptr(c)) {
                return Ok(done.clone());
            }
        }
        let out = match &**c {
            SymCVal::Lit(src) => Rc::new(CVal::Const(self.value_of(src)?)),
            SymCVal::Cond(e, src) => {
                let ev = self.event(e)?;
                let v = self.value_of(src)?;
                Rc::new(CVal::Cond(ev, v))
            }
            SymCVal::Guard(e, inner) => Rc::new(CVal::Guard(self.event(e)?, self.cval(inner)?)),
            SymCVal::Sum(parts) => Rc::new(CVal::Sum(
                parts
                    .iter()
                    .map(|p| self.cval(p))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            SymCVal::Prod(parts) => Rc::new(CVal::Prod(
                parts
                    .iter()
                    .map(|p| self.cval(p))
                    .collect::<Result<Vec<_>, _>>()?,
            )),
            SymCVal::Inv(inner) => Rc::new(CVal::Inv(self.cval(inner)?)),
            SymCVal::Pow(inner, r) => Rc::new(CVal::Pow(self.cval(inner)?, *r)),
            SymCVal::Dist(a, b) => Rc::new(CVal::Dist(self.cval(a)?, self.cval(b)?)),
            SymCVal::Ref(si) => Rc::new(CVal::Ref(self.resolve_ref(si, false)?)),
            SymCVal::BigSum { var, lo, hi, body } => {
                let parts = self.expand_range(*var, lo, hi, |g| g.cval(body))?;
                Rc::new(CVal::Sum(parts))
            }
            SymCVal::BigProd { var, lo, hi, body } => {
                let parts = self.expand_range(*var, lo, hi, |g| g.cval(body))?;
                Rc::new(CVal::Prod(parts))
            }
        };
        if memoise {
            self.cvals.insert(Rc::as_ptr(c), out.clone());
        }
        Ok(out)
    }

    fn expand_range<T>(
        &mut self,
        var: Symbol,
        lo: &crate::program::IdxExpr,
        hi: &crate::program::IdxExpr,
        mut f: impl FnMut(&mut Self) -> Result<T, CoreError>,
    ) -> Result<Vec<T>, CoreError> {
        let lo = lo.eval(&self.env, &self.program.interner)?;
        let hi = hi.eval(&self.env, &self.program.interner)?;
        let saved = self.env.get(&var).copied();
        let mut out = Vec::with_capacity((hi - lo).max(0) as usize);
        for i in lo..hi {
            self.env.insert(var, i);
            out.push(f(self)?);
        }
        match saved {
            Some(v) => {
                self.env.insert(var, v);
            }
            None => {
                self.env.remove(&var);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{DataTable, IdxExpr, SymCVal, SymEvent, SymIdent, ValSrc};
    use crate::CmpOp;
    use crate::Var;

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
        p.declare_event_at("Phi", &[0], Rc::new(SymEvent::Tru));
        assert!(matches!(p.ground(), Err(CoreError::Redeclaration(_))));
    }

    #[test]
    fn loops_instantiate_identifiers() {
        // ∀i in 0..3: O[i] ≡ x_i  — via a data-free loop over variables.
        let mut p = Program::new();
        for _ in 0..3 {
            p.fresh_var();
        }
        let i = p.sym("i");
        let o = p.sym("O");
        // Use BigOr over a single-element range to exercise symbolic bounds.
        let body = vec![Item::DeclEvent {
            lhs: SymIdent::indexed(o, vec![IdxExpr::var(i)]),
            rhs: Rc::new(SymEvent::BigOr {
                var: p.sym("j"),
                lo: IdxExpr::var(i),
                hi: IdxExpr::affine(i, 1, 1),
                body: Rc::new(SymEvent::Var(Var(0))),
            }),
        }];
        p.push(Item::Loop {
            var: i,
            lo: IdxExpr::konst(0),
            hi: IdxExpr::konst(3),
            body,
        });
        let g = p.ground().unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.name_of(DefId(2)), "O[2]");
    }

    #[test]
    fn reference_resolution_and_eval() {
        let mut p = example1();
        // Query: are o1 and o2 both present? E ≡ Phi[1] ∧ Phi[2].
        let phi = p.sym("Phi");
        let e = p.declare_event(
            "Both",
            Program::and([
                Program::eref(SymIdent::indexed(phi, vec![IdxExpr::konst(1)])),
                Program::eref(SymIdent::indexed(phi, vec![IdxExpr::konst(2)])),
            ]),
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
    fn family_targets_collect_all_members() {
        let mut p = example1();
        p.add_target_family("Phi");
        let g = p.ground().unwrap();
        assert_eq!(g.targets.len(), 4);
    }

    #[test]
    fn unknown_reference_is_reported() {
        let mut p = Program::new();
        let nope = p.sym("Nope");
        p.declare_event("E", Program::eref(SymIdent::plain(nope)));
        assert!(matches!(p.ground(), Err(CoreError::UnknownIdent(_))));
    }

    #[test]
    fn type_mismatch_on_ref_is_reported() {
        let mut p = Program::new();
        let c = p.declare_cval("C", Rc::new(SymCVal::Lit(ValSrc::Const(Value::Num(1.0)))));
        p.declare_event("E", Program::eref(c));
        assert!(matches!(p.ground(), Err(CoreError::TypeMismatch { .. })));
    }

    #[test]
    fn data_table_lookup_in_loops() {
        // ∀i in 0..2: O[i] ≡ x_i ⊗ data[i]; target distribution checked
        // via direct eval.
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let t = p.add_table(DataTable::new(
            vec![2],
            vec![Value::Num(10.0), Value::Num(20.0)],
        ));
        let i = p.sym("i");
        let o = p.sym("O");
        p.push(Item::Loop {
            var: i,
            lo: IdxExpr::konst(0),
            hi: IdxExpr::konst(2),
            body: vec![Item::DeclCVal {
                lhs: SymIdent::indexed(o, vec![IdxExpr::var(i)]),
                rhs: Rc::new(SymCVal::Cond(
                    // Event x_i: encode by Or over one variable each — here
                    // pick statically since vars can't be loop-indexed in
                    // this test; use i=0 -> x0, i=1 -> x1 via BigOr trick is
                    // overkill, so declare separately below.
                    Rc::new(SymEvent::Tru),
                    ValSrc::Data {
                        table: t,
                        index: vec![IdxExpr::var(i)],
                    },
                )),
            }],
        });
        let _ = (x0, x1);
        let g = p.ground().unwrap();
        let id0 = g.lookup_named("O", &[0]).unwrap();
        let id1 = g.lookup_named("O", &[1]).unwrap();
        let nu = Valuation::from_bits(vec![false, false]);
        assert_eq!(g.eval_value(id0, &nu).unwrap(), Value::Num(10.0));
        assert_eq!(g.eval_value(id1, &nu).unwrap(), Value::Num(20.0));
    }

    #[test]
    fn big_sum_with_atoms() {
        // DistSum-style: Σ_{p=0..3} (x_p ∧ ⊤ ⊗ p) then an atom comparing to 3.
        let mut p = Program::new();
        for _ in 0..3 {
            p.fresh_var();
        }
        let pp = p.sym("p");
        // Values 0,1,2 in a table indexed by p.
        let t = p.add_table(DataTable::new(
            vec![3],
            (0..3).map(|v| Value::Num(v as f64)).collect(),
        ));
        // Variables: can't index vars by loop counter directly in SymEvent;
        // model x_p via per-p declarations referenced inside the loop body.
        let xsym = p.sym("X");
        for j in 0..3 {
            p.declare_event_at("X", &[j], Program::var(Var(j as u32)));
        }
        let sum = Rc::new(SymCVal::BigSum {
            var: pp,
            lo: IdxExpr::konst(0),
            hi: IdxExpr::konst(3),
            body: Rc::new(SymCVal::Cond(
                Rc::new(SymEvent::Ref(SymIdent::indexed(
                    xsym,
                    vec![IdxExpr::var(pp)],
                ))),
                ValSrc::Data {
                    table: t,
                    index: vec![IdxExpr::var(pp)],
                },
            )),
        });
        let s = p.declare_cval("S", sum);
        let atom = p.declare_event(
            "A",
            Rc::new(SymEvent::Atom(
                CmpOp::Ge,
                Program::cref(s),
                Rc::new(SymCVal::Lit(ValSrc::Const(Value::Num(3.0)))),
            )),
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
    fn nested_loop_env_restored() {
        // ∀i in 0..2 { ∀j in 0..2 { A[i][j] ≡ ⊤ } ; B[i] ≡ ⊤ }
        let mut p = Program::new();
        let (i, j) = (p.sym("i"), p.sym("j"));
        let (a, b) = (p.sym("A"), p.sym("B"));
        p.push(Item::Loop {
            var: i,
            lo: IdxExpr::konst(0),
            hi: IdxExpr::konst(2),
            body: vec![
                Item::Loop {
                    var: j,
                    lo: IdxExpr::konst(0),
                    hi: IdxExpr::konst(2),
                    body: vec![Item::DeclEvent {
                        lhs: SymIdent::indexed(a, vec![IdxExpr::var(i), IdxExpr::var(j)]),
                        rhs: Rc::new(SymEvent::Tru),
                    }],
                },
                Item::DeclEvent {
                    lhs: SymIdent::indexed(b, vec![IdxExpr::var(i)]),
                    rhs: Rc::new(SymEvent::Tru),
                },
            ],
        });
        let g = p.ground().unwrap();
        assert_eq!(g.len(), 6);
        assert!(g.lookup_named("A", &[1, 1]).is_some());
        assert!(g.lookup_named("B", &[1]).is_some());
    }

    #[test]
    fn empty_loop_produces_nothing() {
        let mut p = Program::new();
        let i = p.sym("i");
        let a = p.sym("A");
        p.push(Item::Loop {
            var: i,
            lo: IdxExpr::konst(2),
            hi: IdxExpr::konst(2),
            body: vec![Item::DeclEvent {
                lhs: SymIdent::indexed(a, vec![IdxExpr::var(i)]),
                rhs: Rc::new(SymEvent::Tru),
            }],
        });
        let g = p.ground().unwrap();
        assert!(g.is_empty());
    }
}
