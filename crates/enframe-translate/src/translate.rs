//! The translator: abstract execution of user programs into event programs.
//!
//! All control flow of the user language is compile-time concrete (bounded
//! loops, constant array shapes), so the translator simply *executes* the
//! program over [`Slot`]s. Concrete sub-computations (loop counters, array
//! sizes, arithmetic over certain data) are evaluated on the spot with the
//! interpreter's value semantics; anything touched by uncertain data turns
//! symbolic, and every assignment of a symbolic value emits an immutable,
//! versioned event declaration.
//!
//! Constant folding is semantically exact: concrete parts of aggregates are
//! pre-accumulated (this is the paper's §5 observation that distance sums
//! "can be initialised using the distances to objects that certainly
//! exist"), comparisons between certain values fold to constants, and
//! `u`-absorption is applied eagerly.

use crate::env::{ProbEnv, ProbValue};
use enframe_core::{CVal, CValId, CmpOp, CoreError, Event, GroundProgram, Program, Value};
use enframe_lang::ast::{
    Cmp, Expr, ExtCall, ListCompr, Lval, ReduceKind, Stmt, TieKind, UserProgram,
};
use enframe_lang::{LangError, RtValue};
use std::borrow::Cow;
use std::collections::HashMap;
use std::rc::Rc;

/// Errors raised during translation.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslateError {
    /// An error bubbled up from the language layer.
    Lang(LangError),
    /// An error bubbled up from the event-language layer.
    Core(CoreError),
    /// A construct outside the translatable fragment was used with
    /// uncertain data (e.g. symbolic loop bounds).
    Unsupported(String),
}

impl From<LangError> for TranslateError {
    fn from(e: LangError) -> Self {
        TranslateError::Lang(e)
    }
}

impl From<CoreError> for TranslateError {
    fn from(e: CoreError) -> Self {
        TranslateError::Core(e)
    }
}

impl std::fmt::Display for TranslateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TranslateError::Lang(e) => write!(f, "{e}"),
            TranslateError::Core(e) => write!(f, "{e}"),
            TranslateError::Unsupported(m) => write!(f, "unsupported: {m}"),
        }
    }
}

impl std::error::Error for TranslateError {}

/// A translation-time value.
#[derive(Debug, Clone)]
pub enum Slot {
    /// A certain value, evaluated concretely.
    Concrete(RtValue),
    /// A symbolic Boolean event (usually a reference to a declaration).
    Event(Rc<Event>),
    /// A symbolic conditional value.
    CVal(Rc<CVal>),
    /// An array of slots (structure is always concrete).
    Array(Vec<Slot>),
}

impl Slot {
    /// Concrete integer payload, if any.
    fn as_int(&self) -> Option<i64> {
        match self {
            Slot::Concrete(RtValue::Int(i)) => Some(*i),
            _ => None,
        }
    }

    /// Whether this slot is a symbolic event or a concrete Boolean.
    fn is_boolish(&self) -> bool {
        matches!(self, Slot::Event(_) | Slot::Concrete(RtValue::Bool(_)))
    }
}

/// The result of translating a user program.
#[derive(Debug)]
pub struct Translated {
    /// The generated event program (flat declarations, concrete indices).
    pub program: Program,
    /// Final variable bindings of the abstract execution.
    pub slots: HashMap<String, Slot>,
    /// For the outermost `for` loop: the number of declarations present at
    /// the start of each iteration: the boundaries that compiling
    /// iteration *i + 1* against iteration *i*'s artifact (delta
    /// compilation across iterations) starts from.
    pub outer_iter_boundaries: Vec<usize>,
}

impl Translated {
    /// Grounds the event program.
    pub fn ground(&self) -> Result<GroundProgram, CoreError> {
        self.program.ground()
    }

    /// The final slot of a variable.
    pub fn slot(&self, name: &str) -> Option<&Slot> {
        self.slots.get(name)
    }

    /// Navigates an array slot by indices.
    pub fn slot_at<'a>(&'a self, name: &str, idx: &[usize]) -> Option<&'a Slot> {
        let mut cur = self.slots.get(name)?;
        for &i in idx {
            match cur {
                Slot::Array(items) => cur = items.get(i)?,
                _ => return None,
            }
        }
        Some(cur)
    }

    /// The c-value declared at `name[idx...]`, if any.
    pub fn cval_ident(&self, name: &str, idx: &[usize]) -> Option<CValId> {
        match self.slot_at(name, idx)? {
            Slot::CVal(c) => match **c {
                CVal::Ref(d) => self.program.cval_id(d),
                _ => None,
            },
            _ => None,
        }
    }
}

/// Translates a user program against a probabilistic environment.
pub fn translate(program: &UserProgram, ext: &ProbEnv) -> Result<Translated, TranslateError> {
    let mut tr = Tr {
        prog: Program::new(),
        vars: HashMap::new(),
        versions: HashMap::new(),
        ext,
        outer_iter_boundaries: Vec::new(),
        seen_outer_loop: false,
    };
    tr.prog.ensure_vars(ext.n_vars);
    for stmt in &program.stmts {
        tr.stmt(stmt, true)?;
    }
    Ok(Translated {
        program: tr.prog,
        slots: tr.vars,
        outer_iter_boundaries: tr.outer_iter_boundaries,
    })
}

/// Rejects lineage that is not a closed propositional formula over input
/// variables. External lineage is used as it is, so this is its one check.
pub(crate) fn check_lineage<'a>(
    lineage: impl IntoIterator<Item = &'a Rc<Event>>,
) -> Result<(), TranslateError> {
    fn propositional(e: &Event) -> bool {
        match e {
            Event::Tru | Event::Fls | Event::Var(_) => true,
            Event::Not(inner) => propositional(inner),
            Event::And(parts) | Event::Or(parts) => parts.iter().all(|p| propositional(p)),
            Event::Atom(..) | Event::Ref(_) => false,
        }
    }
    if lineage.into_iter().all(|e| propositional(e)) {
        Ok(())
    } else {
        Err(TranslateError::Unsupported(
            "lineage events must be propositional formulas over input variables".into(),
        ))
    }
}

fn rt_to_value(rt: &RtValue) -> Result<Value, TranslateError> {
    Ok(match rt {
        RtValue::Undef => Value::Undef,
        RtValue::Int(i) => Value::Num(*i as f64),
        RtValue::Float(f) => Value::Num(*f),
        RtValue::Point(p) => Value::point(p),
        other => {
            return Err(TranslateError::Unsupported(format!(
                "cannot embed {} into the event language",
                other.kind()
            )))
        }
    })
}

struct Tr<'e> {
    prog: Program,
    vars: HashMap<String, Slot>,
    versions: HashMap<String, i64>,
    ext: &'e ProbEnv,
    outer_iter_boundaries: Vec<usize>,
    seen_outer_loop: bool,
}

impl<'e> Tr<'e> {
    // ---- symbolic/concrete helpers --------------------------------------

    fn to_event(&self, s: &Slot) -> Result<Rc<Event>, TranslateError> {
        match s {
            Slot::Concrete(RtValue::Bool(true)) => Ok(Rc::new(Event::Tru)),
            Slot::Concrete(RtValue::Bool(false)) => Ok(Rc::new(Event::Fls)),
            Slot::Event(e) => Ok(e.clone()),
            other => Err(TranslateError::Unsupported(format!(
                "expected a Boolean, found {other:?}"
            ))),
        }
    }

    fn to_cval(&self, s: &Slot) -> Result<Rc<CVal>, TranslateError> {
        match s {
            Slot::Concrete(rt) => Ok(Rc::new(CVal::Const(rt_to_value(rt)?))),
            Slot::CVal(c) => Ok(c.clone()),
            other => Err(TranslateError::Unsupported(format!(
                "expected a numeric value, found {other:?}"
            ))),
        }
    }

    fn b_not(&self, s: Slot) -> Result<Slot, TranslateError> {
        Ok(match s {
            Slot::Concrete(RtValue::Bool(b)) => Slot::Concrete(RtValue::Bool(!b)),
            Slot::Event(e) => Slot::Event(Event::not(e)),
            other => {
                return Err(TranslateError::Unsupported(format!(
                    "negation of non-Boolean {other:?}"
                )))
            }
        })
    }

    fn b_and(&self, a: Slot, b: Slot) -> Result<Slot, TranslateError> {
        Ok(match (a, b) {
            (Slot::Concrete(RtValue::Bool(false)), _)
            | (_, Slot::Concrete(RtValue::Bool(false))) => Slot::Concrete(RtValue::Bool(false)),
            (Slot::Concrete(RtValue::Bool(true)), x) | (x, Slot::Concrete(RtValue::Bool(true))) => {
                x
            }
            (Slot::Event(x), Slot::Event(y)) => Slot::Event(Event::and([x, y])),
            (a, b) => {
                return Err(TranslateError::Unsupported(format!(
                    "conjunction of {a:?} and {b:?}"
                )))
            }
        })
    }

    fn b_or(&self, a: Slot, b: Slot) -> Result<Slot, TranslateError> {
        Ok(match (a, b) {
            (Slot::Concrete(RtValue::Bool(true)), _) | (_, Slot::Concrete(RtValue::Bool(true))) => {
                Slot::Concrete(RtValue::Bool(true))
            }
            (Slot::Concrete(RtValue::Bool(false)), x)
            | (x, Slot::Concrete(RtValue::Bool(false))) => x,
            (Slot::Event(x), Slot::Event(y)) => Slot::Event(Event::or([x, y])),
            (a, b) => {
                return Err(TranslateError::Unsupported(format!(
                    "disjunction of {a:?} and {b:?}"
                )))
            }
        })
    }

    // ---- declaration machinery -------------------------------------------

    fn bump(&mut self, name: &str) -> i64 {
        let v = self.versions.entry(name.to_owned()).or_insert(0);
        let out = *v;
        *v += 1;
        out
    }

    /// Declares symbolic parts of `slot` as named events/c-values, returning
    /// a slot of references. Concrete parts stay concrete.
    fn declare_slot(
        &mut self,
        name: &str,
        version: i64,
        path: &mut Vec<i64>,
        slot: Slot,
    ) -> Result<Slot, TranslateError> {
        match slot {
            Slot::Concrete(rt) => Ok(Slot::Concrete(rt)),
            Slot::Array(items) => {
                let mut out = Vec::with_capacity(items.len());
                for (i, item) in items.into_iter().enumerate() {
                    path.push(i as i64);
                    out.push(self.declare_slot(name, version, path, item)?);
                    path.pop();
                }
                Ok(Slot::Array(out))
            }
            Slot::Event(e) => {
                let mut idx = vec![version];
                idx.extend_from_slice(path);
                let id = self.prog.declare_event_at(name, &idx, e);
                Ok(Slot::Event(Program::eref(id)))
            }
            Slot::CVal(c) => {
                let mut idx = vec![version];
                idx.extend_from_slice(path);
                let id = self.prog.declare_cval_at(name, &idx, c);
                Ok(Slot::CVal(Program::cref(id)))
            }
        }
    }

    // ---- external bindings ------------------------------------------------

    fn bind_external(&mut self, name: &str, value: &ProbValue) -> Result<(), TranslateError> {
        let slot = match value {
            ProbValue::Certain(rt) => Slot::Concrete(rt.clone()),
            ProbValue::Objects(objs) => {
                check_lineage(&objs.lineage)?;
                let version = self.bump(name);
                let mut items = Vec::with_capacity(objs.len());
                for (l, (p, phi)) in objs.points.iter().zip(&objs.lineage).enumerate() {
                    if matches!(**phi, Event::Tru) {
                        items.push(Slot::Concrete(RtValue::Point(p.clone())));
                        continue;
                    }
                    let cv = CVal::cond(phi.clone(), Value::point(p));
                    let id = self.prog.declare_cval_at(name, &[version, l as i64], cv);
                    items.push(Slot::CVal(Program::cref(id)));
                }
                Slot::Array(items)
            }
            ProbValue::SeedMedoids(seeds) => {
                let ext = self.ext;
                let objs = ext.objects().ok_or_else(|| {
                    TranslateError::Unsupported("SeedMedoids requires Objects in loadData()".into())
                })?;
                let (points, lineage) = (&objs.points, &objs.lineage);
                check_lineage(seeds.iter().map(|&s| &lineage[s]))?;
                let version = self.bump(name);
                let mut items = Vec::with_capacity(seeds.len());
                for (i, &s) in seeds.iter().enumerate() {
                    if matches!(*lineage[s], Event::Tru) {
                        items.push(Slot::Concrete(RtValue::Point(points[s].clone())));
                        continue;
                    }
                    let cv = CVal::cond(lineage[s].clone(), Value::point(&points[s]));
                    let id = self.prog.declare_cval_at(name, &[version, i as i64], cv);
                    items.push(Slot::CVal(Program::cref(id)));
                }
                Slot::Array(items)
            }
            ProbValue::Matrix(m) => {
                let version = self.bump(name);
                let certain = m.node_lineage.iter().all(|e| matches!(**e, Event::Tru));
                if !certain {
                    check_lineage(&m.node_lineage)?;
                }
                let mut rows = Vec::with_capacity(m.weights.len());
                for (i, row) in m.weights.iter().enumerate() {
                    let mut out_row = Vec::with_capacity(row.len());
                    for (j, &w) in row.iter().enumerate() {
                        if certain {
                            out_row.push(Slot::Concrete(RtValue::Float(w)));
                            continue;
                        }
                        let guard =
                            Event::and([m.node_lineage[i].clone(), m.node_lineage[j].clone()]);
                        let cv = CVal::cond(guard, Value::Num(w));
                        let id =
                            self.prog
                                .declare_cval_at(name, &[version, i as i64, j as i64], cv);
                        out_row.push(Slot::CVal(Program::cref(id)));
                    }
                    rows.push(Slot::Array(out_row));
                }
                Slot::Array(rows)
            }
        };
        self.vars.insert(name.to_owned(), slot);
        Ok(())
    }

    // ---- statements -------------------------------------------------------

    fn stmt(&mut self, stmt: &Stmt, top_level: bool) -> Result<(), TranslateError> {
        match stmt {
            Stmt::TupleAssign { names, call } => {
                let values: Vec<ProbValue> = match call {
                    ExtCall::LoadData => self.ext.data.clone(),
                    ExtCall::LoadParams => self.ext.params.clone(),
                    ExtCall::Init => vec![self.ext.init.clone()],
                };
                if values.len() != names.len() {
                    return Err(TranslateError::Unsupported(format!(
                        "{call} supplies {} values but {} names are bound",
                        values.len(),
                        names.len()
                    )));
                }
                for (n, v) in names.iter().zip(&values) {
                    self.bind_external(n, v)?;
                }
                Ok(())
            }
            Stmt::ExtAssign { name, call } => {
                let value = match call {
                    ExtCall::Init => self.ext.init.clone(),
                    ExtCall::LoadData => {
                        if self.ext.data.len() != 1 {
                            return Err(TranslateError::Unsupported(
                                "loadData() bound to one name must supply one value".into(),
                            ));
                        }
                        self.ext.data[0].clone()
                    }
                    ExtCall::LoadParams => {
                        if self.ext.params.len() != 1 {
                            return Err(TranslateError::Unsupported(
                                "loadParams() bound to one name must supply one value".into(),
                            ));
                        }
                        self.ext.params[0].clone()
                    }
                };
                self.bind_external(name, &value)
            }
            Stmt::Assign { target, expr } => {
                let slot = self.expr(expr)?;
                self.assign(target, slot)
            }
            Stmt::For { var, lo, hi, body } => {
                let lo = self.int_expr(lo)?;
                let hi = self.int_expr(hi)?;
                let record = top_level && !self.seen_outer_loop;
                if record {
                    self.seen_outer_loop = true;
                }
                let saved = self.vars.get(var).cloned();
                for i in lo..hi {
                    if record {
                        self.outer_iter_boundaries.push(self.prog.len());
                    }
                    self.vars
                        .insert(var.clone(), Slot::Concrete(RtValue::Int(i)));
                    for s in body {
                        self.stmt(s, false)?;
                    }
                }
                match saved {
                    Some(v) => {
                        self.vars.insert(var.clone(), v);
                    }
                    None => {
                        self.vars.remove(var);
                    }
                }
                Ok(())
            }
        }
    }

    fn assign(&mut self, target: &Lval, slot: Slot) -> Result<(), TranslateError> {
        let base = target.base_name().to_owned();
        let mut path: Vec<i64> = Vec::new();
        for e in target.indices() {
            path.push(self.int_expr(e)?);
        }
        let version = self.bump(&base);
        let mut decl_path = path.clone();
        let declared = self.declare_slot(&base, version, &mut decl_path, slot)?;
        if path.is_empty() {
            self.vars.insert(base, declared);
            return Ok(());
        }
        let root = self.vars.get_mut(&base).ok_or_else(|| {
            TranslateError::Lang(LangError::Runtime(format!(
                "assignment to undefined variable `{base}`"
            )))
        })?;
        let mut cur = root;
        for (level, &ix) in path.iter().enumerate() {
            match cur {
                Slot::Array(items) => {
                    let len = items.len();
                    if ix < 0 || ix as usize >= len {
                        return Err(TranslateError::Lang(LangError::Runtime(format!(
                            "index {ix} out of range 0..{len} on `{base}` (level {level})"
                        ))));
                    }
                    cur = &mut items[ix as usize];
                }
                other => {
                    return Err(TranslateError::Lang(LangError::Runtime(format!(
                        "cannot index {other:?} at level {level}"
                    ))))
                }
            }
        }
        *cur = declared;
        Ok(())
    }

    // ---- expressions -------------------------------------------------------

    fn int_expr(&mut self, e: &Expr) -> Result<i64, TranslateError> {
        let slot = self.expr(e)?;
        slot.as_int().ok_or_else(|| {
            TranslateError::Unsupported(
                "loop bounds, array sizes, and indices must be certain integers".into(),
            )
        })
    }

    /// The slot an rvalue denotes. A `Name` / `Name[ix]…` chain is resolved
    /// to a reference into the variable table, the way [`Tr::assign`] walks
    /// lvalues, so an element read costs the element and not the array it
    /// sits in. Index expressions are evaluated outermost first and the
    /// name is looked up last; the walk then checks level 1 before level 2.
    fn place(&mut self, e: &Expr) -> Result<Cow<'_, Slot>, TranslateError> {
        match e {
            Expr::Name(n) => self.vars.get(n).map(Cow::Borrowed).ok_or_else(|| {
                TranslateError::Lang(LangError::Runtime(format!(
                    "use of undefined variable `{n}`"
                )))
            }),
            Expr::Index(base, idx) => {
                let ix = self.int_expr(idx)?;
                let at = usize::try_from(ix).unwrap_or(usize::MAX);
                let out_of_range = |len: usize| {
                    TranslateError::Lang(LangError::Runtime(format!(
                        "index {ix} out of range 0..{len}"
                    )))
                };
                match self.place(base)? {
                    Cow::Borrowed(Slot::Array(items)) => items
                        .get(at)
                        .map(Cow::Borrowed)
                        .ok_or_else(|| out_of_range(items.len())),
                    Cow::Owned(Slot::Array(mut items)) if at < items.len() => {
                        Ok(Cow::Owned(items.swap_remove(at)))
                    }
                    Cow::Owned(Slot::Array(items)) => Err(out_of_range(items.len())),
                    other => Err(TranslateError::Unsupported(format!(
                        "cannot index {other:?}"
                    ))),
                }
            }
            other => self.expr(other).map(Cow::Owned),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Slot, TranslateError> {
        match e {
            Expr::Int(i) => Ok(Slot::Concrete(RtValue::Int(*i))),
            Expr::Float(f) => Ok(Slot::Concrete(RtValue::Float(*f))),
            Expr::Bool(b) => Ok(Slot::Concrete(RtValue::Bool(*b))),
            Expr::Name(_) | Expr::Index(..) => self.place(e).map(Cow::into_owned),
            Expr::ArrayInit(len) => {
                let n = self.int_expr(len)?;
                if n < 0 {
                    return Err(TranslateError::Lang(LangError::Runtime(format!(
                        "negative array size {n}"
                    ))));
                }
                Ok(Slot::Array(vec![
                    Slot::Concrete(RtValue::Undef);
                    n as usize
                ]))
            }
            Expr::Compare(op, a, b) => {
                let sa = self.expr(a)?;
                let sb = self.expr(b)?;
                match (&sa, &sb) {
                    (Slot::Concrete(ra), Slot::Concrete(rb)) => Ok(Slot::Concrete(RtValue::Bool(
                        ra.compare(*op, rb).map_err(TranslateError::Lang)?,
                    ))),
                    _ => {
                        let op = match op {
                            Cmp::Le => CmpOp::Le,
                            Cmp::Lt => CmpOp::Lt,
                            Cmp::Ge => CmpOp::Ge,
                            Cmp::Gt => CmpOp::Gt,
                            Cmp::Eq => CmpOp::Eq,
                        };
                        Ok(Slot::Event(Rc::new(Event::Atom(
                            op,
                            self.to_cval(&sa)?,
                            self.to_cval(&sb)?,
                        ))))
                    }
                }
            }
            Expr::Add(a, b) => {
                let sa = self.expr(a)?;
                let sb = self.expr(b)?;
                match (&sa, &sb) {
                    (Slot::Concrete(ra), Slot::Concrete(rb)) => {
                        Ok(Slot::Concrete(ra.add(rb).map_err(TranslateError::Lang)?))
                    }
                    _ => Ok(Slot::CVal(Rc::new(CVal::Sum(vec![
                        self.to_cval(&sa)?,
                        self.to_cval(&sb)?,
                    ])))),
                }
            }
            Expr::Sub(a, b) => {
                let sa = self.expr(a)?;
                let sb = self.expr(b)?;
                match (&sa, &sb) {
                    (Slot::Concrete(ra), Slot::Concrete(rb)) => {
                        Ok(Slot::Concrete(ra.sub(rb).map_err(TranslateError::Lang)?))
                    }
                    _ => Err(TranslateError::Unsupported(
                        "subtraction of uncertain values is not in the event language".into(),
                    )),
                }
            }
            Expr::Mul(a, b) => {
                let sa = self.expr(a)?;
                let sb = self.expr(b)?;
                match (&sa, &sb) {
                    (Slot::Concrete(ra), Slot::Concrete(rb)) => {
                        Ok(Slot::Concrete(ra.mul(rb).map_err(TranslateError::Lang)?))
                    }
                    _ => Ok(Slot::CVal(Rc::new(CVal::Prod(vec![
                        self.to_cval(&sa)?,
                        self.to_cval(&sb)?,
                    ])))),
                }
            }
            Expr::Neg(a) => {
                let sa = self.expr(a)?;
                match sa {
                    Slot::Concrete(ra) => Ok(Slot::Concrete(
                        RtValue::Int(0).sub(&ra).map_err(TranslateError::Lang)?,
                    )),
                    _ => Err(TranslateError::Unsupported(
                        "negation of uncertain values is not in the event language".into(),
                    )),
                }
            }
            Expr::Reduce(kind, compr) => self.reduce(*kind, compr),
            Expr::Pow(a, r) => {
                let sa = self.expr(a)?;
                let r = self.int_expr(r)?;
                match sa {
                    Slot::Concrete(ra) => {
                        Ok(Slot::Concrete(ra.pow(r).map_err(TranslateError::Lang)?))
                    }
                    _ => Ok(Slot::CVal(Rc::new(CVal::Pow(self.to_cval(&sa)?, r as i32)))),
                }
            }
            Expr::Invert(a) => {
                let sa = self.expr(a)?;
                match sa {
                    Slot::Concrete(ra) => {
                        Ok(Slot::Concrete(ra.invert().map_err(TranslateError::Lang)?))
                    }
                    _ => Ok(Slot::CVal(Rc::new(CVal::Inv(self.to_cval(&sa)?)))),
                }
            }
            Expr::Dist(a, b) => {
                let sa = self.expr(a)?;
                let sb = self.expr(b)?;
                match (&sa, &sb) {
                    (Slot::Concrete(ra), Slot::Concrete(rb)) => {
                        Ok(Slot::Concrete(ra.dist(rb).map_err(TranslateError::Lang)?))
                    }
                    _ => Ok(Slot::CVal(Rc::new(CVal::Dist(
                        self.to_cval(&sa)?,
                        self.to_cval(&sb)?,
                    )))),
                }
            }
            Expr::ScalarMult(s, v) => {
                let ss = self.expr(s)?;
                let sv = self.expr(v)?;
                match (&ss, &sv) {
                    (Slot::Concrete(rs), Slot::Concrete(rv)) => {
                        Ok(Slot::Concrete(rs.mul(rv).map_err(TranslateError::Lang)?))
                    }
                    _ => Ok(Slot::CVal(Rc::new(CVal::Prod(vec![
                        self.to_cval(&ss)?,
                        self.to_cval(&sv)?,
                    ])))),
                }
            }
            Expr::BreakTies(kind, m) => {
                let arr = self.expr(m)?;
                self.break_ties(*kind, arr)
            }
        }
    }

    fn reduce(&mut self, kind: ReduceKind, compr: &ListCompr) -> Result<Slot, TranslateError> {
        let lo = self.int_expr(&compr.lo)?;
        let hi = self.int_expr(&compr.hi)?;
        let saved = self.vars.get(&compr.var).cloned();

        // Collected (condition, element) pairs; conditions already reduced
        // to either concrete-true (None) or a symbolic event.
        enum Part {
            ConcreteElem(RtValue),
            Symbolic { cond: Option<Rc<Event>>, elem: Slot },
        }
        let mut parts: Vec<Part> = Vec::new();
        let mut result: Result<(), TranslateError> = Ok(());
        for i in lo..hi {
            self.vars
                .insert(compr.var.clone(), Slot::Concrete(RtValue::Int(i)));
            let step = (|| -> Result<(), TranslateError> {
                let cond: Option<Rc<Event>> = match &compr.cond {
                    None => None,
                    Some(c) => match self.expr(c)? {
                        Slot::Concrete(RtValue::Bool(false)) => return Ok(()), // filtered out
                        Slot::Concrete(RtValue::Bool(true)) => None,
                        Slot::Event(e) => Some(e),
                        other => {
                            return Err(TranslateError::Unsupported(format!(
                                "comprehension filter must be Boolean, found {other:?}"
                            )))
                        }
                    },
                };
                let elem = self.expr(&compr.expr)?;
                match (&cond, &elem) {
                    (None, Slot::Concrete(rv)) => parts.push(Part::ConcreteElem(rv.clone())),
                    _ => parts.push(Part::Symbolic { cond, elem }),
                }
                Ok(())
            })();
            if step.is_err() {
                result = step;
                break;
            }
        }
        match saved {
            Some(v) => {
                self.vars.insert(compr.var.clone(), v);
            }
            None => {
                self.vars.remove(&compr.var);
            }
        }
        result?;

        match kind {
            ReduceKind::And => {
                let mut sym: Vec<Rc<Event>> = Vec::new();
                for p in parts {
                    match p {
                        Part::ConcreteElem(RtValue::Bool(true)) => {}
                        Part::ConcreteElem(RtValue::Bool(false)) => {
                            return Ok(Slot::Concrete(RtValue::Bool(false)))
                        }
                        Part::ConcreteElem(other) => {
                            return Err(TranslateError::Unsupported(format!(
                                "reduce_and over non-Boolean {}",
                                other.kind()
                            )))
                        }
                        Part::Symbolic { cond, elem } => {
                            let ee = self.to_event(&elem)?;
                            let part = match (cond, &*ee) {
                                (None, _) => ee,
                                // ¬C ∨ E (fixed translation; see crate docs).
                                (Some(_), Event::Tru) => continue,
                                (Some(c), Event::Fls) => Event::not(c),
                                (Some(c), _) => Event::or([Event::not(c), ee]),
                            };
                            sym.push(part);
                        }
                    }
                }
                Ok(match sym.len() {
                    0 => Slot::Concrete(RtValue::Bool(true)),
                    1 => Slot::Event(sym.pop().unwrap()),
                    _ => Slot::Event(Event::and(sym)),
                })
            }
            ReduceKind::Or => {
                let mut sym: Vec<Rc<Event>> = Vec::new();
                for p in parts {
                    match p {
                        Part::ConcreteElem(RtValue::Bool(false)) => {}
                        Part::ConcreteElem(RtValue::Bool(true)) => {
                            return Ok(Slot::Concrete(RtValue::Bool(true)))
                        }
                        Part::ConcreteElem(other) => {
                            return Err(TranslateError::Unsupported(format!(
                                "reduce_or over non-Boolean {}",
                                other.kind()
                            )))
                        }
                        Part::Symbolic { cond, elem } => {
                            let ee = self.to_event(&elem)?;
                            let part = match (cond, &*ee) {
                                (None, _) => ee,
                                (Some(c), Event::Tru) => c,
                                (Some(_), Event::Fls) => continue,
                                (Some(c), _) => Event::and([c, ee]),
                            };
                            sym.push(part);
                        }
                    }
                }
                Ok(match sym.len() {
                    0 => Slot::Concrete(RtValue::Bool(false)),
                    1 => Slot::Event(sym.pop().unwrap()),
                    _ => Slot::Event(Event::or(sym)),
                })
            }
            ReduceKind::Sum => {
                // Fold certain summands into one accumulated constant — the
                // paper's certain-data optimisation.
                let mut acc = RtValue::Undef;
                let mut sym: Vec<Rc<CVal>> = Vec::new();
                for p in parts {
                    match p {
                        Part::ConcreteElem(rv) => {
                            acc = acc.add(&rv).map_err(TranslateError::Lang)?;
                        }
                        Part::Symbolic { cond, elem } => {
                            let part = match cond {
                                None => self.to_cval(&elem)?,
                                Some(c) => match &elem {
                                    Slot::Concrete(rv) => CVal::cond(c, rt_to_value(rv)?),
                                    _ => Rc::new(CVal::Guard(c, self.to_cval(&elem)?)),
                                },
                            };
                            sym.push(part);
                        }
                    }
                }
                if sym.is_empty() {
                    return Ok(Slot::Concrete(acc));
                }
                if !acc.is_undef() {
                    sym.push(Rc::new(CVal::Const(rt_to_value(&acc)?)));
                }
                Ok(if sym.len() == 1 {
                    Slot::CVal(sym.pop().unwrap())
                } else {
                    Slot::CVal(Rc::new(CVal::Sum(sym)))
                })
            }
            ReduceKind::Mult => {
                let mut acc = RtValue::Int(1);
                let mut sym: Vec<Rc<CVal>> = Vec::new();
                for p in parts {
                    match p {
                        Part::ConcreteElem(rv) => {
                            if rv.is_undef() {
                                // u absorbs the whole product.
                                return Ok(Slot::Concrete(RtValue::Undef));
                            }
                            acc = acc.mul(&rv).map_err(TranslateError::Lang)?;
                        }
                        Part::Symbolic { cond, elem } => {
                            let part = match cond {
                                None => self.to_cval(&elem)?,
                                // ¬C ⊗ 1 + C ∧ E (fixed translation).
                                Some(c) => Rc::new(CVal::Sum(vec![
                                    CVal::cond(Event::not(c.clone()), Value::Num(1.0)),
                                    Rc::new(CVal::Guard(c, self.to_cval(&elem)?)),
                                ])),
                            };
                            sym.push(part);
                        }
                    }
                }
                if sym.is_empty() {
                    return Ok(Slot::Concrete(acc));
                }
                match &acc {
                    RtValue::Int(1) => {}
                    other => sym.push(Rc::new(CVal::Const(rt_to_value(other)?))),
                }
                Ok(if sym.len() == 1 {
                    Slot::CVal(sym.pop().unwrap())
                } else {
                    Slot::CVal(Rc::new(CVal::Prod(sym)))
                })
            }
            ReduceKind::Count => {
                // Σ COND ⊗ 1 (paper translation); certain-true filters fold
                // into one constant.
                let mut concrete = 0i64;
                let mut sym: Vec<Rc<CVal>> = Vec::new();
                for p in parts {
                    match p {
                        Part::ConcreteElem(_) => concrete += 1,
                        Part::Symbolic { cond, .. } => match cond {
                            None => concrete += 1,
                            Some(c) => sym.push(CVal::cond(c, Value::Num(1.0))),
                        },
                    }
                }
                if sym.is_empty() {
                    return Ok(Slot::Concrete(if concrete == 0 {
                        RtValue::Undef
                    } else {
                        RtValue::Int(concrete)
                    }));
                }
                if concrete > 0 {
                    sym.push(CVal::num(concrete as f64));
                }
                Ok(if sym.len() == 1 {
                    Slot::CVal(sym.pop().unwrap())
                } else {
                    Slot::CVal(Rc::new(CVal::Sum(sym)))
                })
            }
        }
    }

    fn break_ties(&mut self, kind: TieKind, arr: Slot) -> Result<Slot, TranslateError> {
        let keep_first = |tr: &Self, col: Vec<Slot>| -> Result<Vec<Slot>, TranslateError> {
            let mut prefix = Slot::Concrete(RtValue::Bool(false));
            let mut out = Vec::with_capacity(col.len());
            for s in col {
                if !s.is_boolish() {
                    return Err(TranslateError::Unsupported(format!(
                        "breakTies expects Boolean entries, found {s:?}"
                    )));
                }
                let kept = tr.b_and(s.clone(), tr.b_not(prefix.clone())?)?;
                prefix = tr.b_or(prefix, s)?;
                out.push(kept);
            }
            Ok(out)
        };

        match (kind, arr) {
            (TieKind::One, Slot::Array(items)) => Ok(Slot::Array(keep_first(self, items)?)),
            (TieKind::Dim1, Slot::Array(rows)) => {
                let rows = rows
                    .into_iter()
                    .map(|row| match row {
                        Slot::Array(items) => keep_first(self, items).map(Slot::Array),
                        other => Err(TranslateError::Unsupported(format!(
                            "breakTies1 expects a 2-D array, found {other:?}"
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(Slot::Array(rows))
            }
            (TieKind::Dim2, Slot::Array(rows)) => {
                let mut matrix: Vec<Vec<Slot>> = rows
                    .into_iter()
                    .map(|row| match row {
                        Slot::Array(items) => Ok(items),
                        other => Err(TranslateError::Unsupported(format!(
                            "breakTies2 expects a 2-D array, found {other:?}"
                        ))),
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                let n_cols = matrix.first().map_or(0, Vec::len);
                for col in 0..n_cols {
                    let column: Vec<Slot> = matrix.iter().map(|row| row[col].clone()).collect();
                    let kept = keep_first(self, column)?;
                    for (row, v) in matrix.iter_mut().zip(kept) {
                        row[col] = v;
                    }
                }
                Ok(Slot::Array(matrix.into_iter().map(Slot::Array).collect()))
            }
            (_, other) => Err(TranslateError::Unsupported(format!(
                "breakTies expects an array, found {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{clustering_env, ProbObjects};
    use enframe_core::EventId;
    use enframe_core::{space, Valuation, Var, VarTable};
    use enframe_lang::{parse, programs, Interp};

    impl Translated {
        /// The event declared at `name[idx...]`, if that slot is a
        /// symbolic event reference.
        fn event_ident(&self, name: &str, idx: &[usize]) -> Option<EventId> {
            match self.slot_at(name, idx)? {
                Slot::Event(e) => match **e {
                    Event::Ref(d) => self.program.event_id(d),
                    _ => None,
                },
                _ => None,
            }
        }
    }

    /// Two uncertain 1-D objects; x0/x1 their presence variables.
    fn tiny_env() -> ProbEnv {
        let objs = ProbObjects::new(
            vec![vec![0.0], vec![4.0], vec![5.0]],
            vec![Event::var(Var(0)), Event::var(Var(1)), Rc::new(Event::Tru)],
        );
        clustering_env(objs, 2, 2, vec![0, 2], 2)
    }

    #[test]
    fn kmedoids_translates_and_grounds() {
        let ast = parse(programs::K_MEDOIDS).unwrap();
        let t = translate(&ast, &tiny_env()).unwrap();
        let g = t.ground().unwrap();
        assert!(g.len() > 10, "expected a nontrivial event program");
        // Final medoid slots exist and are c-values or concrete points.
        let m = t.slot("M").unwrap();
        match m {
            Slot::Array(items) => assert_eq!(items.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // Outer loop boundaries recorded per iteration.
        assert_eq!(t.outer_iter_boundaries.len(), 2);
    }

    /// The core contract: interpretation per world == event evaluation.
    #[test]
    fn per_world_equivalence_kmedoids_tiny() {
        let ast = parse(programs::K_MEDOIDS).unwrap();
        let env = tiny_env();
        let t = translate(&ast, &env).unwrap();
        let g = t.ground().unwrap();

        for code in 0..4u64 {
            let nu = Valuation::from_code(2, code);
            // Interpreter on the materialised world.
            let wenv = crate::env::world_env(&env, &nu);
            let mut interp = Interp::new(&wenv);
            interp.run(&ast).unwrap();
            // Compare final InCl (Boolean 2×3).
            let incl = interp.get("InCl").unwrap().clone();
            for i in 0..2usize {
                for l in 0..3usize {
                    let interp_val = match &incl {
                        RtValue::Array(rows) => match &rows[i] {
                            RtValue::Array(r) => r[l].as_bool().unwrap(),
                            other => panic!("unexpected {other:?}"),
                        },
                        other => panic!("unexpected {other:?}"),
                    };
                    let ev_val = match t.slot_at("InCl", &[i, l]).unwrap() {
                        Slot::Concrete(RtValue::Bool(b)) => *b,
                        Slot::Event(e) => match &**e {
                            Event::Ref(id) => g.eval_bool(*id, &nu).unwrap(),
                            other => panic!("unexpected {other:?}"),
                        },
                        other => panic!("unexpected {other:?}"),
                    };
                    assert_eq!(
                        interp_val, ev_val,
                        "world {code:02b}, InCl[{i}][{l}] mismatch"
                    );
                }
            }
        }
    }

    #[test]
    fn certain_data_folds_to_constants() {
        // With fully certain objects the whole program constant-folds: the
        // event program contains no declarations mentioning variables.
        let objs = ProbObjects::certain(vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]]);
        let env = clustering_env(objs, 2, 2, vec![1, 3], 0);
        let ast = parse(programs::K_MEDOIDS).unwrap();
        let t = translate(&ast, &env).unwrap();
        let g = t.ground().unwrap();
        assert!(
            g.is_empty(),
            "certain data should produce no event declarations, got {}",
            g.len()
        );
        // And the final medoids are the concrete points o0 and o2.
        match t.slot("M").unwrap() {
            Slot::Array(ms) => {
                assert!(matches!(&ms[0], Slot::Concrete(RtValue::Point(p)) if p == &vec![0.0]));
                assert!(matches!(&ms[1], Slot::Concrete(RtValue::Point(p)) if p == &vec![5.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn probability_of_membership_example() {
        // One uncertain object (x0) between two certain medoid seeds. The
        // object joins cluster 0 iff present... actually it is closer to
        // seed 1, so InCl[1][1] should hold iff present-or-undefined rules
        // fire; validate via brute force instead of hand-reasoning.
        let objs = ProbObjects::new(
            vec![vec![0.0], vec![9.0], vec![10.0]],
            vec![Rc::new(Event::Tru), Event::var(Var(0)), Rc::new(Event::Tru)],
        );
        let env = clustering_env(objs, 2, 1, vec![0, 2], 1);
        let ast = parse(programs::K_MEDOIDS).unwrap();
        let mut t = translate(&ast, &env).unwrap();
        // Target: object 1 in cluster 1 after iteration 1.
        let si = t.event_ident("InCl", &[1, 1]).unwrap();
        t.program.add_target(si);
        let g = t.ground().unwrap();
        let vt = VarTable::new(vec![0.7]);
        let p = space::target_probabilities(&g, &vt);
        // Object 1 (present w.p. 0.7) is closer to medoid 2; when absent
        // its comparisons are vacuously true, so InCl[0][1] (checked first
        // by breakTies) captures it instead. Thus P = 0.7.
        assert!((p[0] - 0.7).abs() < 1e-9, "got {}", p[0]);
    }

    #[test]
    fn kmeans_translates() {
        let ast = parse(programs::K_MEANS).unwrap();
        let t = translate(&ast, &tiny_env()).unwrap();
        let g = t.ground().unwrap();
        assert!(g.len() > 5);
    }

    #[test]
    fn mcl_translates_with_uncertain_matrix() {
        use crate::env::ProbMatrix;
        let ast = parse(programs::MCL).unwrap();
        let m = ProbMatrix::new(
            vec![
                vec![0.5, 0.5, 0.0],
                vec![0.5, 0.5, 0.0],
                vec![0.0, 0.0, 1.0],
            ],
            vec![Event::var(Var(0)), Rc::new(Event::Tru), Rc::new(Event::Tru)],
        );
        let env = ProbEnv {
            data: vec![
                ProbValue::Objects(ProbObjects::certain(vec![vec![0.0], vec![1.0], vec![2.0]])),
                ProbValue::int(3),
                ProbValue::Matrix(m),
            ],
            params: vec![ProbValue::int(2), ProbValue::int(2)],
            init: ProbValue::Certain(RtValue::Undef),
            n_vars: 1,
        };
        let t = translate(&ast, &env).unwrap();
        let g = t.ground().unwrap();
        assert!(
            g.len() > 9,
            "MCL should declare matrix entries, got {}",
            g.len()
        );
    }

    #[test]
    fn mcl_per_world_equivalence() {
        use crate::env::ProbMatrix;
        let ast = parse(programs::MCL).unwrap();
        let m = ProbMatrix::new(
            vec![vec![0.6, 0.4], vec![0.4, 0.6]],
            vec![Event::var(Var(0)), Rc::new(Event::Tru)],
        );
        let env = ProbEnv {
            data: vec![
                ProbValue::Objects(ProbObjects::certain(vec![vec![0.0], vec![1.0]])),
                ProbValue::int(2),
                ProbValue::Matrix(m),
            ],
            params: vec![ProbValue::int(2), ProbValue::int(1)],
            init: ProbValue::Certain(RtValue::Undef),
            n_vars: 1,
        };
        let t = translate(&ast, &env).unwrap();
        let g = t.ground().unwrap();
        for code in 0..2u64 {
            let nu = Valuation::from_code(1, code);
            let wenv = crate::env::world_env(&env, &nu);
            let mut interp = Interp::new(&wenv);
            interp.run(&ast).unwrap();
            // Compare M[0][0] as value.
            let interp_val = match interp.get("M").unwrap() {
                RtValue::Array(rows) => match &rows[0] {
                    RtValue::Array(r) => r[0].clone(),
                    other => panic!("unexpected {other:?}"),
                },
                other => panic!("unexpected {other:?}"),
            };
            match t.slot_at("M", &[0, 0]).unwrap() {
                Slot::Concrete(rv) => assert_eq!(&interp_val, rv),
                Slot::CVal(c) => {
                    let id = match **c {
                        CVal::Ref(id) => id,
                        ref other => panic!("unexpected {other:?}"),
                    };
                    let ev = g.eval_value(id, &nu).unwrap();
                    match (&interp_val, &ev) {
                        (RtValue::Undef, Value::Undef) => {}
                        (RtValue::Float(a), Value::Num(b)) => {
                            assert!((a - b).abs() < 1e-12, "world {code}: {a} vs {b}")
                        }
                        (a, b) => panic!("world {code}: {a:?} vs {b:?}"),
                    }
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn symbolic_loop_bound_rejected() {
        // A loop bound depending on uncertain data must be rejected.
        let src = "\
(O, n) = loadData()
(k, iter) = loadParams()
M = init()
x = reduce_count([1 for i in range(0,n) if dist(O[i], M[0]) <= 1.0])
for j in range(0,x):
    y = j
";
        let ast = parse(src).unwrap();
        let err = translate(&ast, &tiny_env()).unwrap_err();
        assert!(matches!(err, TranslateError::Unsupported(_)));
    }

    #[test]
    fn subtraction_of_uncertain_rejected() {
        let src = "\
(O, n) = loadData()
(k, iter) = loadParams()
M = init()
d = dist(O[0], M[0]) - dist(O[1], M[1])
";
        let ast = parse(src).unwrap();
        assert!(matches!(
            translate(&ast, &tiny_env()),
            Err(TranslateError::Unsupported(_))
        ));
    }
}
