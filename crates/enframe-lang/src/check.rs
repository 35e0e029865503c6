//! Static type-and-shape checking of user programs.
//!
//! The user language is designed so that "the size of each constructed
//! array is known at compile time" (§2.2). The checker validates a parsed
//! program against the *types* of the values an [`ExternalEnv`] will
//! supply: variable uses are defined before use, loop bounds are integers,
//! reduce aggregates are applied to elements of the right type, tie
//! breaking is applied to Boolean arrays of the right rank, and variable
//! types are stable across loop iterations (checked by running the body
//! analysis to a fixpoint and rejecting programs whose types keep
//! changing).

use crate::ast::*;
use crate::error::LangError;
use crate::interp::ExternalEnv;
use crate::rtvalue::RtValue;
use std::collections::HashMap;

/// The checker's type lattice.
#[derive(Debug, Clone, PartialEq)]
pub enum Ty {
    /// Not yet known (e.g. a fresh `[None] * n` slot).
    Unknown,
    /// Boolean.
    Bool,
    /// Integer.
    Int,
    /// Float (integers widen to floats on demand).
    Float,
    /// Feature vector.
    Point,
    /// Array with element type.
    Array(Box<Ty>),
}

impl Ty {
    /// Derives a type from a runtime value (for external bindings).
    fn of_value(v: &RtValue) -> Ty {
        match v {
            RtValue::Undef => Ty::Unknown,
            RtValue::Bool(_) => Ty::Bool,
            RtValue::Int(_) => Ty::Int,
            RtValue::Float(_) => Ty::Float,
            RtValue::Point(_) => Ty::Point,
            RtValue::Array(items) => {
                let elem = items
                    .iter()
                    .map(Ty::of_value)
                    .reduce(|a, b| a.join(&b).unwrap_or(Ty::Unknown))
                    .unwrap_or(Ty::Unknown);
                Ty::Array(Box::new(elem))
            }
        }
    }

    /// Whether this type is numeric (or could still become numeric).
    fn is_numericish(&self) -> bool {
        matches!(self, Ty::Int | Ty::Float | Ty::Unknown)
    }

    /// Least upper bound; `Unknown` is bottom, `Int ⊔ Float = Float`.
    pub fn join(&self, other: &Ty) -> Result<Ty, LangError> {
        use Ty::*;
        Ok(match (self, other) {
            (Unknown, t) | (t, Unknown) => t.clone(),
            (Int, Float) | (Float, Int) => Float,
            (Array(a), Array(b)) => Array(Box::new(a.join(b)?)),
            (a, b) if a == b => a.clone(),
            (a, b) => {
                return Err(LangError::Type(format!(
                    "incompatible types {a:?} and {b:?}"
                )))
            }
        })
    }
}

/// Checks `program` against the value shapes supplied by `ext`.
pub fn check_program(program: &UserProgram, ext: &dyn ExternalEnv) -> Result<(), LangError> {
    let mut c = Checker {
        env: HashMap::new(),
        ext,
    };
    c.stmts(&program.stmts)
}

struct Checker<'e> {
    env: HashMap<String, Ty>,
    ext: &'e dyn ExternalEnv,
}

impl<'e> Checker<'e> {
    fn stmts(&mut self, stmts: &[Stmt]) -> Result<(), LangError> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<(), LangError> {
        match stmt {
            Stmt::TupleAssign { names, call } => {
                let values = match call {
                    ExtCall::LoadData => self.ext.load_data(),
                    ExtCall::LoadParams => self.ext.load_params(),
                    ExtCall::Init => vec![self.ext.init()],
                };
                if values.len() != names.len() {
                    return Err(LangError::Type(format!(
                        "{call} supplies {} values but {} names are bound",
                        values.len(),
                        names.len()
                    )));
                }
                for (n, v) in names.iter().zip(&values) {
                    self.env.insert(n.clone(), Ty::of_value(v));
                }
                Ok(())
            }
            Stmt::ExtAssign { name, call } => {
                let ty = match call {
                    ExtCall::Init => Ty::of_value(&self.ext.init()),
                    ExtCall::LoadData => {
                        let v = self.ext.load_data();
                        if v.len() != 1 {
                            return Err(LangError::Type(
                                "loadData() bound to one name must supply one value".into(),
                            ));
                        }
                        Ty::of_value(&v[0])
                    }
                    ExtCall::LoadParams => {
                        let v = self.ext.load_params();
                        if v.len() != 1 {
                            return Err(LangError::Type(
                                "loadParams() bound to one name must supply one value".into(),
                            ));
                        }
                        Ty::of_value(&v[0])
                    }
                };
                self.env.insert(name.clone(), ty);
                Ok(())
            }
            Stmt::Assign { target, expr } => {
                let ty = self.expr(expr)?;
                self.assign(target, ty)
            }
            Stmt::For { var, lo, hi, body } => {
                self.expect_int(lo, "loop lower bound")?;
                self.expect_int(hi, "loop upper bound")?;
                let saved = self.env.get(var).cloned();
                self.env.insert(var.clone(), Ty::Int);
                // First pass establishes types, second pass must be stable.
                self.stmts(body)?;
                let snapshot = self.env.clone();
                self.env.insert(var.clone(), Ty::Int);
                self.stmts(body)?;
                for (name, ty) in &snapshot {
                    if let Some(after) = self.env.get(name) {
                        if after.join(ty).is_err() {
                            return Err(LangError::Type(format!(
                                "type of `{name}` changes across loop iterations: \
                                 {ty:?} vs {after:?}"
                            )));
                        }
                    }
                }
                match saved {
                    Some(t) => {
                        self.env.insert(var.clone(), t);
                    }
                    None => {
                        self.env.remove(var);
                    }
                }
                Ok(())
            }
        }
    }

    fn assign(&mut self, target: &Lval, ty: Ty) -> Result<(), LangError> {
        match target {
            Lval::Name(name) => {
                self.env.insert(name.clone(), ty);
                Ok(())
            }
            Lval::Index(..) => {
                for idx in target.indices() {
                    self.expect_int(idx, "array index")?;
                }
                let base = target.base_name().to_owned();
                let depth = target.depth();
                let cur = self.env.get(&base).cloned().ok_or_else(|| {
                    LangError::Type(format!("assignment to undefined variable `{base}`"))
                })?;
                let updated = refine_at_depth(&cur, depth, &ty, &base)?;
                self.env.insert(base, updated);
                Ok(())
            }
        }
    }

    fn expect_int(&mut self, e: &Expr, what: &str) -> Result<(), LangError> {
        let ty = self.expr(e)?;
        match ty {
            Ty::Int | Ty::Unknown => Ok(()),
            other => Err(LangError::Type(format!(
                "{what} must be an integer, found {other:?}"
            ))),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<Ty, LangError> {
        match e {
            Expr::Int(_) => Ok(Ty::Int),
            Expr::Float(_) => Ok(Ty::Float),
            Expr::Bool(_) => Ok(Ty::Bool),
            Expr::Name(n) => self
                .env
                .get(n)
                .cloned()
                .ok_or_else(|| LangError::Type(format!("use of undefined variable `{n}`"))),
            Expr::Index(base, idx) => {
                self.expect_int(idx, "array index")?;
                match self.expr(base)? {
                    Ty::Array(elem) => Ok(*elem),
                    Ty::Unknown => Ok(Ty::Unknown),
                    other => Err(LangError::Type(format!(
                        "cannot index a value of type {other:?}"
                    ))),
                }
            }
            Expr::ArrayInit(n) => {
                self.expect_int(n, "array size")?;
                Ok(Ty::Array(Box::new(Ty::Unknown)))
            }
            Expr::Compare(_, a, b) => {
                let ta = self.expr(a)?;
                let tb = self.expr(b)?;
                if (ta.is_numericish() && tb.is_numericish()) || (ta == Ty::Bool && tb == Ty::Bool)
                {
                    Ok(Ty::Bool)
                } else {
                    Err(LangError::Type(format!(
                        "cannot compare {ta:?} with {tb:?}"
                    )))
                }
            }
            Expr::Add(a, b) | Expr::Sub(a, b) => {
                let ta = self.expr(a)?;
                let tb = self.expr(b)?;
                match (&ta, &tb) {
                    (Ty::Point, Ty::Point) => Ok(Ty::Point),
                    _ if ta.is_numericish() && tb.is_numericish() => ta.join(&tb),
                    _ => Err(LangError::Type(format!("cannot add {ta:?} and {tb:?}"))),
                }
            }
            Expr::Mul(a, b) => {
                let ta = self.expr(a)?;
                let tb = self.expr(b)?;
                match (&ta, &tb) {
                    (Ty::Point, t) | (t, Ty::Point) if t.is_numericish() => Ok(Ty::Point),
                    _ if ta.is_numericish() && tb.is_numericish() => ta.join(&tb),
                    _ => Err(LangError::Type(format!(
                        "cannot multiply {ta:?} and {tb:?}"
                    ))),
                }
            }
            Expr::Neg(a) => {
                let ta = self.expr(a)?;
                if ta.is_numericish() {
                    Ok(ta)
                } else {
                    Err(LangError::Type(format!("cannot negate {ta:?}")))
                }
            }
            Expr::Reduce(kind, compr) => self.reduce(*kind, compr),
            Expr::Pow(a, r) => {
                let ta = self.expr(a)?;
                self.expect_int(r, "exponent")?;
                if ta.is_numericish() {
                    Ok(Ty::Float)
                } else {
                    Err(LangError::Type(format!("cannot exponentiate {ta:?}")))
                }
            }
            Expr::Invert(a) => {
                let ta = self.expr(a)?;
                if ta.is_numericish() {
                    Ok(Ty::Float)
                } else {
                    Err(LangError::Type(format!("cannot invert {ta:?}")))
                }
            }
            Expr::Dist(a, b) => {
                let ta = self.expr(a)?;
                let tb = self.expr(b)?;
                let ok = matches!(
                    (&ta, &tb),
                    (Ty::Point, Ty::Point)
                        | (Ty::Point, Ty::Unknown)
                        | (Ty::Unknown, Ty::Point)
                        | (Ty::Unknown, Ty::Unknown)
                ) || (ta.is_numericish() && tb.is_numericish());
                if ok {
                    Ok(Ty::Float)
                } else {
                    Err(LangError::Type(format!(
                        "dist expects two points or two scalars, found {ta:?}, {tb:?}"
                    )))
                }
            }
            Expr::ScalarMult(s, v) => {
                let ts = self.expr(s)?;
                let tv = self.expr(v)?;
                if ts.is_numericish() && matches!(tv, Ty::Point | Ty::Unknown) {
                    Ok(Ty::Point)
                } else {
                    Err(LangError::Type(format!(
                        "scalar_mult expects (scalar, point), found ({ts:?}, {tv:?})"
                    )))
                }
            }
            Expr::BreakTies(kind, m) => {
                let tm = self.expr(m)?;
                let want_depth = match kind {
                    TieKind::One => 1,
                    TieKind::Dim1 | TieKind::Dim2 => 2,
                };
                let mut cur = tm.clone();
                for _ in 0..want_depth {
                    cur = match cur {
                        Ty::Array(e) => *e,
                        Ty::Unknown => Ty::Unknown,
                        other => {
                            return Err(LangError::Type(format!(
                                "breakTies expects a rank-{want_depth} Boolean array, \
                                 found {tm:?} ({other:?} at inner level)"
                            )))
                        }
                    };
                }
                match cur {
                    Ty::Bool | Ty::Unknown => Ok(tm),
                    other => Err(LangError::Type(format!(
                        "breakTies expects Boolean entries, found {other:?}"
                    ))),
                }
            }
        }
    }

    fn reduce(&mut self, kind: ReduceKind, compr: &ListCompr) -> Result<Ty, LangError> {
        self.expect_int(&compr.lo, "comprehension lower bound")?;
        self.expect_int(&compr.hi, "comprehension upper bound")?;
        let saved = self.env.get(&compr.var).cloned();
        self.env.insert(compr.var.clone(), Ty::Int);
        if let Some(cond) = &compr.cond {
            let tc = self.expr(cond)?;
            if !matches!(tc, Ty::Bool | Ty::Unknown) {
                return Err(LangError::Type(format!(
                    "comprehension filter must be Boolean, found {tc:?}"
                )));
            }
        }
        let telem = self.expr(&compr.expr)?;
        match saved {
            Some(t) => {
                self.env.insert(compr.var.clone(), t);
            }
            None => {
                self.env.remove(&compr.var);
            }
        }
        match kind {
            ReduceKind::And | ReduceKind::Or => match telem {
                Ty::Bool | Ty::Unknown => Ok(Ty::Bool),
                other => Err(LangError::Type(format!(
                    "reduce_and/or expects Boolean elements, found {other:?}"
                ))),
            },
            ReduceKind::Sum => match telem {
                Ty::Int | Ty::Float | Ty::Point | Ty::Unknown => Ok(telem),
                other => Err(LangError::Type(format!(
                    "reduce_sum expects numeric or point elements, found {other:?}"
                ))),
            },
            ReduceKind::Mult => {
                if telem.is_numericish() {
                    Ok(telem)
                } else {
                    Err(LangError::Type(format!(
                        "reduce_mult expects numeric elements, found {telem:?}"
                    )))
                }
            }
            ReduceKind::Count => Ok(Ty::Int),
        }
    }
}

/// Refines an array type by writing `ty` at index depth `depth`.
fn refine_at_depth(cur: &Ty, depth: usize, ty: &Ty, base: &str) -> Result<Ty, LangError> {
    if depth == 0 {
        return cur.join(ty);
    }
    match cur {
        Ty::Array(elem) => {
            let refined = refine_at_depth(elem, depth - 1, ty, base)?;
            Ok(Ty::Array(Box::new(refined)))
        }
        Ty::Unknown => {
            let refined = refine_at_depth(&Ty::Unknown, depth - 1, ty, base)?;
            Ok(Ty::Array(Box::new(refined)))
        }
        other => Err(LangError::Type(format!(
            "`{base}` indexed too deeply: {other:?} is not an array"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::SimpleEnv;
    use crate::parser::parse;
    use crate::programs;

    fn kmedoids_env() -> SimpleEnv {
        SimpleEnv {
            data: vec![
                RtValue::Array(vec![
                    RtValue::point(&[0.0]),
                    RtValue::point(&[1.0]),
                    RtValue::point(&[5.0]),
                    RtValue::point(&[6.0]),
                ]),
                RtValue::Int(4),
            ],
            params: vec![RtValue::Int(2), RtValue::Int(3)],
            init_value: RtValue::Array(vec![RtValue::point(&[1.0]), RtValue::point(&[6.0])]),
        }
    }

    fn mcl_env() -> SimpleEnv {
        SimpleEnv {
            data: vec![
                RtValue::Array(vec![RtValue::point(&[0.0]), RtValue::point(&[1.0])]),
                RtValue::Int(2),
                RtValue::Array(vec![
                    RtValue::Array(vec![RtValue::Float(0.5), RtValue::Float(0.5)]),
                    RtValue::Array(vec![RtValue::Float(0.5), RtValue::Float(0.5)]),
                ]),
            ],
            params: vec![RtValue::Int(2), RtValue::Int(2)],
            init_value: RtValue::Undef,
        }
    }

    #[test]
    fn paper_programs_type_check() {
        let env = kmedoids_env();
        for src in [programs::K_MEDOIDS, programs::K_MEANS] {
            let p = parse(src).unwrap();
            check_program(&p, &env).unwrap();
        }
        let p = parse(programs::MCL).unwrap();
        check_program(&p, &mcl_env()).unwrap();
    }

    #[test]
    fn use_before_def_rejected() {
        let p = parse("x = y + 1\n").unwrap();
        assert!(matches!(
            check_program(&p, &SimpleEnv::default()),
            Err(LangError::Type(_))
        ));
    }

    #[test]
    fn non_integer_loop_bound_rejected() {
        let p = parse("for i in range(0, 1.5):\n    x = 1\n").unwrap();
        assert!(check_program(&p, &SimpleEnv::default()).is_err());
    }

    #[test]
    fn comparing_bool_with_int_rejected() {
        let p = parse("x = True <= 3\n").unwrap();
        assert!(check_program(&p, &SimpleEnv::default()).is_err());
    }

    #[test]
    fn break_ties_on_scalar_rejected() {
        let p = parse("x = 1\ny = breakTies2(x)\n").unwrap();
        assert!(check_program(&p, &SimpleEnv::default()).is_err());
    }

    #[test]
    fn reduce_and_over_ints_rejected() {
        let p = parse("x = reduce_and([1 for i in range(0,3)])\n").unwrap();
        assert!(check_program(&p, &SimpleEnv::default()).is_err());
    }

    #[test]
    fn indexing_scalar_rejected() {
        let p = parse("x = 1\ny = x[0]\n").unwrap();
        assert!(check_program(&p, &SimpleEnv::default()).is_err());
    }

    #[test]
    fn type_stable_loop_accepts() {
        let p = parse("x = 0\nfor i in range(0,3):\n    x = x + i\n").unwrap();
        check_program(&p, &SimpleEnv::default()).unwrap();
    }

    #[test]
    fn array_refinement_through_assignments() {
        let src = "\
M = [None] * 2
M[0] = True
M[1] = False
M = breakTies(M)
";
        let p = parse(src).unwrap();
        check_program(&p, &SimpleEnv::default()).unwrap();
    }

    #[test]
    fn arity_mismatch_detected() {
        let p = parse("(a, b, c) = loadParams()\n").unwrap();
        let env = SimpleEnv {
            params: vec![RtValue::Int(1), RtValue::Int(2)],
            ..SimpleEnv::default()
        };
        assert!(check_program(&p, &env).is_err());
    }

    #[test]
    fn ty_join_rules() {
        assert_eq!(Ty::Int.join(&Ty::Float).unwrap(), Ty::Float);
        assert_eq!(Ty::Unknown.join(&Ty::Bool).unwrap(), Ty::Bool);
        assert!(Ty::Bool.join(&Ty::Point).is_err());
        assert_eq!(
            Ty::Array(Box::new(Ty::Int))
                .join(&Ty::Array(Box::new(Ty::Unknown)))
                .unwrap(),
            Ty::Array(Box::new(Ty::Int))
        );
    }
}
