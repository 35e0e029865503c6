//! Deterministic interpreter for user programs.
//!
//! The interpreter executes a user program against an [`ExternalEnv`] that
//! supplies `loadData()`, `loadParams()`, and `init()`. Its value semantics
//! are the *probabilistic interpretation's* semantics (see [`crate::rtvalue`]):
//! undefined values propagate exactly like the event language's `u`, so
//! interpreting a program on one possible world coincides with evaluating
//! the translated event program under the corresponding valuation.
//!
//! The naïve baseline of the paper's §5 ("clustering in each possible
//! world") is this interpreter run once per world by `enframe-worlds`.

use crate::ast::*;
use crate::error::LangError;
use crate::rtvalue::RtValue;
use std::borrow::Cow;
use std::collections::HashMap;

/// Host environment supplying the external data primitives.
pub trait ExternalEnv {
    /// Values bound by `(a, b, ...) = loadData()`, positionally.
    fn load_data(&self) -> Vec<RtValue>;
    /// Values bound by `(a, b, ...) = loadParams()`, positionally.
    fn load_params(&self) -> Vec<RtValue>;
    /// The value bound by `M = init()`.
    fn init(&self) -> RtValue;
}

/// A straightforward [`ExternalEnv`] backed by owned values.
#[derive(Debug, Clone, Default)]
pub struct SimpleEnv {
    /// `loadData()` results.
    pub data: Vec<RtValue>,
    /// `loadParams()` results.
    pub params: Vec<RtValue>,
    /// `init()` result.
    pub init_value: RtValue,
}

impl ExternalEnv for SimpleEnv {
    fn load_data(&self) -> Vec<RtValue> {
        self.data.clone()
    }

    fn load_params(&self) -> Vec<RtValue> {
        self.params.clone()
    }

    fn init(&self) -> RtValue {
        self.init_value.clone()
    }
}

/// The interpreter. Create one per run; [`Interp::run`] consumes the
/// program statements and leaves the final variable bindings readable.
pub struct Interp<'e> {
    ext: &'e dyn ExternalEnv,
    env: HashMap<String, RtValue>,
}

impl<'e> Interp<'e> {
    /// Creates an interpreter over the given external environment.
    pub fn new(ext: &'e dyn ExternalEnv) -> Self {
        Interp {
            ext,
            env: HashMap::new(),
        }
    }

    /// Runs a program to completion.
    pub fn run(&mut self, program: &UserProgram) -> Result<(), LangError> {
        for stmt in &program.stmts {
            self.stmt(stmt)?;
        }
        Ok(())
    }

    /// Reads a variable from the final environment.
    pub fn get(&self, name: &str) -> Option<&RtValue> {
        self.env.get(name)
    }

    /// The final environment.
    pub fn env(&self) -> &HashMap<String, RtValue> {
        &self.env
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
                    return Err(LangError::Runtime(format!(
                        "{call} returned {} values but {} names are bound",
                        values.len(),
                        names.len()
                    )));
                }
                for (name, value) in names.iter().zip(values) {
                    self.env.insert(name.clone(), value);
                }
                Ok(())
            }
            Stmt::ExtAssign { name, call } => {
                let value = match call {
                    ExtCall::Init => self.ext.init(),
                    ExtCall::LoadData => {
                        let mut v = self.ext.load_data();
                        if v.len() != 1 {
                            return Err(LangError::Runtime(
                                "loadData() bound to a single name must return one value".into(),
                            ));
                        }
                        v.pop().unwrap()
                    }
                    ExtCall::LoadParams => {
                        let mut v = self.ext.load_params();
                        if v.len() != 1 {
                            return Err(LangError::Runtime(
                                "loadParams() bound to a single name must return one value".into(),
                            ));
                        }
                        v.pop().unwrap()
                    }
                };
                self.env.insert(name.clone(), value);
                Ok(())
            }
            Stmt::Assign { target, expr } => {
                let value = self.expr(expr)?;
                self.assign(target, value)
            }
            Stmt::For { var, lo, hi, body } => {
                let lo = self.int_expr(lo)?;
                let hi = self.int_expr(hi)?;
                let saved = self.env.get(var).cloned();
                for i in lo..hi {
                    self.env.insert(var.clone(), RtValue::Int(i));
                    for s in body {
                        self.stmt(s)?;
                    }
                }
                match saved {
                    Some(v) => {
                        self.env.insert(var.clone(), v);
                    }
                    None => {
                        self.env.remove(var);
                    }
                }
                Ok(())
            }
        }
    }

    fn assign(&mut self, target: &Lval, value: RtValue) -> Result<(), LangError> {
        match target {
            Lval::Name(name) => {
                self.env.insert(name.clone(), value);
                Ok(())
            }
            Lval::Index(..) => {
                // Evaluate index expressions first (immutable), then walk
                // the array mutably.
                let mut idx_values = Vec::new();
                for e in target.indices() {
                    idx_values.push(self.int_expr(e)?);
                }
                let base = target.base_name().to_owned();
                let slot = self.env.get_mut(&base).ok_or_else(|| {
                    LangError::Runtime(format!("assignment to undefined variable `{base}`"))
                })?;
                let mut cur = slot;
                for (level, &ix) in idx_values.iter().enumerate() {
                    match cur {
                        RtValue::Array(items) => {
                            let len = items.len();
                            if ix < 0 || ix as usize >= len {
                                return Err(LangError::Runtime(format!(
                                    "index {ix} out of range 0..{len} on `{base}` (level {level})"
                                )));
                            }
                            cur = &mut items[ix as usize];
                        }
                        other => {
                            return Err(LangError::Runtime(format!(
                                "cannot index {} value `{base}` at level {level}",
                                other.kind()
                            )))
                        }
                    }
                }
                *cur = value;
                Ok(())
            }
        }
    }

    fn int_expr(&mut self, e: &Expr) -> Result<i64, LangError> {
        match self.expr(e)? {
            RtValue::Int(i) => Ok(i),
            other => Err(LangError::Runtime(format!(
                "expected integer, found {}",
                other.kind()
            ))),
        }
    }

    fn bool_expr(&mut self, e: &Expr) -> Result<bool, LangError> {
        match self.expr(e)? {
            RtValue::Bool(b) => Ok(b),
            other => Err(LangError::Runtime(format!(
                "expected Boolean, found {}",
                other.kind()
            ))),
        }
    }

    /// The value an rvalue denotes. A `Name` / `Name[ix]…` chain is resolved
    /// to a reference into the environment, the way [`Interp::assign`]
    /// walks lvalues, so an element read costs the element and not the
    /// array it sits in. Index expressions are evaluated outermost first
    /// and the name is looked up last; the walk then checks level 1 before
    /// level 2.
    fn place(&mut self, e: &Expr) -> Result<Cow<'_, RtValue>, LangError> {
        match e {
            Expr::Name(n) => self
                .env
                .get(n)
                .map(Cow::Borrowed)
                .ok_or_else(|| LangError::Runtime(format!("use of undefined variable `{n}`"))),
            Expr::Index(base, idx) => {
                let ix = self.int_expr(idx)?;
                let at = usize::try_from(ix).unwrap_or(usize::MAX);
                let out_of_range =
                    |len: usize| LangError::Runtime(format!("index {ix} out of range 0..{len}"));
                match self.place(base)? {
                    Cow::Borrowed(RtValue::Array(items)) => items
                        .get(at)
                        .map(Cow::Borrowed)
                        .ok_or_else(|| out_of_range(items.len())),
                    Cow::Owned(RtValue::Array(mut items)) if at < items.len() => {
                        Ok(Cow::Owned(items.swap_remove(at)))
                    }
                    Cow::Owned(RtValue::Array(items)) => Err(out_of_range(items.len())),
                    other => Err(LangError::Runtime(format!(
                        "cannot index {} value",
                        other.kind()
                    ))),
                }
            }
            other => self.expr(other).map(Cow::Owned),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<RtValue, LangError> {
        match e {
            Expr::Int(i) => Ok(RtValue::Int(*i)),
            Expr::Float(f) => Ok(RtValue::Float(*f)),
            Expr::Bool(b) => Ok(RtValue::Bool(*b)),
            Expr::Name(_) | Expr::Index(..) => self.place(e).map(Cow::into_owned),
            Expr::ArrayInit(len) => {
                let n = self.int_expr(len)?;
                if n < 0 {
                    return Err(LangError::Runtime(format!("negative array size {n}")));
                }
                Ok(RtValue::Array(vec![RtValue::Undef; n as usize]))
            }
            Expr::Compare(op, a, b) => {
                let va = self.expr(a)?;
                let vb = self.expr(b)?;
                Ok(RtValue::Bool(va.compare(*op, &vb)?))
            }
            Expr::Add(a, b) => self.expr(a)?.add(&self.expr(b)?),
            Expr::Sub(a, b) => self.expr(a)?.sub(&self.expr(b)?),
            Expr::Mul(a, b) => self.expr(a)?.mul(&self.expr(b)?),
            Expr::Neg(a) => RtValue::Int(0).sub(&self.expr(a)?).map(|v| match v {
                RtValue::Undef => RtValue::Undef,
                other => other,
            }),
            Expr::Reduce(kind, compr) => self.reduce(*kind, compr),
            Expr::Pow(a, r) => {
                let base = self.expr(a)?;
                let r = self.int_expr(r)?;
                base.pow(r)
            }
            Expr::Invert(a) => self.expr(a)?.invert(),
            Expr::Dist(a, b) => self.expr(a)?.dist(&self.expr(b)?),
            Expr::ScalarMult(s, v) => self.expr(s)?.mul(&self.expr(v)?),
            Expr::BreakTies(kind, m) => {
                let arr = self.expr(m)?;
                break_ties(*kind, arr)
            }
        }
    }

    fn reduce(&mut self, kind: ReduceKind, compr: &ListCompr) -> Result<RtValue, LangError> {
        let lo = self.int_expr(&compr.lo)?;
        let hi = self.int_expr(&compr.hi)?;
        let saved = self.env.get(&compr.var).cloned();

        let mut acc = match kind {
            ReduceKind::And => RtValue::Bool(true),
            ReduceKind::Or => RtValue::Bool(false),
            ReduceKind::Sum => RtValue::Undef,
            ReduceKind::Mult => RtValue::Int(1),
            ReduceKind::Count => RtValue::Undef,
        };
        let mut count: i64 = 0;
        for i in lo..hi {
            self.env.insert(compr.var.clone(), RtValue::Int(i));
            if let Some(cond) = &compr.cond {
                if !self.bool_expr(cond)? {
                    continue;
                }
            }
            match kind {
                ReduceKind::Count => {
                    // Element expression is evaluated for effects-free
                    // validation but its value is irrelevant (it is `1` in
                    // practice).
                    let _ = self.expr(&compr.expr)?;
                    count += 1;
                }
                ReduceKind::And => {
                    let b = self.bool_expr(&compr.expr)?;
                    if !b {
                        acc = RtValue::Bool(false);
                    }
                }
                ReduceKind::Or => {
                    let b = self.bool_expr(&compr.expr)?;
                    if b {
                        acc = RtValue::Bool(true);
                    }
                }
                ReduceKind::Sum => {
                    let v = self.expr(&compr.expr)?;
                    acc = acc.add(&v)?;
                }
                ReduceKind::Mult => {
                    let v = self.expr(&compr.expr)?;
                    acc = acc.mul(&v)?;
                }
            }
        }
        match saved {
            Some(v) => {
                self.env.insert(compr.var.clone(), v);
            }
            None => {
                self.env.remove(&compr.var);
            }
        }
        if kind == ReduceKind::Count {
            // Σ COND ⊗ 1 semantics: undefined when no element qualifies.
            return Ok(if count == 0 {
                RtValue::Undef
            } else {
                RtValue::Int(count)
            });
        }
        Ok(acc)
    }
}

/// Implements `breakTies`/`breakTies1`/`breakTies2` (paper §2.2).
fn break_ties(kind: TieKind, arr: RtValue) -> Result<RtValue, LangError> {
    fn keep_first(mut row: Vec<RtValue>) -> Result<Vec<RtValue>, LangError> {
        let mut seen = false;
        for v in row.iter_mut() {
            match v {
                RtValue::Bool(b) => {
                    if *b {
                        if seen {
                            *b = false;
                        }
                        seen = true;
                    }
                }
                other => {
                    return Err(LangError::Runtime(format!(
                        "breakTies expects Boolean entries, found {}",
                        other.kind()
                    )))
                }
            }
        }
        Ok(row)
    }

    match (kind, arr) {
        (TieKind::One, RtValue::Array(items)) => Ok(RtValue::Array(keep_first(items)?)),
        (TieKind::Dim1, RtValue::Array(rows)) => {
            // Fix the first dimension: break ties along each row.
            let rows = rows
                .into_iter()
                .map(|row| match row {
                    RtValue::Array(items) => keep_first(items).map(RtValue::Array),
                    other => Err(LangError::Runtime(format!(
                        "breakTies1 expects a 2-D array, found row of {}",
                        other.kind()
                    ))),
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(RtValue::Array(rows))
        }
        (TieKind::Dim2, RtValue::Array(rows)) => {
            // Fix the second dimension: break ties along each column.
            let mut matrix: Vec<Vec<RtValue>> = rows
                .into_iter()
                .map(|row| match row {
                    RtValue::Array(items) => Ok(items),
                    other => Err(LangError::Runtime(format!(
                        "breakTies2 expects a 2-D array, found row of {}",
                        other.kind()
                    ))),
                })
                .collect::<Result<Vec<_>, _>>()?;
            let n_cols = matrix.first().map_or(0, Vec::len);
            for col in 0..n_cols {
                let mut seen = false;
                for row in matrix.iter_mut() {
                    match row.get_mut(col) {
                        Some(RtValue::Bool(b)) => {
                            if *b {
                                if seen {
                                    *b = false;
                                }
                                seen = true;
                            }
                        }
                        Some(other) => {
                            return Err(LangError::Runtime(format!(
                                "breakTies2 expects Boolean entries, found {}",
                                other.kind()
                            )))
                        }
                        None => {
                            return Err(LangError::Runtime(
                                "breakTies2 expects a rectangular array".into(),
                            ))
                        }
                    }
                }
            }
            Ok(RtValue::Array(
                matrix.into_iter().map(RtValue::Array).collect(),
            ))
        }
        (_, other) => Err(LangError::Runtime(format!(
            "breakTies expects an array, found {}",
            other.kind()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::programs;

    fn run_with<'e>(src: &str, env: &'e SimpleEnv) -> Interp<'e> {
        let prog = parse(src).expect("parse");
        let mut interp = Interp::new(env);
        interp.run(&prog).expect("run");
        interp
    }

    fn run(src: &str) -> HashMap<String, RtValue> {
        let env = SimpleEnv::default();
        let prog = parse(src).expect("parse");
        let mut interp = Interp::new(&env);
        interp.run(&prog).expect("run");
        interp.env().clone()
    }

    #[test]
    fn scalar_assignments() {
        let env = run("V = 2\nW = V\nX = W + 3\n");
        assert_eq!(env["X"], RtValue::Int(5));
    }

    #[test]
    fn array_init_and_index_assignment() {
        let env = run("M = [None] * 3\nM[1] = True\n");
        assert_eq!(
            env["M"],
            RtValue::Array(vec![RtValue::Undef, RtValue::Bool(true), RtValue::Undef])
        );
    }

    #[test]
    fn nested_loops_fill_matrix() {
        let src = "\
M = [None] * 2
for i in range(0,2):
    M[i] = [None] * 3
    for j in range(0,3):
        M[i][j] = i * 3 + j
";
        let env = run(src);
        match &env["M"] {
            RtValue::Array(rows) => {
                assert_eq!(rows.len(), 2);
                match &rows[1] {
                    RtValue::Array(r) => assert_eq!(r[2], RtValue::Int(5)),
                    other => panic!("unexpected {other:?}"),
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_example3_counter_program() {
        // The loop/assignment pattern from Example 3: M accumulates.
        let src = "\
M = 7
M = M + 2
for i in range(0,2):
    M = M + i
    for j in range(0,3):
        M = M + 1
M = M + 1
";
        let env = run(src);
        // 7+2 = 9; i=0: +0 +3 = 12; i=1: +1 +3 = 16; +1 = 17.
        assert_eq!(env["M"], RtValue::Int(17));
    }

    #[test]
    fn reduce_sum_with_filter_skips() {
        let src = "\
B = [None] * 4
for i in range(0,4):
    B[i] = i > 1
S = reduce_sum([10 for i in range(0,4) if B[i]])
C = reduce_count([1 for i in range(0,4) if B[i]])
";
        let env = run(src);
        assert_eq!(env["S"], RtValue::Int(20));
        assert_eq!(env["C"], RtValue::Int(2));
    }

    #[test]
    fn empty_reduce_semantics() {
        let src = "\
S = reduce_sum([1 for i in range(0,0)])
C = reduce_count([1 for i in range(0,0)])
A = reduce_and([1 > 2 for i in range(0,0)])
O = reduce_or([1 > 2 for i in range(0,0)])
P = reduce_mult([2 for i in range(0,0)])
";
        let env = run(src);
        assert!(
            env["S"].is_undef(),
            "empty sum is undefined (Σ of no c-values)"
        );
        assert!(env["C"].is_undef(), "empty count is undefined (Σ COND⊗1)");
        assert_eq!(env["A"], RtValue::Bool(true));
        assert_eq!(env["O"], RtValue::Bool(false));
        assert_eq!(env["P"], RtValue::Int(1));
    }

    #[test]
    fn invert_zero_count_gives_undefined_centroid() {
        // k-means' empty-cluster behaviour.
        let src = "C = reduce_count([1 for i in range(0,3) if 1 > 2])\nI = invert(C)\n";
        let env = run(src);
        assert!(env["C"].is_undef());
        assert!(env["I"].is_undef());
    }

    #[test]
    fn break_ties_variants() {
        let src = "\
B = [None] * 3
B[0] = True
B[1] = True
B[2] = False
B = breakTies(B)
M = [None] * 2
for i in range(0,2):
    M[i] = [None] * 2
    for j in range(0,2):
        M[i][j] = True
M1 = breakTies1(M)
M2 = breakTies2(M)
";
        let env = run(src);
        assert_eq!(
            env["B"],
            RtValue::Array(vec![
                RtValue::Bool(true),
                RtValue::Bool(false),
                RtValue::Bool(false)
            ])
        );
        // breakTies1: first True per row survives.
        assert_eq!(
            env["M1"],
            RtValue::Array(vec![
                RtValue::Array(vec![RtValue::Bool(true), RtValue::Bool(false)]),
                RtValue::Array(vec![RtValue::Bool(true), RtValue::Bool(false)]),
            ])
        );
        // breakTies2: first True per column survives.
        assert_eq!(
            env["M2"],
            RtValue::Array(vec![
                RtValue::Array(vec![RtValue::Bool(true), RtValue::Bool(true)]),
                RtValue::Array(vec![RtValue::Bool(false), RtValue::Bool(false)]),
            ])
        );
    }

    /// Environment for k-medoids over four 1-D points (paper Example 1
    /// geometry), all certainly present.
    fn kmedoids_env() -> SimpleEnv {
        let objects = RtValue::Array(vec![
            RtValue::point(&[0.0]),
            RtValue::point(&[1.0]),
            RtValue::point(&[5.0]),
            RtValue::point(&[6.0]),
        ]);
        SimpleEnv {
            data: vec![objects, RtValue::Int(4)],
            params: vec![RtValue::Int(2), RtValue::Int(3)],
            init_value: RtValue::Array(vec![RtValue::point(&[1.0]), RtValue::point(&[6.0])]),
        }
    }

    #[test]
    fn kmedoids_clusters_example1() {
        let env = kmedoids_env();
        let interp = run_with(programs::K_MEDOIDS, &env);
        // Final medoids: cluster {o0,o1} elects o0 (ties to lower index);
        // cluster {o2,o3} elects o2.
        match interp.get("M").unwrap() {
            RtValue::Array(ms) => {
                assert_eq!(ms[0], RtValue::point(&[0.0]));
                assert_eq!(ms[1], RtValue::point(&[5.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
        // InCl: objects 0,1 in cluster 0; 2,3 in cluster 1.
        match interp.get("InCl").unwrap() {
            RtValue::Array(rows) => {
                assert_eq!(
                    rows[0],
                    RtValue::Array(vec![
                        RtValue::Bool(true),
                        RtValue::Bool(true),
                        RtValue::Bool(false),
                        RtValue::Bool(false)
                    ])
                );
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kmedoids_with_absent_object() {
        // Object o3 absent (Undef). Its distances are undefined; it must
        // not disturb the clustering of o0..o2, and M[1] = o2.
        let mut env = kmedoids_env();
        env.data[0] = RtValue::Array(vec![
            RtValue::point(&[0.0]),
            RtValue::point(&[1.0]),
            RtValue::point(&[5.0]),
            RtValue::Undef,
        ]);
        let interp = run_with(programs::K_MEDOIDS, &env);
        match interp.get("M").unwrap() {
            RtValue::Array(ms) => {
                assert_eq!(ms[0], RtValue::point(&[0.0]));
                assert_eq!(ms[1], RtValue::point(&[5.0]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn kmeans_runs_and_computes_centroids() {
        let env = kmedoids_env();
        let interp = run_with(programs::K_MEANS, &env);
        match interp.get("M").unwrap() {
            RtValue::Array(ms) => {
                assert_eq!(ms[0], RtValue::point(&[0.5]));
                assert_eq!(ms[1], RtValue::point(&[5.5]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn mcl_runs_on_stochastic_matrix() {
        // Two disconnected pairs: MCL keeps flow within pairs.
        let n = 4;
        let mut rows = Vec::new();
        let weights = [
            [0.5, 0.5, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ];
        for r in &weights {
            rows.push(RtValue::Array(
                r.iter().map(|&w| RtValue::Float(w)).collect(),
            ));
        }
        let env = SimpleEnv {
            data: vec![
                RtValue::Array((0..n).map(|i| RtValue::point(&[i as f64])).collect()),
                RtValue::Int(n as i64),
                RtValue::Array(rows),
            ],
            params: vec![RtValue::Int(2), RtValue::Int(4)],
            init_value: RtValue::Undef,
        };
        let interp = run_with(programs::MCL, &env);
        match interp.get("M").unwrap() {
            RtValue::Array(rows) => {
                let row0 = match &rows[0] {
                    RtValue::Array(r) => r,
                    other => panic!("unexpected {other:?}"),
                };
                // Mass stays within the first block.
                let in_block: f64 = row0[0].as_f64().unwrap() + row0[1].as_f64().unwrap();
                let out_block: f64 = row0[2].as_f64().unwrap() + row0[3].as_f64().unwrap();
                assert!((in_block - 1.0).abs() < 1e-9);
                assert!(out_block.abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn runtime_errors_are_reported() {
        assert!(matches!(
            parse("x = y\n").map(|p| Interp::new(&SimpleEnv::default()).run(&p)),
            Ok(Err(LangError::Runtime(_)))
        ));
        // Index out of range.
        let p = parse("M = [None] * 2\nM[5] = 1\n").unwrap();
        assert!(Interp::new(&SimpleEnv::default()).run(&p).is_err());
        // Negative array size.
        let p = parse("M = [None] * (0 - 1)\n").unwrap();
        assert!(Interp::new(&SimpleEnv::default()).run(&p).is_err());
        // Arity mismatch.
        let p = parse("(a, b, c) = loadParams()\n").unwrap();
        let env = SimpleEnv {
            params: vec![RtValue::Int(1)],
            ..SimpleEnv::default()
        };
        assert!(Interp::new(&env).run(&p).is_err());
    }

    #[test]
    fn loop_variable_scoping_restored() {
        let src = "\
i = 99
for i in range(0,3):
    x = i
y = i
";
        let env = run(src);
        assert_eq!(env["y"], RtValue::Int(99));
        assert_eq!(env["x"], RtValue::Int(2));
    }
}
