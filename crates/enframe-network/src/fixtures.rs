//! Small event programs for the evaluators' tests: fixed shapes that cover
//! every node kind, plus seeded lineage and k-medoids programs. Compiled
//! only into test builds; `enframe-obdd` and `enframe-prob` include this
//! same file with `#[path]`, so it uses nothing but `enframe-core`.

use enframe_core::{CVal, CmpOp, Event, Program, Value, Var};
use std::rc::Rc;

/// A xorshift stream from a seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }

    /// A small coordinate, so that distances tie now and then.
    fn coord(&mut self) -> f64 {
        self.below(5) as f64
    }
}

/// `E ≡ (x ∧ ¬y) ∨ z`.
pub fn propositional() -> Program {
    let mut p = Program::new();
    let (x, y, z) = (p.fresh_var(), p.fresh_var(), p.fresh_var());
    let e = p.declare_event(
        "E",
        Program::or([
            Program::and([Program::var(x), Program::nvar(y)]),
            Program::var(z),
        ]),
    );
    p.add_target(e);
    p
}

/// `A0 ≡ [x⊗1 + y⊗2 ≥ 2]`, `A1 ≡ [x⊗1 + 5 ≥ 4]` (decided by intervals alone)
/// and `A2 ≡ [u ≤ x⊗0]` (true by §3.2 before any assignment).
pub fn atoms() -> Program {
    let mut p = Program::new();
    let (x, y) = (p.fresh_var(), p.fresh_var());
    let sum = Rc::new(CVal::Sum(vec![
        CVal::cond(Program::var(x), Value::Num(1.0)),
        CVal::cond(Program::var(y), Value::Num(2.0)),
    ]));
    let shifted = Rc::new(CVal::Sum(vec![
        CVal::cond(Program::var(x), Value::Num(1.0)),
        CVal::num(5.0),
    ]));
    let undef = Rc::new(CVal::Const(Value::Undef));
    let atoms = [
        Event::Atom(CmpOp::Ge, sum, CVal::num(2.0)),
        Event::Atom(CmpOp::Ge, shifted, CVal::num(4.0)),
        Event::Atom(
            CmpOp::Le,
            undef,
            CVal::cond(Program::var(x), Value::Num(0.0)),
        ),
    ];
    for (i, atom) in atoms.into_iter().enumerate() {
        let id = p.declare_event(&format!("A{i}"), Rc::new(atom));
        p.add_target(id);
    }
    p
}

/// Products, inverses and powers: `[(x⊗2)·3 > 100]`, `[1/(x⊗2 + y⊗−2) ≥ 0]`
/// (the inverse of 0 is `u`) and `[(y⊗3)² ≤ (x⊗1)⁻¹]`.
pub fn arithmetic() -> Program {
    let mut p = Program::new();
    let (x, y) = (p.fresh_var(), p.fresh_var());
    let prod = Rc::new(CVal::Prod(vec![
        CVal::cond(Program::var(x), Value::Num(2.0)),
        CVal::num(3.0),
    ]));
    let inv = Rc::new(CVal::Inv(Rc::new(CVal::Sum(vec![
        CVal::cond(Program::var(x), Value::Num(2.0)),
        CVal::cond(Program::var(y), Value::Num(-2.0)),
    ]))));
    let square = Rc::new(CVal::Pow(CVal::cond(Program::var(y), Value::Num(3.0)), 2));
    let recip = Rc::new(CVal::Pow(CVal::cond(Program::var(x), Value::Num(1.0)), -1));
    let atoms = [
        Event::Atom(CmpOp::Gt, prod, CVal::num(100.0)),
        Event::Atom(CmpOp::Ge, inv, CVal::num(0.0)),
        Event::Atom(CmpOp::Le, square, recip),
    ];
    for (i, atom) in atoms.into_iter().enumerate() {
        let id = p.declare_event(&format!("A{i}"), Rc::new(atom));
        p.add_target(id);
    }
    p
}

/// A sum whose summands share a guard variable, so one assignment changes
/// several of its inputs in one wave: `[x⊗1 + x⊗2 + dist(x⊗3, 0) ≥ 6]`.
pub fn shared_variable() -> Program {
    let mut p = Program::new();
    let x = p.fresh_var();
    let s = Rc::new(CVal::Sum(vec![
        CVal::cond(Program::var(x), Value::Num(1.0)),
        CVal::cond(Program::var(x), Value::Num(2.0)),
        Rc::new(CVal::Dist(
            CVal::cond(Program::var(x), Value::Num(3.0)),
            CVal::num(0.0),
        )),
    ]));
    let a = p.declare_event("A", Rc::new(Event::Atom(CmpOp::Ge, s, CVal::num(6.0))));
    p.add_target(a);
    p
}

/// A k-medoids-shaped pair of targets over conditional points: a
/// distance comparison, and a guarded sum compared to a constant.
pub fn kmedoids_shaped() -> Program {
    let mut p = Program::new();
    let (x0, x1) = (p.fresh_var(), p.fresh_var());
    let o0 = CVal::cond(Program::var(x0), Value::point(&[0.0, 0.0]));
    let o1 = CVal::cond(Program::var(x1), Value::point(&[3.0, 4.0]));
    let o2 = CVal::point(&[6.0, 8.0]);
    let d01 = Rc::new(CVal::Dist(o0.clone(), o1.clone()));
    let d02 = Rc::new(CVal::Dist(o0, o2.clone()));
    let a = p.declare_event("A", Rc::new(Event::Atom(CmpOp::Le, d01, d02)));
    let s = Rc::new(CVal::Sum(vec![
        Rc::new(CVal::Guard(Program::eref(a), Rc::new(CVal::Dist(o1, o2)))),
        CVal::num(1.0),
    ]));
    let b = p.declare_event("B", Rc::new(Event::Atom(CmpOp::Lt, s, CVal::num(5.0))));
    p.add_target(a);
    p.add_target(b);
    p
}

/// Random propositional lineage over `n` variables: connectives over
/// literals and earlier subformulas, the last three as targets.
pub fn lineage(n: usize, rng: &mut Rng) -> Program {
    let mut p = Program::new();
    let mut exprs: Vec<Rc<Event>> = (0..n).map(|_| Program::var(p.fresh_var())).collect();
    for _ in 0..2 * n {
        let mut pick = || exprs[rng.below(exprs.len() as u64) as usize].clone();
        let (a, b, c) = (pick(), pick(), pick());
        let e = match rng.below(3) {
            0 => Program::and([a, b, c]),
            1 => Program::or([a, b, c]),
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

/// One random k-medoids step over `n` uncertain 2-D objects and two
/// medoids (the second one uncertain): each object's cluster choice, each
/// cluster's cost and point sum, and the centroid of the first cluster
/// (sum times inverse count). Targets compare the costs and the centroid.
pub fn kmedoids(n: usize, rng: &mut Rng) -> Program {
    let mut p = Program::new();
    let objects: Vec<Rc<CVal>> = (0..n)
        .map(|_| {
            let x = p.fresh_var();
            CVal::cond(Program::var(x), Value::point(&[rng.coord(), rng.coord()]))
        })
        .collect();
    let m0 = CVal::point(&[rng.coord(), rng.coord()]);
    let m1 = objects[0].clone();
    let near0: Vec<Rc<Event>> = objects
        .iter()
        .enumerate()
        .map(|(i, o)| {
            let d0 = Rc::new(CVal::Dist(o.clone(), m0.clone()));
            let d1 = Rc::new(CVal::Dist(o.clone(), m1.clone()));
            let atom = Rc::new(Event::Atom(CmpOp::Le, d0, d1));
            Program::eref(p.declare_event_at("Near0", &[i as i64], atom))
        })
        .collect();
    let cost = |m: &Rc<CVal>, positive: bool| {
        Rc::new(CVal::Sum(
            objects
                .iter()
                .zip(&near0)
                .map(|(o, e)| {
                    let guard = if positive {
                        e.clone()
                    } else {
                        Program::not(e.clone())
                    };
                    let d = Rc::new(CVal::Dist(o.clone(), m.clone()));
                    Rc::new(CVal::Guard(guard, d))
                })
                .collect(),
        ))
    };
    let (c0, c1) = (cost(&m0, true), cost(&m1, false));
    let count = Rc::new(CVal::Sum(
        near0
            .iter()
            .map(|e| CVal::cond(e.clone(), Value::Num(1.0)))
            .collect(),
    ));
    let sum = Rc::new(CVal::Sum(
        objects
            .iter()
            .zip(&near0)
            .map(|(o, e)| Rc::new(CVal::Guard(e.clone(), o.clone())))
            .collect(),
    ));
    let centroid = Rc::new(CVal::Prod(vec![Rc::new(CVal::Inv(count)), sum]));
    let spread = Rc::new(CVal::Dist(centroid, m0.clone()));
    let atoms = [
        Event::Atom(CmpOp::Le, c0, c1.clone()),
        Event::Atom(CmpOp::Lt, spread, CVal::num(rng.coord())),
        Event::Atom(CmpOp::Ge, Rc::new(CVal::Pow(c1, 2)), CVal::num(9.0)),
    ];
    for (i, atom) in atoms.into_iter().enumerate() {
        let id = p.declare_event(&format!("T{i}"), Rc::new(atom));
        p.add_target(id);
    }
    p
}

/// The fixed programs, then one lineage and one k-medoids program drawn
/// from `seed`.
pub fn programs(seed: u64) -> Vec<Program> {
    let mut rng = Rng::new(seed);
    vec![
        propositional(),
        atoms(),
        arithmetic(),
        shared_variable(),
        kmedoids_shaped(),
        lineage(6, &mut rng),
        kmedoids(4, &mut rng),
    ]
}

/// A random partial assignment of `n` variables: each is assigned with
/// probability ½, in a random order.
pub fn partial_assignment(n: u32, rng: &mut Rng) -> Vec<(Var, bool)> {
    let mut vars: Vec<Var> = (0..n).map(Var).collect();
    for i in (1..vars.len()).rev() {
        vars.swap(i, rng.below(i as u64 + 1) as usize);
    }
    vars.into_iter()
        .filter_map(|v| match rng.below(4) {
            0 => Some((v, false)),
            1 => Some((v, true)),
            _ => None,
        })
        .collect()
}
