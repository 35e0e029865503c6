//! MCL under the possible-worlds semantics: the probabilistic
//! interpretation of the Figure 3 user program agrees world-by-world with
//! the deterministic interpreter, and flow-threshold event probabilities
//! match brute force.

use enframe::core::{space, Valuation};
use enframe::prelude::*;
use enframe::translate::env::{ProbMatrix, ProbObjects};
use enframe::translate::world_env;
use std::rc::Rc;

fn uncertain_graph() -> (ProbEnv, VarTable) {
    // 4 nodes, two pairs; nodes 1 and 2 uncertain.
    let n = 4;
    let mut w = vec![vec![0.0; n]; n];
    for &(a, b) in &[(0usize, 1usize), (2, 3)] {
        w[a][b] = 1.0;
        w[b][a] = 1.0;
    }
    w[1][2] = 0.4;
    w[2][1] = 0.4;
    for (i, row) in w.iter_mut().enumerate() {
        row[i] = 0.5; // self loops keep rows non-degenerate
    }
    let lineage: Vec<Rc<Event>> = vec![
        Rc::new(Event::Tru),
        Event::var(Var(0)),
        Event::var(Var(1)),
        Rc::new(Event::Tru),
    ];
    let env = ProbEnv {
        data: vec![
            ProbValue::Objects(ProbObjects::certain(
                (0..n).map(|i| vec![i as f64]).collect(),
            )),
            ProbValue::int(n as i64),
            ProbValue::Matrix(ProbMatrix::new(w, lineage)),
        ],
        params: vec![ProbValue::int(2), ProbValue::int(2)],
        init: ProbValue::Certain(enframe::lang::RtValue::Undef),
        n_vars: 2,
    };
    (env, VarTable::new(vec![0.6, 0.7]))
}

#[test]
fn mcl_per_world_matrix_agreement() {
    let (env, _vt) = uncertain_graph();
    let ast = parse(programs::MCL).unwrap();
    let tr = translate(&ast, &env).unwrap();
    let gp = tr.ground().unwrap();

    for code in 0..4u64 {
        let nu = Valuation::from_code(2, code);
        let wenv = world_env(&env, &nu);
        let mut interp = enframe::lang::Interp::new(&wenv);
        interp.run(&ast).unwrap();
        let m = interp.get("M").unwrap().clone();
        for i in 0..4usize {
            for j in 0..4usize {
                let interp_val = match &m {
                    enframe::lang::RtValue::Array(rows) => match &rows[i] {
                        enframe::lang::RtValue::Array(r) => r[j].clone(),
                        other => panic!("unexpected {other:?}"),
                    },
                    other => panic!("unexpected {other:?}"),
                };
                match tr.slot_at("M", &[i, j]).unwrap() {
                    enframe::translate::Slot::Concrete(rv) => match (&interp_val, rv) {
                        (enframe::lang::RtValue::Undef, enframe::lang::RtValue::Undef) => {}
                        (a, b) => {
                            let (x, y) = (a.as_f64().unwrap(), b.as_f64().unwrap());
                            assert!((x - y).abs() < 1e-12);
                        }
                    },
                    enframe::translate::Slot::CVal(c) => {
                        let id = match **c {
                            CVal::Ref(id) => id,
                            ref other => panic!("unexpected {other:?}"),
                        };
                        let ev = gp.eval_value(id, &nu).unwrap();
                        match (&interp_val, &ev) {
                            (enframe::lang::RtValue::Undef, Value::Undef) => {}
                            (a, Value::Num(y)) => {
                                let x = a.as_f64().unwrap();
                                assert!(
                                    (x - y).abs() < 1e-9,
                                    "world {code:b} M[{i}][{j}]: {x} vs {y}"
                                );
                            }
                            (a, b) => panic!("world {code:b} M[{i}][{j}]: {a:?} vs {b:?}"),
                        }
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
    }
}

#[test]
fn mcl_flow_event_probability_matches_brute_force() {
    let (env, vt) = uncertain_graph();
    let ast = parse(programs::MCL).unwrap();
    let mut tr = translate(&ast, &env).unwrap();
    // Event: after 2 iterations, flow M[0][1] exceeds 0.1.
    let m01 = tr.cval_ident("M", &[0, 1]).expect("symbolic entry");
    let atom = Rc::new(Event::Atom(CmpOp::Gt, Program::cref(m01), CVal::num(0.1)));
    let t = tr.program.declare_event("Flow01", atom);
    tr.program.add_target(t);
    let gp = tr.ground().unwrap();
    let net = Network::build(&gp).unwrap();
    let want = space::target_probabilities(&gp, &vt);
    let got = compile(&net, &vt, Options::exact());
    assert!(
        (got.estimate(0) - want[0]).abs() < 1e-9,
        "compiled {} vs brute {}",
        got.estimate(0),
        want[0]
    );
}
