//! Markov clustering on an uncertain graph (paper Figure 3).
//!
//! A small social-network-style graph has two dense communities connected
//! by a bridge node that exists only probabilistically. MCL's
//! expansion/inflation recurrence is interpreted probabilistically: the
//! final flow matrix entries are c-values, and we compute the probability
//! that flow stays within a community via comparison events.
//!
//! Run with: `cargo run --example markov_clustering`

use enframe::core::program::{SymCVal, SymEvent, ValSrc};
use enframe::prelude::*;
use enframe::translate::env::{ProbMatrix, ProbObjects};
use enframe::translate::world_env;
use std::rc::Rc;

fn main() {
    // 5 nodes: {0,1} and {3,4} are communities, node 2 is an uncertain
    // bridge.
    let n = 5;
    let mut w = vec![vec![0.0; n]; n];
    for &(a, b, v) in &[(0usize, 1usize, 1.0), (3, 4, 1.0), (1, 2, 0.6), (2, 3, 0.6)] {
        w[a][b] = v;
        w[b][a] = v;
    }
    let bridge = Var(0);
    let lineage: Vec<Rc<Event>> = (0..n)
        .map(|i| {
            if i == 2 {
                Event::var(bridge)
            } else {
                Rc::new(Event::Tru)
            }
        })
        .collect();

    // The user program of Figure 3 over the uncertain graph.
    let env = ProbEnv {
        data: vec![
            ProbValue::Objects(ProbObjects::certain(
                (0..n).map(|i| vec![i as f64]).collect(),
            )),
            ProbValue::int(n as i64),
            ProbValue::Matrix(ProbMatrix::new(w, lineage)),
        ],
        params: vec![ProbValue::int(2), ProbValue::int(2)], // r=2, 2 iterations
        init: ProbValue::Certain(enframe::lang::RtValue::Undef),
        n_vars: 1,
    };
    let ast = parse(programs::MCL).unwrap();

    // Deterministic reference: the same program run in each of the two
    // worlds (bridge present and absent), as the naïve baseline does.
    for (world, code) in [("present", 1), ("absent", 0)] {
        let wenv = world_env(&env, &Valuation::from_code(1, code));
        let mut interp = Interp::new(&wenv);
        interp.run(&ast).unwrap();
        let m13 = match interp.get("M") {
            Some(RtValue::Array(rows)) => match &rows[1] {
                RtValue::Array(row) => row[3].as_f64().expect("M[1][3] is a number"),
                other => panic!("unexpected row {other:?}"),
            },
            other => panic!("unexpected M {other:?}"),
        };
        println!("bridge {world:<7}: M[1][3] after 2 iterations = {m13:.4}");
    }

    // Probabilistic interpretation via translation.
    let mut tr = translate(&ast, &env).unwrap();

    // Target: after 2 rounds, does node 1 send non-trivial flow to node 3
    // (i.e. do the communities connect)? With the bridge present the flow
    // M[1][3] is ≈ 0.019 after two inflation rounds; absent, it is 0 (both
    // printed above) — so the event [M[1][3] > 0.005] holds exactly when the
    // bridge exists.
    let m13 = tr
        .cval_ident("M", &[1, 3])
        .expect("matrix entry is symbolic");
    let atom = Rc::new(SymEvent::Atom(
        CmpOp::Gt,
        Rc::new(SymCVal::Ref(m13)),
        Rc::new(SymCVal::Lit(ValSrc::Const(Value::Num(0.005)))),
    ));
    let t = tr.program.declare_event("CrossFlow", atom);
    tr.program.add_target(t);

    let gp = tr.ground().unwrap();
    let net = Network::build(&gp).unwrap();
    println!("\nevent network for 2 MCL iterations: {} nodes", net.len());
    for p_bridge in [0.2, 0.5, 0.9] {
        let vt = VarTable::new(vec![p_bridge]);
        let res = compile(&net, &vt, Options::exact());
        println!(
            "P[bridge] = {:.1}  =>  P[cross-community flow] = {:.4}",
            p_bridge,
            res.estimate(0)
        );
        assert!(
            (res.estimate(0) - p_bridge).abs() <= 1e-12,
            "CrossFlow must hold exactly when the bridge exists"
        );
    }
}
