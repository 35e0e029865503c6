//! The front half (user program → event program → grounded program →
//! event network) is pinned two ways:
//!
//! * **Golden networks.** A digest over every node — kind, children in
//!   order, payload bits — plus the targets and their names, for one
//!   fixture per canonical program. The constants were generated before
//!   the front half was made copy-free, so a change that alters a single
//!   node id, child order or constant anywhere in `translate`, `ground`
//!   or `Network::build` shows up here, and every engine downstream is
//!   known to see the network it always saw.
//! * **Error parity.** Element reads resolve `Name[ix]…` chains by
//!   reference; which error wins when several parts of a chain are wrong
//!   (outermost index expression first, the name last, then the walk from
//!   level 1 outwards) is observable behaviour and is fixed here for both
//!   the translator and the concrete interpreter.

use enframe::data::{kmedoids_workload, LineageOpts, Scheme};
use enframe::lang::LangError;
use enframe::prelude::*;
use enframe::translate::env::{ProbMatrix, ProbObjects};
use enframe::translate::{targets, TranslateError};
use std::rc::Rc;

/// FNV-1a, 64 bit: stable across toolchains, unlike `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, w: u64) {
        self.bytes(&w.to_le_bytes());
    }
}

/// What a golden fixture pins: the network's size and its digest.
#[derive(Debug, PartialEq, Eq)]
struct Golden {
    nodes: usize,
    edges: usize,
    targets: usize,
    digest: u64,
}

fn golden(net: &Network) -> Golden {
    let mut h = Fnv::new();
    let mut edges = 0;
    for node in net.nodes() {
        h.bytes(format!("{:?}", node.kind).as_bytes());
        h.word(node.children.len() as u64);
        for c in &node.children {
            h.word(u64::from(c.0));
        }
        edges += node.children.len();
        match &node.value {
            None => h.word(0),
            Some(Value::Undef) => h.word(1),
            Some(Value::Num(x)) => {
                h.word(2);
                h.word(x.to_bits());
            }
            Some(Value::Point(p)) => {
                h.word(3);
                h.word(p.len() as u64);
                for x in p.iter() {
                    h.word(x.to_bits());
                }
            }
        }
    }
    h.word(net.targets.len() as u64);
    for (t, name) in net.targets.iter().zip(&net.target_names) {
        h.word(u64::from(t.0));
        h.bytes(name.as_bytes());
    }
    Golden {
        nodes: net.len(),
        edges,
        targets: net.targets.len(),
        digest: h.0,
    }
}

fn clustering_network(program: &str, target_var: &str) -> Network {
    let w = kmedoids_workload(
        24,
        2,
        3,
        Scheme::Positive { l: 3, v: 8 },
        &LineageOpts::default(),
        7,
    );
    let ast = parse(program).unwrap();
    let mut tr = translate(&ast, &w.env).unwrap();
    assert!(targets::add_all_bool_targets(&mut tr, target_var) > 0);
    Network::build(&tr.ground().unwrap()).unwrap()
}

#[test]
fn kmedoids_network_is_node_for_node_the_golden_one() {
    assert_eq!(
        golden(&clustering_network(programs::K_MEDOIDS, "Centre")),
        Golden {
            nodes: 8562,
            edges: 24546,
            targets: 48,
            digest: 10_273_432_079_407_512_811,
        }
    );
}

#[test]
fn kmeans_network_is_node_for_node_the_golden_one() {
    assert_eq!(
        golden(&clustering_network(programs::K_MEANS, "InCl")),
        Golden {
            nodes: 678,
            edges: 1326,
            targets: 48,
            digest: 2_977_119_139_881_723_518,
        }
    );
}

/// MCL over a 5-node graph with three uncertain nodes, two iterations;
/// targets are the flow events `M[i][j] > 0.1` of every symbolic entry.
#[test]
fn mcl_network_is_node_for_node_the_golden_one() {
    let n = 5;
    let mut w = vec![vec![0.0; n]; n];
    for &(a, b, weight) in &[
        (0usize, 1usize, 1.0),
        (1, 2, 0.4),
        (2, 3, 1.0),
        (3, 4, 0.7),
        (0, 4, 0.2),
    ] {
        w[a][b] = weight;
        w[b][a] = weight;
    }
    for (i, row) in w.iter_mut().enumerate() {
        row[i] = 0.5;
    }
    let lineage: Vec<Rc<Event>> = vec![
        Rc::new(Event::Tru),
        Event::var(Var(0)),
        Event::var(Var(1)),
        Rc::new(Event::Tru),
        Event::var(Var(2)),
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
        init: ProbValue::Certain(RtValue::Undef),
        n_vars: 3,
    };
    let ast = parse(programs::MCL).unwrap();
    let mut tr = translate(&ast, &env).unwrap();
    for i in 0..n {
        for j in 0..n {
            let Some(m) = tr.cval_ident("M", &[i, j]) else {
                continue;
            };
            let atom = Rc::new(Event::Atom(
                CmpOp::Gt,
                Program::cref(m),
                Rc::new(CVal::Const(Value::Num(0.1))),
            ));
            let t = tr
                .program
                .declare_event_at("Flow", &[i as i64, j as i64], atom);
            tr.program.add_target(t);
        }
    }
    let net = Network::build(&tr.ground().unwrap()).unwrap();
    assert_eq!(
        golden(&net),
        Golden {
            nodes: 465,
            edges: 1023,
            targets: 25,
            digest: 18_050_033_434_109_702_830,
        }
    );
}

/// A lineage query shaped like the serving workloads': `Exists[g]` per
/// group from `declare_closed_event`, `Any[w]` per window of four groups,
/// `AtLeastOne`, `Co[i] = Exists[i] ∧ Exists[i + n/2]` and `AnyCo`.
fn lineage_network(scheme: Scheme) -> Network {
    let opts = LineageOpts {
        group_size: 1,
        ..LineageOpts::default()
    };
    let corr = enframe::data::generate_lineage(16, scheme, &opts, 3);
    let mut p = Program::new();
    p.ensure_vars(corr.var_table.len() as u32);
    let exists: Vec<_> = corr
        .lineage
        .iter()
        .enumerate()
        .map(|(g, phi)| p.declare_closed_event(&format!("Exists{g}"), phi).unwrap())
        .collect();
    for id in exists.iter().cloned() {
        p.add_target(id);
    }
    for (w, window) in exists.chunks(4).enumerate() {
        let id = p.declare_event(
            &format!("Any{w}"),
            Program::or(window.iter().cloned().map(Program::eref)),
        );
        p.add_target(id);
    }
    let id = p.declare_event(
        "AtLeastOne",
        Program::or(exists.iter().cloned().map(Program::eref)),
    );
    p.add_target(id);
    let half = exists.len() / 2;
    let pairs: Vec<_> = (0..half)
        .map(|i| {
            let both = [&exists[i], &exists[half + i]];
            p.declare_event(
                &format!("Co{i}"),
                Program::and(both.into_iter().cloned().map(Program::eref)),
            )
        })
        .collect();
    for id in pairs.iter().cloned() {
        p.add_target(id);
    }
    let id = p.declare_event("AnyCo", Program::or(pairs.into_iter().map(Program::eref)));
    p.add_target(id);
    Network::build(&p.ground().unwrap()).unwrap()
}

#[test]
fn mutex_lineage_network_is_node_for_node_the_golden_one() {
    assert_eq!(
        golden(&lineage_network(Scheme::Mutex { m: 4 })),
        Golden {
            nodes: 54,
            edges: 104,
            targets: 30,
            digest: 16_051_445_334_096_452_604,
        }
    );
}

#[test]
fn positive_lineage_network_is_node_for_node_the_golden_one() {
    assert_eq!(
        golden(&lineage_network(Scheme::Positive { l: 3, v: 8 })),
        Golden {
            nodes: 38,
            edges: 104,
            targets: 30,
            digest: 2_549_133_780_445_667_520,
        }
    );
}

// ---- error parity ----------------------------------------------------------

/// A 2×3 integer matrix `A`, a scalar `s`, then one statement under test.
fn with_matrix(stmt: &str) -> String {
    format!(
        "\
A = [None] * 2
for i in range(0,2):
    A[i] = [None] * 3
    for j in range(0,3):
        A[i][j] = i * 3 + j
s = 3
{stmt}
"
    )
}

fn certain_env() -> ProbEnv {
    ProbEnv {
        data: vec![],
        params: vec![],
        init: ProbValue::Certain(RtValue::Undef),
        n_vars: 0,
    }
}

fn translate_err(stmt: &str) -> TranslateError {
    let ast = parse(&with_matrix(stmt)).unwrap();
    translate(&ast, &certain_env()).unwrap_err()
}

fn interp_err(stmt: &str) -> LangError {
    let ast = parse(&with_matrix(stmt)).unwrap();
    let env = SimpleEnv::default();
    Interp::new(&env).run(&ast).unwrap_err()
}

fn runtime(msg: &str) -> LangError {
    LangError::Runtime(msg.into())
}

/// Both front ends raise the same runtime error.
fn both_raise(stmt: &str, msg: &str) {
    assert_eq!(
        translate_err(stmt),
        TranslateError::Lang(runtime(msg)),
        "{stmt}"
    );
    assert_eq!(interp_err(stmt), runtime(msg), "{stmt}");
}

#[test]
fn reads_that_succeed_are_unchanged() {
    let ast = parse(&with_matrix("x = A[1][2] + A[0][1] * s")).unwrap();
    let tr = translate(&ast, &certain_env()).unwrap();
    assert!(matches!(
        tr.slot("x"),
        Some(enframe::translate::Slot::Concrete(RtValue::Int(8)))
    ));
    let env = SimpleEnv::default();
    let mut interp = Interp::new(&env);
    interp.run(&ast).unwrap();
    assert_eq!(interp.get("x"), Some(&RtValue::Int(8)));
    // A whole-row read still yields the row.
    let ast = parse(&with_matrix("x = A[1]")).unwrap();
    let mut interp = Interp::new(&env);
    interp.run(&ast).unwrap();
    assert_eq!(
        interp.get("x"),
        Some(&RtValue::Array(vec![
            RtValue::Int(3),
            RtValue::Int(4),
            RtValue::Int(5)
        ]))
    );
}

/// An indexed base that is not a variable is computed, then indexed.
#[test]
fn indexing_a_computed_array() {
    let b = "B = [None] * 2\nB[0] = True\nB[1] = True\n";
    let ast = parse(&with_matrix(&format!(
        "{b}x = breakTies(B)[1]\ny = breakTies(B)[0]"
    )))
    .unwrap();
    let tr = translate(&ast, &certain_env()).unwrap();
    assert!(matches!(
        (tr.slot("x"), tr.slot("y")),
        (
            Some(enframe::translate::Slot::Concrete(RtValue::Bool(false))),
            Some(enframe::translate::Slot::Concrete(RtValue::Bool(true)))
        )
    ));
    let env = SimpleEnv::default();
    let mut interp = Interp::new(&env);
    interp.run(&ast).unwrap();
    assert_eq!(interp.get("x"), Some(&RtValue::Bool(false)));
    assert_eq!(interp.get("y"), Some(&RtValue::Bool(true)));
    both_raise(
        &format!("{b}x = breakTies(B)[5]"),
        "index 5 out of range 0..2",
    );
    both_raise(
        &format!("{b}x = breakTies(B)[0 - 1]"),
        "index -1 out of range 0..2",
    );
}

#[test]
fn undefined_variable() {
    both_raise("x = nope", "use of undefined variable `nope`");
    both_raise("x = nope[0][1]", "use of undefined variable `nope`");
}

#[test]
fn index_out_of_range_at_level_one_and_two() {
    both_raise("x = A[5][0]", "index 5 out of range 0..2");
    both_raise("x = A[0][7]", "index 7 out of range 0..3");
    both_raise("x = A[0 - 1][0]", "index -1 out of range 0..2");
    both_raise("x = A[1][0 - 1]", "index -1 out of range 0..3");
}

#[test]
fn indexing_a_scalar() {
    assert_eq!(
        translate_err("x = s[0]"),
        TranslateError::Unsupported("cannot index Concrete(Int(3))".into())
    );
    assert_eq!(interp_err("x = s[0]"), runtime("cannot index int value"));
    // One level too deep into the matrix.
    assert_eq!(
        translate_err("x = A[1][2][0]"),
        TranslateError::Unsupported("cannot index Concrete(Int(5))".into())
    );
    assert_eq!(
        interp_err("x = A[1][2][0]"),
        runtime("cannot index int value")
    );
}

/// Index expressions are evaluated outermost first and before the name
/// is looked up; the walk then checks level 1 before level 2.
#[test]
fn chains_with_two_failures_report_the_same_one() {
    // Two undefined index expressions: the outermost is evaluated first.
    both_raise("x = A[u][w]", "use of undefined variable `w`");
    // An index expression fails before an inner range check can.
    both_raise("x = A[9][w]", "use of undefined variable `w`");
    both_raise("x = A[u][9]", "use of undefined variable `u`");
    // ... and before the name lookup or the scalar check.
    both_raise("x = nope[u]", "use of undefined variable `u`");
    both_raise("x = s[u]", "use of undefined variable `u`");
    // Both indices out of range: level 1 is checked first.
    both_raise("x = A[9][8]", "index 9 out of range 0..2");
    // A failing index inside an index expression.
    both_raise("x = A[A[0][9]][8]", "index 9 out of range 0..3");
    // A non-integer index.
    assert_eq!(
        translate_err("x = A[A[0]][9]"),
        TranslateError::Unsupported(
            "loop bounds, array sizes, and indices must be certain integers".into()
        )
    );
    assert_eq!(
        interp_err("x = A[A[0]][9]"),
        runtime("expected integer, found array")
    );
}
