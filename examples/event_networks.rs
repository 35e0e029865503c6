//! A tour of the event language: the paper's Examples 1 and 2, event
//! networks with shared subexpressions, DOT export (Figure 5), and
//! decision-tree exploration statistics.
//!
//! Run with: `cargo run --example event_networks`

use enframe::network::dot;
use enframe::prelude::*;
use std::rc::Rc;

fn main() {
    // --- Example 1: lineage of four uncertain objects -------------------
    // Φ(o0) = x1 ∨ x3, Φ(o1) = x2, Φ(o2) = x3, Φ(o3) = ¬x2 ∧ x4
    // (variables renumbered 0..3).
    let mut p = Program::new();
    let x: Vec<Var> = (0..4).map(|_| p.fresh_var()).collect();
    let phi0 = p.declare_event(
        "Phi0",
        Program::or([Program::var(x[0]), Program::var(x[2])]),
    );
    let phi1 = p.declare_event("Phi1", Program::var(x[1]));
    let phi2 = p.declare_event("Phi2", Program::var(x[2]));
    let _phi3 = p.declare_event(
        "Phi3",
        Program::and([Program::nvar(x[1]), Program::var(x[3])]),
    );

    // --- Example 2: c-values and a centroid expression ------------------
    // M0 = Φ(o0) ⊗ o0 + ¬Φ(o0) ⊗ o2 — an if-then-else over points.
    let m0 = p.declare_cval(
        "M0",
        Rc::new(CVal::Sum(vec![
            CVal::cond(Program::eref(phi0), Value::point(&[0.0])),
            CVal::cond(Program::not(Program::eref(phi0)), Value::point(&[5.0])),
        ])),
    );
    // InCl-style atom: is o1 closer to M0 than to the constant point 6?
    let o1cv = CVal::cond(Program::eref(phi1), Value::point(&[1.0]));
    let atom = p.declare_event(
        "InCl",
        Rc::new(Event::Atom(
            CmpOp::Le,
            Rc::new(CVal::Dist(o1cv.clone(), Program::cref(m0))),
            Rc::new(CVal::Dist(o1cv, CVal::point(&[6.0]))),
        )),
    );
    // Co-occurrence query from Example 1: are o1 and o2 both present?
    let both = p.declare_event(
        "Both",
        Program::and([Program::eref(phi1), Program::eref(phi2)]),
    );
    p.add_target(atom);
    p.add_target(both);

    let ground = p.ground().unwrap();
    println!("event program: {} grounded declarations", ground.len());
    for (ident, _) in ground.defs() {
        println!("  {}", ident.render(ground.interner()));
    }

    let net = Network::build(&ground).unwrap();
    let stats = net.stats();
    println!(
        "\nevent network: {} nodes, {} edges (shared subexpressions stored once)",
        stats.nodes, stats.edges
    );

    // Figure 5: the network rendered as Graphviz DOT.
    println!("\n--- DOT (pipe into `dot -Tpng` to render) ---");
    println!("{}", dot::to_dot(&net));

    // Probabilities and decision-tree statistics.
    let vt = VarTable::new(vec![0.5, 0.6, 0.7, 0.8]);
    let exact = compile(&net, &vt, Options::exact());
    println!("--- exact compilation ---");
    for (i, name) in exact.names.iter().enumerate() {
        println!("  P[{name}] = {:.4}", exact.estimate(i));
    }
    println!(
        "  decision tree: {} branches, deepest level {}",
        exact.stats.branches, exact.stats.deepest
    );
    let hybrid = compile(&net, &vt, Options::approx(Strategy::Hybrid, 0.1));
    println!(
        "--- hybrid ε=0.1: {} branches, {} pruned subtrees, max width {:.3} ---",
        hybrid.stats.branches,
        hybrid.stats.prunes,
        hybrid.max_width()
    );
}
