//! Conditioning on evidence with the OBDD backend.
//!
//! A sensor deployment where readings arrive in mutually exclusive
//! alternatives (at most one reading per time slot survives
//! deduplication, the paper's mutex correlation scheme). The lineage is
//! compiled **once** into OBDDs; afterwards every query — prior
//! probabilities, posteriors given observed evidence, what-if evidence —
//! is a linear pass over the compiled diagrams. No other engine in the
//! workspace can answer `P(target | evidence)` at all: conditioning is
//! the capability the knowledge-compilation route unlocks (Koch &
//! Olteanu, "Conditioning Probabilistic Databases").
//!
//! Run with: `cargo run --example conditioning`

use enframe::data::{generate_lineage, LineageOpts, Scheme};
use enframe::prelude::*;

fn main() {
    // 12 readings in mutex sets of 4: within a set at most one reading
    // exists, encoded by chains Φⱼ = ¬x₁ ∧ … ∧ xⱼ over one variable per
    // reading.
    let corr = generate_lineage(
        12,
        Scheme::Mutex { m: 4 },
        &LineageOpts {
            group_size: 1,
            ..LineageOpts::default()
        },
        7,
    );
    let mut p = Program::new();
    p.ensure_vars(corr.var_table.len() as u32);
    let mut readings = Vec::new();
    for (i, phi) in corr.lineage.iter().enumerate() {
        let id = p
            .declare_closed_event(&format!("Reading{i}"), phi)
            .expect("lineage events are closed");
        p.add_target(id);
        readings.push(id);
    }
    // A derived query: does any reading of the first mutex set survive?
    let any = p.declare_event(
        "AnyOfSet0",
        Program::or(readings[..4].iter().cloned().map(Program::eref)),
    );
    p.add_target(any);

    let net = Network::build(&p.ground().expect("grounds")).expect("builds");
    // Mutex var-groups keep each chain adjacent in the variable order,
    // which keeps the compiled BDDs linear in the set size.
    let mut engine = ObddEngine::compile(&net, &ObddOptions::with_groups(corr.var_groups.clone()))
        .expect("compiles");
    let vt = &corr.var_table;

    println!(
        "compiled {} targets into {} BDD nodes (largest target: {})",
        engine.n_targets(),
        engine.stats().nodes,
        engine.stats().largest_target,
    );

    let priors = engine.probabilities(vt);
    println!("\npriors:");
    for (name, p) in engine.names().iter().zip(&priors).take(5) {
        println!("  P({name}) = {p:.4}");
    }

    // Evidence: reading 2's variable observed true. Within its mutex
    // set, that *excludes* every reading whose chain requires ¬x₂ —
    // posteriors shift in a way no independence argument predicts.
    let observed = Var(2);
    let ev = engine.evidence(&[(observed, true)]);
    let cond = engine.condition(vt, ev).expect("evidence is possible");
    println!(
        "\nposteriors given x{} = true (evidence probability {:.4}):",
        observed.0, cond.evidence_prob
    );
    for (name, (post, prior)) in engine
        .names()
        .iter()
        .zip(cond.posteriors.iter().zip(&priors))
        .take(5)
    {
        println!("  P({name} | e) = {post:.4}   (prior {prior:.4})");
    }

    // Evidence can be any compiled event — condition on the derived
    // query itself: which reading explains "some reading of set 0
    // survived"?
    let any_bdd = engine.target(engine.n_targets() - 1);
    let cond = engine.condition(vt, any_bdd).expect("satisfiable");
    println!("\nposteriors given AnyOfSet0:");
    for (name, post) in engine.names().iter().zip(&cond.posteriors).take(4) {
        println!("  P({name} | AnyOfSet0) = {post:.4}");
    }
    let total: f64 = cond.posteriors[..4].iter().sum();
    assert!(
        (total - 1.0).abs() < 1e-9,
        "mutex posteriors must partition the evidence"
    );
    println!("  (they sum to {total:.4}: exactly one reading explains it)");
}
