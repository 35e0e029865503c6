//! Quickstart: cluster four uncertain points with k-medoids and read off
//! medoid and co-clustering probabilities.
//!
//! This is the paper's Example 1: objects `o0..o3` with lineage events over
//! independent Boolean random variables; the clustering result is a
//! probability distribution over clusterings, and ENFrame computes marginal
//! probabilities of selected output events without enumerating worlds.
//!
//! Run with: `cargo run --example quickstart`

use enframe::prelude::*;
use enframe::translate::targets;

fn main() {
    // Example 1 geometry: o0 o1 .... o2 o3 on a line, with lineage
    // Φ(o0) = x0 ∨ x2, Φ(o1) = x1, Φ(o2) = x2, Φ(o3) = ¬x1 ∧ x3.
    let objects = ProbObjects::new(
        vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]],
        vec![
            Event::or([Event::var(Var(0)), Event::var(Var(2))]),
            Event::var(Var(1)),
            Event::var(Var(2)),
            Event::and([Event::nvar(Var(1)), Event::var(Var(3))]),
        ],
    );
    // Two clusters, two iterations, seed medoids o1 and o3.
    let env = clustering_env(objects, 2, 2, vec![1, 3], 4);
    let vt = VarTable::new(vec![0.6, 0.7, 0.55, 0.8]);

    // Translate the paper's k-medoids user program into an event program.
    let ast = parse(programs::K_MEDOIDS).expect("parse");
    let mut tr = translate(&ast, &env).expect("translate");

    // Targets: medoid-selection events (is object l the medoid of cluster
    // i?) and one co-clustering query.
    let n_targets = targets::add_all_bool_targets(&mut tr, "Centre");
    targets::add_same_cluster_target(&mut tr, "InCl", 2, 1, 2);

    let ground = tr.ground().expect("ground");
    let net = Network::build(&ground).expect("network");
    println!(
        "event network: {} nodes, {} targets",
        net.len(),
        net.targets.len()
    );

    // Exact compilation: bounds converge to the exact probabilities.
    let exact = compile(&net, &vt, Options::exact());
    println!("\nmedoid-selection probabilities (exact):");
    for i in 0..n_targets {
        let p = exact.estimate(i);
        if p > 1e-9 {
            println!("  P[{}] = {:.4}", exact.names[i], p);
        }
    }
    println!(
        "\nP[o1 and o2 in the same cluster] = {:.4}",
        exact.estimate(n_targets)
    );

    // Anytime approximation with error guarantee ε = 0.05.
    let approx = compile(&net, &vt, Options::approx(Strategy::Hybrid, 0.05));
    println!(
        "\nhybrid ε=0.05: explored {} branches (exact explored {}), max bound width {:.4}",
        approx.stats.branches,
        exact.stats.branches,
        approx.max_width()
    );

    // Cross-check against the naïve baseline: cluster in every world.
    let naive = naive_probabilities(
        &ast,
        &env,
        &vt,
        enframe::worlds::extract::bool_matrix("Centre", 2, 4),
    )
    .expect("naive");
    let max_diff = naive
        .probabilities
        .iter()
        .zip(&exact.lower)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0, f64::max);
    println!(
        "\nnaive baseline enumerated {} worlds; max |naive − exact| = {:.2e}",
        naive.worlds, max_diff
    );
    assert!(max_diff <= 1e-9, "exact must match the naive baseline");
}
