//! The paper's motivating workload: clustering uncertain energy-network
//! sensor readings (partial-discharge counts vs network load) under all
//! three correlation schemes, comparing the naïve baseline with ENFrame's
//! exact and approximate engines.
//!
//! Run with: `cargo run --release --example sensor_clustering`

use enframe::data::{
    farthest_first, generate_lineage, generate_sensor_points, LineageOpts, Scheme, SensorConfig,
};
use enframe::prelude::*;
use enframe::translate::env::clustering_env as mk_env;
use enframe::translate::targets;
use enframe::worlds::extract;
use std::time::Instant;

fn main() {
    let n = 24;
    let k = 2;
    let iterations = 2;
    let points = generate_sensor_points(&SensorConfig {
        n,
        seed: 2014,
        ..SensorConfig::default()
    });
    let seeds = farthest_first(&points, k);
    println!("clustering {n} sensor readings, k={k}, seeds {seeds:?}\n");

    for (name, scheme) in [
        ("positive (l=3)", Scheme::Positive { l: 3, v: 12 }),
        ("mutex (m=8)", Scheme::Mutex { m: 8 }),
        ("conditional", Scheme::Conditional),
    ] {
        let corr = generate_lineage(n, scheme, &LineageOpts::default(), 99);
        let v = corr.var_table.len();
        let objects = ProbObjects::new(points.clone(), corr.lineage.clone());
        let env = mk_env(objects, k, iterations, seeds.clone(), v as u32);

        let ast = parse(programs::K_MEDOIDS).unwrap();
        let mut tr = translate(&ast, &env).unwrap();
        targets::add_all_bool_targets(&mut tr, "Centre");
        let net = Network::build(&tr.ground().unwrap()).unwrap();

        println!("== {name}: {v} variables, network {} nodes ==", net.len());

        let t0 = Instant::now();
        let naive = naive_probabilities(
            &ast,
            &env,
            &corr.var_table,
            extract::bool_matrix("Centre", k, n),
        )
        .unwrap();
        let t_naive = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let exact = compile(&net, &corr.var_table, Options::exact());
        let t_exact = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let _hybrid = compile(
            &net,
            &corr.var_table,
            Options::approx(Strategy::Hybrid, 0.1),
        );
        let t_hybrid = t0.elapsed().as_secs_f64();

        // Report agreement + the most probable medoids.
        let max_diff = naive
            .probabilities
            .iter()
            .zip(&exact.lower)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        let mut ranked: Vec<(usize, f64)> = (0..exact.lower.len())
            .map(|i| (i, exact.estimate(i)))
            .collect();
        ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!(
            "  naive {:>8.3}s ({} worlds) | exact {:>8.3}s | hybrid(ε=0.1) {:>8.3}s",
            t_naive, naive.worlds, t_exact, t_hybrid
        );
        println!(
            "  max |naive − exact| = {max_diff:.2e}; speedup exact/naive = {:.1}x, hybrid/exact = {:.1}x",
            t_naive / t_exact.max(1e-9),
            t_exact / t_hybrid.max(1e-9)
        );
        assert!(max_diff <= 1e-9, "exact must match the naive baseline");
        for (i, p) in ranked.iter().take(2) {
            println!(
                "  most probable medoid event: P[{}] = {:.4}",
                exact.names[*i], p
            );
        }
        println!();
    }
}
