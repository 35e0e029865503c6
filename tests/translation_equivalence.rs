//! Translation soundness (paper §3.5): for every complete valuation ν,
//! interpreting the user program on the world selected by ν produces the
//! same values as evaluating the translated event program under ν — and
//! the same as partially evaluating the event *network* via masks.
//!
//! This is the property that makes the whole pipeline probabilistically
//! meaningful: the user writes one program; every engine interprets it
//! identically.

use enframe::core::{space, Valuation};
use enframe::data::{kmedoids_workload, LineageOpts, Scheme};
use enframe::prelude::*;
use enframe::translate::targets;
use enframe::translate::world_env;
use enframe::worlds::extract;
use proptest::prelude::*;

/// Full-stack check of one clustering program on one workload:
/// interpreter-per-world == network eval == brute-force == exact
/// compilation, on every entry of the `k × n` Boolean matrix `target`.
fn check_workload(
    (program, target): (&str, &str),
    n: usize,
    k: usize,
    iters: usize,
    scheme: Scheme,
    seed: u64,
) {
    let w = kmedoids_workload(n, k, iters, scheme, &LineageOpts::default(), seed);
    let v = w.vt.len();
    assert!(v <= 12, "keep the world space enumerable");
    let ast = parse(program).unwrap();
    let mut tr = translate(&ast, &w.env).unwrap();
    targets::add_all_bool_targets(&mut tr, target);
    let gp = tr.ground().unwrap();
    let net = Network::build(&gp).unwrap();

    let mut extractor = extract::bool_matrix(target, k, n);
    for code in 0..(1u64 << v) {
        let nu = Valuation::from_code(v, code);
        // 1. Interpreter on the materialised world.
        let wenv = world_env(&w.env, &nu);
        let mut interp = enframe::lang::Interp::new(&wenv);
        interp.run(&ast).unwrap();
        let interp_out = extractor(&interp).unwrap();
        // 2. Direct evaluation of the event network.
        let net_out = net.eval(&nu).unwrap();
        // 3. Reference evaluation of the ground program.
        for (t_idx, &def) in gp.targets.iter().enumerate() {
            let gp_val = gp.eval_bool(def, &nu).unwrap();
            assert_eq!(
                interp_out[t_idx], gp_val,
                "world {code:b} target {t_idx}: interpreter vs event program"
            );
            assert_eq!(
                net_out[t_idx], gp_val,
                "world {code:b} target {t_idx}: network vs event program"
            );
        }
    }

    // 4. Probabilities: brute force == exact compilation.
    let brute = space::target_probabilities(&gp, &w.vt);
    let exact = compile(&net, &w.vt, Options::exact());
    for i in 0..brute.len() {
        assert!(
            (brute[i] - exact.lower[i]).abs() < 1e-9,
            "target {i}: brute {} vs compiled {}",
            brute[i],
            exact.lower[i]
        );
    }
}

/// k-medoids with its medoid-selection targets.
const MEDOIDS: (&str, &str) = (programs::K_MEDOIDS, "Centre");

#[test]
fn equivalence_positive_small() {
    check_workload(MEDOIDS, 12, 2, 2, Scheme::Positive { l: 2, v: 6 }, 5);
}

#[test]
fn equivalence_positive_three_clusters() {
    check_workload(MEDOIDS, 12, 3, 2, Scheme::Positive { l: 3, v: 8 }, 17);
}

#[test]
fn equivalence_mutex() {
    check_workload(MEDOIDS, 16, 2, 2, Scheme::Mutex { m: 8 }, 23);
}

#[test]
fn equivalence_conditional() {
    check_workload(MEDOIDS, 12, 2, 3, Scheme::Conditional, 29);
}

/// The paper's k-means program (Figure 2) through the whole stack, with
/// its cluster-membership targets.
#[test]
fn equivalence_kmeans() {
    let kmeans = (programs::K_MEANS, "InCl");
    check_workload(kmeans, 12, 2, 3, Scheme::Positive { l: 2, v: 8 }, 23);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomised full-stack equivalence over workload seeds and shapes.
    #[test]
    fn prop_full_stack_equivalence(
        seed in 0u64..500,
        k in 2usize..4,
        n_groups in 2usize..3,
    ) {
        let n = n_groups * 4 + k.max(2);
        check_workload(MEDOIDS, n, k, 2, Scheme::Positive { l: 2, v: 2 * n_groups + 2 }, seed);
    }
}
