//! The parallelism contract of the knowledge-compilation backends
//! (property tests):
//!
//! 1. **Data-parallel WMC is bitwise-equal to the sequential sweep** —
//!    on d-DNNFs compiled from lineage networks of all three
//!    correlation schemes, `wmc::node_probabilities_par` returns the
//!    same bits as `wmc::node_probabilities` at every node, for every
//!    worker count. Parallelism changes the schedule, never the
//!    arithmetic (both sweeps reduce each node's children in canonical
//!    `total_cmp` order).
//! 2. **Engine results are independent of the worker count and of
//!    scheduling** — `run_engine` with [`Engine::DnnfPar`]
//!    returns bitwise-identical estimates at workers ∈ {1, 2, 4, 8}
//!    and across repeated compiles (the dynamic target-to-worker
//!    assignment differs run to run; the merged result must not), and
//!    [`Engine::BddPar`] agrees with the sequential OBDD engine to
//!    1e-12 (its merged manager may settle on a different variable
//!    order, so only FP-roundoff agreement is promised).

use enframe::core::budget::Budget;
use enframe::data::{LineageOpts, Scheme};
use enframe::obdd::dnnf::{wmc, DnnfEngine, DnnfOptions};
use enframe_bench::{prepare_lineage, run_engine, Engine};
use proptest::prelude::*;

fn scheme_of(idx: usize) -> Scheme {
    match idx {
        0 => Scheme::Positive { l: 3, v: 8 },
        1 => Scheme::Mutex { m: 4 },
        _ => Scheme::Conditional,
    }
}

/// Sequential vs parallel WMC on the compiled d-DNNF of one lineage
/// pipeline: bitwise equality at every node, for every worker count.
fn check_wmc_bitwise(scheme: Scheme, n_groups: usize, seed: u64) {
    let prep = prepare_lineage(n_groups, scheme, &LineageOpts::default(), seed);
    let engine = DnnfEngine::compile(&prep.net, &DnnfOptions::default()).expect("lineage compiles");
    let man = engine.manager();
    let seq = wmc::node_probabilities(man, &prep.vt);
    for workers in [2usize, 3, 8] {
        let par = wmc::node_probabilities_par(man, &prep.vt, workers);
        assert_eq!(seq.len(), par.len());
        for i in 0..seq.len() {
            assert_eq!(
                seq[i].to_bits(),
                par[i].to_bits(),
                "node {i} differs at workers={workers}"
            );
        }
    }
}

/// The d-DNNF engine's estimates are a pure function of the network:
/// identical bits at every worker count and across repeated parallel
/// compiles; the parallel OBDD engine agrees with sequential to 1e-12.
fn check_engine_worker_independence(scheme: Scheme, n_groups: usize, seed: u64) {
    let prep = prepare_lineage(n_groups, scheme, &LineageOpts::default(), seed);
    let base = run_engine(
        &prep,
        Engine::DnnfPar { workers: 1 },
        0.0,
        Budget::unlimited(),
    );
    assert_eq!(base.status, "ok");
    let base = base.estimates.unwrap();
    for workers in [2usize, 4, 8] {
        // Two compiles per worker count: the dynamic target-to-worker
        // assignment is scheduling-dependent, the answer must not be.
        for round in 0..2 {
            let m = run_engine(&prep, Engine::DnnfPar { workers }, 0.0, Budget::unlimited());
            assert_eq!(m.status, "ok");
            assert_eq!(m.workers, workers);
            let est = m.estimates.unwrap();
            assert_eq!(base.len(), est.len());
            for i in 0..base.len() {
                assert_eq!(
                    base[i].to_bits(),
                    est[i].to_bits(),
                    "target {i} differs at workers={workers} round={round}: \
                     {} vs {}",
                    base[i],
                    est[i]
                );
            }
        }
    }
    let bdd_seq = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited())
        .estimates
        .unwrap();
    for workers in [2usize, 4] {
        let bdd_par = run_engine(&prep, Engine::BddPar { workers }, 0.0, Budget::unlimited())
            .estimates
            .unwrap();
        assert_eq!(bdd_seq.len(), bdd_par.len());
        for i in 0..bdd_seq.len() {
            assert!(
                (bdd_seq[i] - bdd_par[i]).abs() < 1e-12,
                "target {i} at workers={workers}: seq {} vs par {}",
                bdd_seq[i],
                bdd_par[i]
            );
        }
    }
}

proptest! {
    // Each case compiles several pipelines; keep counts low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property 1, across all three correlation schemes.
    #[test]
    fn parallel_wmc_is_bitwise_equal_to_sequential(
        seed in 0u64..1000,
        scheme_idx in 0usize..3,
        n_groups in 4usize..=8,
    ) {
        check_wmc_bitwise(scheme_of(scheme_idx), n_groups, seed);
    }

    /// Property 2, across all three correlation schemes.
    #[test]
    fn engine_results_are_independent_of_worker_count(
        seed in 0u64..1000,
        scheme_idx in 0usize..3,
        n_groups in 4usize..=8,
    ) {
        check_engine_worker_independence(scheme_of(scheme_idx), n_groups, seed);
    }
}
