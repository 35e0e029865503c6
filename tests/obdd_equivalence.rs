//! The knowledge-compilation backends against the golden standard:
//!
//! 1. BDD **and d-DNNF** weighted model counting equal the naïve
//!    `enframe-worlds` enumeration **and** the decision-tree exact
//!    engine on random k-medoids workloads with ≤ 10 variables, across
//!    all three correlation schemes (property test) — and both keep
//!    matching tree-exact at v = 13–14, the OBDD route taking exactly
//!    the d-DNNF DP's expansion steps (its one comparison expander).
//! 2. Conditioning posteriors equal possible-worlds filtering and
//!    hand-computed values on small instances.
//! 3. Scalability: a mutex-correlated fig6-style sweep at v ≥ 20 —
//!    infeasible for the decision-tree exact engine — completes on the
//!    BDD backend well inside a generous wall-clock guard, with the
//!    answers validated against the mutex chain's closed form and the
//!    d-DNNF compilation of the same network.
//! 4. Manager maintenance: probabilities and posteriors are invariant
//!    under random interleavings of `reorder()` / `collect_garbage()` /
//!    queries (property test); group sifting never ends larger than the
//!    static order on positive-scheme lineage; and 1 000 repeated
//!    conditioning queries on one engine keep both the node store and
//!    the `ite` cache bounded.

use enframe::core::budget::Budget;
use enframe::core::space;
use enframe::data::{generate_lineage, kmedoids_workload, LineageOpts, Scheme};
use enframe::prelude::*;
use enframe::translate::targets;
use enframe::worlds::extract;
use enframe_bench::{prepare_lineage, run_engine, Engine};
use std::time::Instant;

/// DnnfExact == BddExact == tree-exact == naïve enumeration on one
/// k-medoids workload (the full pipeline: aggregates, comparisons,
/// guards).
fn check_kmedoids_scheme(scheme: Scheme, n: usize, seed: u64) {
    use enframe::obdd::dnnf::{DnnfEngine, DnnfOptions};
    let k = 2;
    let w = kmedoids_workload(n, k, 2, scheme, &LineageOpts::default(), seed);
    assert!(w.vt.len() <= 10, "test workloads stay enumerable");
    let ast = parse(programs::K_MEDOIDS).unwrap();
    let mut tr = translate(&ast, &w.env).unwrap();
    targets::add_all_bool_targets(&mut tr, "Centre");
    let net = Network::build(&tr.ground().unwrap()).unwrap();

    let naive = naive_probabilities(&ast, &w.env, &w.vt, extract::bool_matrix("Centre", k, n))
        .unwrap()
        .probabilities;
    let exact = compile(&net, &w.vt, Options::exact());
    let engine = ObddEngine::compile(&net, &ObddOptions::with_groups(w.var_groups.clone()))
        .expect("k-medoids networks compile to OBDD");
    let bdd = engine.probabilities(&w.vt);
    let dnnf_engine = DnnfEngine::compile(&net, &DnnfOptions::default())
        .expect("k-medoids networks compile to d-DNNF");
    let dnnf = dnnf_engine.probabilities(&w.vt);

    assert_eq!(naive.len(), bdd.len());
    assert_eq!(naive.len(), dnnf.len());
    for i in 0..naive.len() {
        assert!(
            (bdd[i] - naive[i]).abs() < 1e-9,
            "{scheme:?} target {i}: bdd {} vs naive {}",
            bdd[i],
            naive[i]
        );
        assert!(
            (bdd[i] - exact.lower[i]).abs() < 1e-9,
            "{scheme:?} target {i}: bdd {} vs tree-exact {}",
            bdd[i],
            exact.lower[i]
        );
        assert!(
            (dnnf[i] - bdd[i]).abs() < 1e-9,
            "{scheme:?} target {i}: dnnf {} vs bdd {}",
            dnnf[i],
            bdd[i]
        );
    }
}

mod prop {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        // Each case runs a 2^v-world interpreter sweep; keep counts low.
        #![proptest_config(ProptestConfig::with_cases(3))]

        /// Independent (positive) correlations: shared variable pool.
        #[test]
        fn bdd_matches_golden_standard_positive(seed in 0u64..1000) {
            check_kmedoids_scheme(Scheme::Positive { l: 3, v: 8 }, 12, seed);
        }

        /// Mutex correlations: chain-encoded multi-valued choices.
        #[test]
        fn bdd_matches_golden_standard_mutex(seed in 0u64..1000) {
            // 16 points in groups of 4 → 4 groups; m = 8 → sets of 2
            // chained groups → real mutex chains, v = 4.
            check_kmedoids_scheme(Scheme::Mutex { m: 8 }, 16, seed);
        }

        /// Conditional correlations: Markov-chain lineage.
        #[test]
        fn bdd_matches_golden_standard_conditional(seed in 0u64..1000) {
            // 12 points → 3 groups → 1 + 2·2 = 5 variables.
            check_kmedoids_scheme(Scheme::Conditional, 12, seed);
        }

        /// Aggregate-comparison targets at v = 13–14, past the v = 12
        /// wall of the deleted Shannon expander and out of the naïve
        /// baseline's test budget: both compiled forms match tree-exact,
        /// and the OBDD route takes exactly the DP's expansion steps.
        #[test]
        fn obdd_and_dnnf_match_tree_exact_through_one_expander(
            seed in 0u64..1000,
            v in 13usize..=14,
        ) {
            use enframe::obdd::dnnf::{DnnfEngine, DnnfOptions};
            let w = kmedoids_workload(
                16, 2, 2, Scheme::Positive { l: 8, v }, &LineageOpts::default(), seed,
            );
            let ast = parse(programs::K_MEDOIDS).unwrap();
            let mut tr = translate(&ast, &w.env).unwrap();
            targets::add_all_bool_targets(&mut tr, "Centre");
            let net = Network::build(&tr.ground().unwrap()).unwrap();
            let exact = compile(&net, &w.vt, Options::exact());
            let engine = DnnfEngine::compile(&net, &DnnfOptions { workers: 1, ..Default::default() })
                .unwrap();
            let obdd =
                ObddEngine::compile(&net, &ObddOptions::with_groups(w.var_groups.clone())).unwrap();
            let (dnnf, bdd) = (engine.probabilities(&w.vt), obdd.probabilities(&w.vt));
            for (what, got) in [("dnnf", &dnnf), ("bdd", &bdd)] {
                for i in 0..got.len() {
                    prop_assert!(
                        (got[i] - exact.lower[i]).abs() < 1e-9,
                        "v={v} target {i}: {what} {} vs tree-exact {}",
                        got[i],
                        exact.lower[i]
                    );
                }
            }
            // A polynomial expansion count where Shannon expansion
            // recorded ~874 k branches at v = 14.
            prop_assert!(engine.stats().expansion_steps <= 874_000 / 50);
            prop_assert_eq!(obdd.stats().cmp_branches, engine.stats().expansion_steps);
        }
    }
}

mod maintenance_props {
    use super::*;
    use enframe::obdd::ReorderPolicy;
    use proptest::prelude::*;

    /// A positive-scheme lineage engine (the order-sensitive scheme) and
    /// its reference probabilities, compiled under `policy`.
    fn positive_engine(seed: u64, policy: ReorderPolicy) -> (ObddEngine, Vec<f64>, VarTable) {
        let prep = enframe_bench::prepare_lineage(
            10,
            Scheme::Positive { l: 3, v: 10 },
            &LineageOpts::default(),
            seed,
        );
        let opts = ObddOptions {
            groups: prep.var_groups.clone(),
            reorder: policy,
            ..ObddOptions::default()
        };
        let engine = ObddEngine::compile(&prep.net, &opts).unwrap();
        let want = engine.probabilities(&prep.vt);
        (engine, want, prep.vt)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]

        /// WMC and conditioning answers are invariant under arbitrary
        /// interleavings of reorder / GC / queries — handles survive
        /// every maintenance pass and keep denoting the same functions.
        #[test]
        fn queries_invariant_under_reorder_and_gc(
            seed in 0u64..1000,
            ops in collection::vec(0u8..4, 1..12),
        ) {
            let (mut engine, want, vt) = positive_engine(seed, ReorderPolicy::default());
            let ev_var = Var(0);
            let base_cond = {
                let ev = engine.evidence(&[(ev_var, true)]);
                engine.condition(&vt, ev).unwrap()
            };
            for op in ops {
                match op {
                    0 => engine.reorder(),
                    1 => {
                        engine.collect_garbage();
                    }
                    2 => {
                        let got = engine.probabilities(&vt);
                        for i in 0..want.len() {
                            prop_assert!(
                                (got[i] - want[i]).abs() < 1e-12,
                                "probability {i} drifted after maintenance"
                            );
                        }
                    }
                    _ => {
                        // Evidence must be rebuilt per query: handles are
                        // not GC-protected across maintenance points.
                        let ev = engine.evidence(&[(ev_var, true)]);
                        let cond = engine.condition(&vt, ev).unwrap();
                        prop_assert!(
                            (cond.evidence_prob - base_cond.evidence_prob).abs() < 1e-12
                        );
                        for i in 0..want.len() {
                            prop_assert!(
                                (cond.posteriors[i] - base_cond.posteriors[i]).abs() < 1e-12,
                                "posterior {i} drifted after maintenance"
                            );
                        }
                    }
                }
            }
        }

        /// Group sifting never ends larger than the static grouped order
        /// on positive-scheme lineage (sifting parks every block at the
        /// best size seen, which includes its starting position).
        #[test]
        fn sifted_size_never_exceeds_static(seed in 0u64..1000) {
            let (mut engine, want, vt) = positive_engine(seed, ReorderPolicy::disabled());
            let static_live = {
                engine.collect_garbage();
                engine.manager_stats().live_nodes
            };
            engine.reorder();
            let sifted_live = engine.manager_stats().live_nodes;
            prop_assert!(
                sifted_live <= static_live,
                "sifting grew the manager: {static_live} -> {sifted_live}"
            );
            let got = engine.probabilities(&vt);
            for i in 0..want.len() {
                prop_assert!((got[i] - want[i]).abs() < 1e-12);
            }
        }
    }
}

/// Satellite regression: repeated conditioning with *varying* evidence on
/// one manager must not grow memory monotonically — the computed-table is
/// bounded by construction and automatic maintenance sweeps the dead
/// joint BDDs between queries.
#[test]
fn repeated_conditioning_stays_bounded() {
    use enframe::obdd::Manager;
    let prep =
        enframe_bench::prepare_lineage(12, Scheme::Conditional, &LineageOpts::default(), 0xCAFE);
    let mut engine = ObddEngine::compile(
        &prep.net,
        &ObddOptions::with_groups(prep.var_groups.clone()),
    )
    .unwrap();
    let vt = &prep.vt;
    let n_vars = vt.len() as u32;
    let baseline = engine.manager_stats().live_nodes;
    let mut peak_seen = 0usize;
    for q in 0..1000u32 {
        // Vary the evidence so each query really builds fresh BDDs.
        let a = Var(q % n_vars);
        let b = Var((q / 3 + 1) % n_vars);
        let lits = [(a, q % 2 == 0), (b, q % 3 == 0)];
        let ev = engine.evidence(&lits);
        match engine.condition(vt, ev) {
            Ok(cond) => assert!(cond
                .posteriors
                .iter()
                .all(|p| (0.0..=1.0 + 1e-9).contains(p))),
            // a == b with opposite polarities: legitimately impossible.
            Err(enframe::obdd::ObddError::ZeroEvidence) => {}
            Err(e) => panic!("conditioning failed at query {q}: {e}"),
        }
        peak_seen = peak_seen.max(engine.manager_stats().live_nodes);
    }
    let stats = engine.manager_stats();
    assert!(stats.gc_runs > 0, "1k queries must have triggered GC");
    // The manager never grew past a small multiple of the GC trigger,
    // and ended bounded — not 1000 × per-query garbage.
    assert!(
        peak_seen < baseline + 4096,
        "manager grew monotonically: peak {peak_seen} from baseline {baseline}"
    );
    assert!(
        engine.manager_mut().ite_cache_capacity() <= Manager::ITE_CACHE_MAX_CAPACITY,
        "computed-table exceeded its hard cap"
    );
}

/// Posteriors against brute-force possible-worlds filtering:
/// `P(t | e) = Σ_{ν ⊨ t ∧ e} Pr(ν) / Σ_{ν ⊨ e} Pr(ν)`.
#[test]
fn conditioning_matches_worlds_filtering() {
    let corr = generate_lineage(
        8,
        Scheme::Conditional,
        &LineageOpts {
            group_size: 1,
            ..LineageOpts::default()
        },
        3,
    );
    let mut p = Program::new();
    p.ensure_vars(corr.var_table.len() as u32);
    for (i, phi) in corr.lineage.iter().enumerate() {
        let id = p.declare_closed_event(&format!("G{i}"), phi).unwrap();
        p.add_target(id);
    }
    let g = p.ground().unwrap();
    let net = Network::build(&g).unwrap();
    let vt = &corr.var_table;
    let mut engine =
        ObddEngine::compile(&net, &ObddOptions::with_groups(corr.var_groups.clone())).unwrap();

    // Evidence: the chain's first variable true, one later variable false.
    let lits = [(Var(0), true), (Var(4), false)];
    let ev = engine.evidence(&lits);
    let cond = engine.condition(vt, ev).unwrap();

    let mut pe = 0.0;
    let mut joint = vec![0.0; corr.lineage.len()];
    for (nu, pr) in space::worlds(vt) {
        if pr == 0.0 {
            continue;
        }
        if !lits.iter().all(|&(v, want)| nu.get(v) == want) {
            continue;
        }
        pe += pr;
        for (i, phi) in corr.lineage.iter().enumerate() {
            if phi.eval_closed(&nu).unwrap() {
                joint[i] += pr;
            }
        }
    }
    assert!((cond.evidence_prob - pe).abs() < 1e-9);
    for i in 0..joint.len() {
        assert!(
            (cond.posteriors[i] - joint[i] / pe).abs() < 1e-9,
            "target {i}: {} vs {}",
            cond.posteriors[i],
            joint[i] / pe
        );
    }

    // Event evidence (a compiled target) cross-checked the same way.
    let t0 = engine.target(0);
    let cond = engine.condition(vt, t0).unwrap();
    let mut pe = 0.0;
    let mut joint = vec![0.0; corr.lineage.len()];
    for (nu, pr) in space::worlds(vt) {
        if pr == 0.0 || !corr.lineage[0].eval_closed(&nu).unwrap() {
            continue;
        }
        pe += pr;
        for (i, phi) in corr.lineage.iter().enumerate() {
            if phi.eval_closed(&nu).unwrap() {
                joint[i] += pr;
            }
        }
    }
    for i in 0..joint.len() {
        assert!((cond.posteriors[i] - joint[i] / pe).abs() < 1e-9);
    }
}

/// Hand-computed posterior: two-step Markov chain
/// Φ₀ = x₀, Φ₁ = (Φ₀ ∧ x₁) ∨ (¬Φ₀ ∧ x₂).
/// P(Φ₀ | Φ₁) = p₀p₁ / (p₀p₁ + (1−p₀)p₂).
#[test]
fn conditioning_matches_hand_computation() {
    let (p0, p1, p2) = (0.6, 0.7, 0.2);
    let mut p = Program::new();
    let x0 = p.fresh_var();
    let x1 = p.fresh_var();
    let x2 = p.fresh_var();
    let phi0 = p.declare_event("Phi0", Program::var(x0));
    let phi1 = p.declare_event(
        "Phi1",
        Program::or([
            Program::and([Program::eref(phi0), Program::var(x1)]),
            Program::and([Program::not(Program::eref(phi0)), Program::var(x2)]),
        ]),
    );
    p.add_target(phi0);
    p.add_target(phi1);
    let net = Network::build(&p.ground().unwrap()).unwrap();
    let vt = VarTable::new(vec![p0, p1, p2]);
    let mut engine = ObddEngine::compile(&net, &ObddOptions::default()).unwrap();

    let ev = engine.target(1); // condition on Φ₁
    let cond = engine.condition(&vt, ev).unwrap();
    let want_pe = p0 * p1 + (1.0 - p0) * p2;
    let want_post = p0 * p1 / want_pe;
    assert!((cond.evidence_prob - want_pe).abs() < 1e-12);
    assert!(
        (cond.posteriors[0] - want_post).abs() < 1e-12,
        "P(Phi0 | Phi1) = {} want {want_post}",
        cond.posteriors[0]
    );
    assert!((cond.posteriors[1] - 1.0).abs() < 1e-12);
}

/// The scalability claim of the knowledge-compilation route: a
/// mutex-correlated sweep at v = 24 > `EXACT_VAR_CAP`, where the
/// decision-tree exact engine reports timeout, completes exactly on the
/// BDD backend — validated against the mutex chain's closed form and an
/// independently ordered second compilation.
#[test]
fn bdd_completes_mutex_sweep_beyond_exact_horizon() {
    use enframe::obdd::dnnf::{DnnfEngine, DnnfOptions};
    let v = 24;
    let m = 8;
    let prep = prepare_lineage(v, Scheme::Mutex { m }, &LineageOpts::default(), 0xBDD + 24);
    assert_eq!(prep.vt.len(), v);

    // The decision-tree exact engine is out of its feasible range.
    let exact = run_engine(&prep, Engine::Exact, 0.0, Budget::unlimited());
    assert!(
        exact.status.starts_with("timeout"),
        "v={v} must exceed the exact engine's cap, got {}",
        exact.status
    );

    // The BDD backend answers exactly, fast. The guard is deliberately
    // generous (CI machines vary); the measured time is ~10⁻⁴ s.
    let t0 = Instant::now();
    let bdd = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited());
    let elapsed = t0.elapsed().as_secs_f64();
    assert_eq!(bdd.status, "ok");
    assert!(
        elapsed < 30.0,
        "BDD-exact took {elapsed:.1}s at v={v}; expected well under the guard"
    );
    let probs = bdd.estimates.unwrap();

    // Closed form for the chain encoding: within a set of m consecutive
    // variables, P(Exists_i) = p_i · Π (1 − p_t) over the set's prefix.
    for i in 0..v {
        let name = format!("Exists{i}");
        let idx = prep
            .net
            .target_names
            .iter()
            .position(|n| n == &name)
            .expect("existence target present");
        let set_start = (i / m) * m;
        let mut want = prep.vt.prob(Var(i as u32));
        for t in set_start..i {
            want *= 1.0 - prep.vt.prob(Var(t as u32));
        }
        assert!(
            (probs[idx] - want).abs() < 1e-9,
            "{name}: bdd {} vs closed form {want}",
            probs[idx]
        );
    }

    // The derived disjunction targets are validated against a different
    // compiled form: d-DNNF must agree with the BDD on every target.
    let dnnf = DnnfEngine::compile(&prep.net, &DnnfOptions::default()).unwrap();
    let probs2 = dnnf.probabilities(&prep.vt);
    for i in 0..probs.len() {
        assert!(
            (probs[i] - probs2[i]).abs() < 1e-9,
            "BDD/d-DNNF disagreement on target {i}"
        );
    }
}
