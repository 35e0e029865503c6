//! The serving layer's equivalence contract (property tests):
//!
//! 1. **Concurrent clients on a cold service equal a sequential
//!    sweep** — on lineage networks of all three correlation schemes,
//!    queries racing into a fresh [`QueryService`] (one compiles behind
//!    the single-flight, the rest coalesce or hit the warm tier, all
//!    sweep the one shared snapshot) return bit for bit what a direct
//!    sequential d-DNNF sweep returns.
//! 2. **Snapshot reads are invariant under concurrent maintenance** —
//!    readers querying while another thread repeatedly swings epochs
//!    (recompile + republish) never observe an answer that differs from
//!    the sequential reference in a single bit, and the epoch a reply
//!    is stamped with is always one that was actually published.

use enframe::core::budget::Budget;
use enframe::data::{LineageOpts, Scheme};
use enframe::obdd::dnnf::{DnnfEngine, DnnfOptions};
use enframe::serve::{Answer, Lineage, QueryService, ServeOptions};
use enframe_bench::prepare_lineage;
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

fn scheme_of(idx: usize) -> Scheme {
    match idx {
        0 => Scheme::Positive { l: 3, v: 8 },
        1 => Scheme::Mutex { m: 4 },
        _ => Scheme::Conditional,
    }
}

fn exact(answer: &Answer) -> &[f64] {
    match answer {
        Answer::Exact(p) => p,
        Answer::Degraded { .. } => panic!("unlimited budgets must not degrade"),
    }
}

/// Property 1 for the d-DNNF engine: bitwise agreement.
fn check_concurrent_dnnf(scheme: Scheme, n_groups: usize, seed: u64, clients: usize) {
    let prep = prepare_lineage(n_groups, scheme, &LineageOpts::default(), seed);
    let reference = DnnfEngine::compile(&prep.net, &DnnfOptions::default())
        .expect("lineage compiles")
        .probabilities(&prep.vt);
    let svc = Arc::new(QueryService::new(ServeOptions::default()));
    let lin = Lineage::dnnf(Arc::new(prep.net), DnnfOptions::default());
    let barrier = Arc::new(Barrier::new(clients));
    std::thread::scope(|s| {
        for _ in 0..clients {
            let svc = Arc::clone(&svc);
            let lin = lin.clone();
            let vt = prep.vt.clone();
            let barrier = Arc::clone(&barrier);
            let reference = reference.clone();
            s.spawn(move || {
                barrier.wait();
                let reply = svc.query(&lin, &vt, Budget::unlimited()).expect("serves");
                let got = exact(&reply.answer);
                assert_eq!(got.len(), reference.len());
                for i in 0..reference.len() {
                    assert_eq!(
                        got[i].to_bits(),
                        reference[i].to_bits(),
                        "target {i}: concurrent d-DNNF must be bitwise sequential"
                    );
                }
            });
        }
    });
}

/// Property 2: queries racing epoch swings never change their answers.
fn check_snapshot_invariance(scheme: Scheme, n_groups: usize, seed: u64) {
    let prep = prepare_lineage(n_groups, scheme, &LineageOpts::default(), seed);
    let reference = DnnfEngine::compile(&prep.net, &DnnfOptions::default())
        .expect("lineage compiles")
        .probabilities(&prep.vt);
    let svc = Arc::new(QueryService::new(ServeOptions::default()));
    let lin = Lineage::dnnf(Arc::new(prep.net), DnnfOptions::default());
    // Resident before the race starts.
    let warm = svc
        .query(&lin, &prep.vt, Budget::unlimited())
        .expect("warms");
    assert_eq!(warm.epoch, 0);
    let stop = Arc::new(AtomicBool::new(false));
    let mut max_epoch = 0;
    std::thread::scope(|s| {
        for _ in 0..3 {
            let svc = Arc::clone(&svc);
            let lin = lin.clone();
            let vt = prep.vt.clone();
            let stop = Arc::clone(&stop);
            let reference = reference.clone();
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let reply = svc.query(&lin, &vt, Budget::unlimited()).expect("serves");
                    let got = exact(&reply.answer);
                    assert_eq!(got.len(), reference.len());
                    for i in 0..reference.len() {
                        assert_eq!(
                            got[i].to_bits(),
                            reference[i].to_bits(),
                            "target {i} drifted at epoch {}",
                            reply.epoch
                        );
                    }
                }
            });
        }
        for _ in 0..5 {
            let swung = svc.maintain(&lin).expect("resident artifact maintains");
            assert!(swung > max_epoch, "epochs are monotone");
            max_epoch = swung;
        }
        stop.store(true, Ordering::Relaxed);
    });
    assert_eq!(max_epoch, 5);
    let last = svc
        .query(&lin, &prep.vt, Budget::unlimited())
        .expect("serves");
    assert_eq!(last.epoch, 5, "the final swing is the live epoch");
}

proptest! {
    // Each case compiles pipelines and spawns client threads; keep
    // counts low.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Property 1 (d-DNNF, bitwise), across all three schemes.
    #[test]
    fn concurrent_dnnf_equals_sequential_bitwise(
        seed in 0u64..1000,
        scheme_idx in 0usize..3,
        n_groups in 4usize..=8,
        clients in 2usize..=5,
    ) {
        check_concurrent_dnnf(scheme_of(scheme_idx), n_groups, seed, clients);
    }

    /// Property 2, across all three schemes.
    #[test]
    fn snapshot_reads_are_invariant_under_maintenance(
        seed in 0u64..1000,
        scheme_idx in 0usize..3,
        n_groups in 4usize..=8,
    ) {
        check_snapshot_invariance(scheme_of(scheme_idx), n_groups, seed);
    }
}
