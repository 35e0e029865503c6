//! The observability contract of `enframe::telemetry`:
//!
//! 1. **Telemetry never changes an answer** — toggling the global
//!    enable flag around a compile + count leaves every probability
//!    bitwise-identical, for the sequential d-DNNF and OBDD engines and
//!    for the parallel d-DNNF fan-out (property-tested over lineage
//!    pipelines of all three correlation schemes). Spans and counters
//!    observe the engines; they must not steer them.
//! 2. **Measurements carry consistent snapshots** — a bench
//!    [`Measurement`] taken with telemetry on holds a snapshot whose
//!    memo counters agree exactly with the engine's own
//!    `DnnfStats` accounting, whose phase aggregates cover the
//!    engine's pipeline phases, and which records one worker span per
//!    spawned fan-out worker.

use enframe::core::budget::Budget;
use enframe::data::{LineageOpts, Scheme};
use enframe::telemetry::{self, Counter, Phase};
use enframe_bench::{prepare_lineage, run_engine, Engine};
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

/// The enable flag is process-global; tests that flip it must not
/// overlap (the harness runs tests on parallel threads).
fn lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn scheme_of(idx: usize) -> Scheme {
    match idx {
        0 => Scheme::Positive { l: 3, v: 8 },
        1 => Scheme::Mutex { m: 4 },
        _ => Scheme::Conditional,
    }
}

fn assert_bitwise(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for i in 0..a.len() {
        assert_eq!(
            a[i].to_bits(),
            b[i].to_bits(),
            "{what}: target {i} differs: {} vs {}",
            a[i],
            b[i]
        );
    }
}

/// Property 1: the enable flag is invisible to every engine's output.
fn check_toggle_invariance(scheme: Scheme, n_groups: usize, seed: u64) {
    let _guard = lock();
    let was = telemetry::enabled();
    let prep = prepare_lineage(n_groups, scheme, &LineageOpts::default(), seed);
    telemetry::set_enabled(false);
    let dnnf_off = run_engine(&prep, Engine::DnnfExact, 0.0, Budget::unlimited())
        .estimates
        .unwrap();
    let bdd_off = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited())
        .estimates
        .unwrap();
    telemetry::set_enabled(true);
    let dnnf_on = run_engine(&prep, Engine::DnnfExact, 0.0, Budget::unlimited())
        .estimates
        .unwrap();
    let bdd_on = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited())
        .estimates
        .unwrap();
    let par_on = run_engine(
        &prep,
        Engine::DnnfPar { workers: 4 },
        0.0,
        Budget::unlimited(),
    )
    .estimates
    .unwrap();
    telemetry::set_enabled(was);
    assert_bitwise(&dnnf_off, &dnnf_on, "dnnf on-vs-off");
    assert_bitwise(&bdd_off, &bdd_on, "bdd on-vs-off");
    // The parallel fan-out is bitwise-equal to sequential (PR 6's
    // contract), so it must also be bitwise-equal to the *disabled*
    // sequential run — telemetry and scheduling compose to nothing.
    assert_bitwise(&dnnf_off, &par_on, "dnnf-par(on) vs seq(off)");
}

proptest! {
    // Each case compiles several pipelines; keep counts low.
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Property 1, across all three correlation schemes.
    #[test]
    fn telemetry_toggle_never_changes_probabilities(
        seed in 0u64..1000,
        scheme_idx in 0usize..3,
        n_groups in 4usize..=8,
    ) {
        check_toggle_invariance(scheme_of(scheme_idx), n_groups, seed);
    }
}

/// Property 2: the snapshot a measurement carries agrees with the
/// engine's own accounting and covers the pipeline phases.
#[test]
fn measurement_snapshots_agree_with_engine_stats() {
    let _guard = lock();
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    let prep = prepare_lineage(
        8,
        Scheme::Positive { l: 3, v: 8 },
        &LineageOpts::default(),
        17,
    );

    let m = run_engine(&prep, Engine::DnnfExact, 0.0, Budget::unlimited());
    let snap = m.telemetry.clone().expect("run_engine snapshots");
    let stats = m.dnnf_stats.clone().expect("dnnf run carries stats");
    // The counters and the engine's own tallies are two views of the
    // same events: a sequential run must agree exactly.
    assert_eq!(snap.counter(Counter::MemoHit), stats.memo_hits);
    assert_eq!(snap.counter(Counter::MemoMiss), stats.expansion_steps);
    assert!(snap.phase_count(Phase::DnnfExpand) >= prep.net.targets.len() as u64);
    assert!(snap.phase_seconds(Phase::DnnfExpand) > 0.0);
    assert!(snap.phase_count(Phase::Wmc) >= 1);

    let m = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited());
    let snap = m.telemetry.clone().expect("run_engine snapshots");
    assert!(snap.counter(Counter::UniqueProbe) > 0);
    assert!(snap.counter(Counter::NodeAlloc) > 0);
    assert!(snap.phase_count(Phase::BddApply) >= 1);
    assert!(snap.phase_count(Phase::Wmc) >= 1);
    // WMC traversed the compiled diagrams: every probability is either
    // a fresh node visit or a cache hit, and both were observed.
    assert!(snap.counter(Counter::WmcMiss) > 0);

    // A 4-worker fan-out records (at least) one worker span per
    // spawned thread — the per-thread timeline rows of the trace.
    let m = run_engine(
        &prep,
        Engine::DnnfPar { workers: 4 },
        0.0,
        Budget::unlimited(),
    );
    let snap = m.telemetry.clone().expect("run_engine snapshots");
    assert!(
        snap.phase_count(Phase::Worker) >= 4,
        "expected >=4 worker spans, got {}",
        snap.phase_count(Phase::Worker)
    );
    assert!(snap.counter(Counter::QueueWait) >= 4);
    telemetry::set_enabled(was);
}
