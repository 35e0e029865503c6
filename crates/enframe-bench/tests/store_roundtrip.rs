//! Artifact-store round-trip properties (ISSUE 9).
//!
//! Over all three correlation schemes (positive, mutex, conditional)
//! and both sequential and `workers = 4` parallel compilation:
//! serialize -> reload -> revalidate must reproduce the original
//! probabilities — bitwise for d-DNNF, within `1e-12` for OBDD — and
//! flipping *any* byte of the on-disk artifact must surface as a
//! structured [`StoreError`], never a panic or a silently wrong
//! answer, with a recompile-and-resave pass recovering the artifact.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use enframe_bench::prepare_lineage;
use enframe_data::{LineageOpts, Scheme};
use enframe_obdd::dnnf::{DnnfEngine, DnnfOptions};
use enframe_obdd::{ObddEngine, ObddOptions};
use enframe_store::{fingerprint_dnnf, fingerprint_obdd, ArtifactStore};
use proptest::prelude::*;

/// OBDD reloads may reorder the WMC reduction, so they are held to a
/// tolerance instead of bit equality (mirrors `OBDD_WMC_TOL`).
const OBDD_TOL: f64 = 1e-12;

/// Lineage groups per generated pipeline — big enough to exercise all
/// target families, small enough to keep the property suite quick.
const GROUPS: usize = 6;

fn scheme(ix: usize) -> Scheme {
    match ix {
        0 => Scheme::Positive { l: 3, v: 8 },
        1 => Scheme::Mutex { m: 4 },
        _ => Scheme::Conditional,
    }
}

/// A fresh per-case store directory under the system temp dir.
fn tmp_store(tag: &str) -> (ArtifactStore, PathBuf) {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "enframe-roundtrip-{}-{}-{}",
        std::process::id(),
        tag,
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    (ArtifactStore::new(&dir), dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn dnnf_round_trip_is_bitwise(
        scheme_ix in 0usize..3,
        seed in 0u64..1_000,
        workers_ix in 0usize..2,
    ) {
        let workers = [1, 4][workers_ix];
        let prep = prepare_lineage(GROUPS, scheme(scheme_ix), &LineageOpts::default(), seed);
        let opts = DnnfOptions { workers, ..DnnfOptions::default() };
        let engine = DnnfEngine::compile(&prep.net, &opts).expect("compiles");
        let reference = engine.probabilities(&prep.vt);

        let (store, dir) = tmp_store("dnnf");
        let fp = fingerprint_dnnf(&prep.net, &opts);
        store.save_dnnf(fp, &engine, &prep.vt).expect("saves");
        // Reload through the zero-trust pipeline (checksums, structural
        // revalidation, WMC digest) and compare bit-for-bit.
        let loaded = store.load_dnnf(fp, 1).expect("reloads and revalidates");
        let back = loaded.probabilities(&prep.vt);
        prop_assert_eq!(reference.len(), back.len());
        for i in 0..reference.len() {
            prop_assert_eq!(
                reference[i].to_bits(), back[i].to_bits(),
                "target {} differs: {} vs {}", i, reference[i], back[i]
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn obdd_round_trip_is_within_tolerance(
        scheme_ix in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let prep = prepare_lineage(GROUPS, scheme(scheme_ix), &LineageOpts::default(), seed);
        let opts = ObddOptions::with_groups(prep.var_groups.clone());
        let engine = ObddEngine::compile(&prep.net, &opts).expect("compiles");
        let reference = engine.probabilities(&prep.vt);

        let (store, dir) = tmp_store("obdd");
        let fp = fingerprint_obdd(&prep.net, &opts);
        store.save_obdd(fp, &engine, &prep.vt).expect("saves");
        let loaded = store.load_obdd(fp).expect("reloads and revalidates");
        let back = loaded.probabilities(&prep.vt);
        prop_assert_eq!(reference.len(), back.len());
        for i in 0..reference.len() {
            prop_assert!(
                (reference[i] - back[i]).abs() <= OBDD_TOL,
                "target {} drifted: {} vs {}", i, reference[i], back[i]
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_byte_flip_is_detected_and_recovered(
        scheme_ix in 0usize..3,
        seed in 0u64..1_000,
        pos_pick in 0usize..100_000,
        bit in 0u32..8,
    ) {
        let prep = prepare_lineage(GROUPS, scheme(scheme_ix), &LineageOpts::default(), seed);
        let opts = DnnfOptions::default();
        let engine = DnnfEngine::compile(&prep.net, &opts).expect("compiles");
        let reference = engine.probabilities(&prep.vt);

        let (store, dir) = tmp_store("flip");
        let fp = fingerprint_dnnf(&prep.net, &opts);
        let path = store.save_dnnf(fp, &engine, &prep.vt).expect("saves");

        // Flip one bit of one byte anywhere in the artifact.
        let mut bytes = std::fs::read(&path).expect("artifact readable");
        let pos = pos_pick % bytes.len();
        bytes[pos] ^= 1u8 << bit;
        std::fs::write(&path, &bytes).expect("tampering writes");

        // Zero-trust load: the flip must be detected as a structured
        // error. The file exists, so it can never classify as a miss.
        let err = match store.load_dnnf(fp, 1) {
            Err(e) => e,
            Ok(loaded) => {
                // A load that somehow survives tampering must at least
                // be semantically intact — never a wrong answer.
                let back = loaded.probabilities(&prep.vt);
                for i in 0..reference.len() {
                    prop_assert_eq!(
                        reference[i].to_bits(), back[i].to_bits(),
                        "corrupt artifact produced a wrong answer at byte {} bit {}", pos, bit
                    );
                }
                prop_assert!(false, "byte {} bit {} flip went undetected", pos, bit);
                unreachable!();
            }
        };
        prop_assert!(!err.is_not_found(), "flip misclassified as a miss: {err}");

        // Recovery ladder: recompile from lineage and re-save; the
        // store must then serve the fresh artifact again.
        let fresh = DnnfEngine::compile(&prep.net, &opts).expect("recompiles");
        store.save_dnnf(fp, &fresh, &prep.vt).expect("re-saves over corruption");
        let healed = store.load_dnnf(fp, 1).expect("healed artifact reloads");
        let back = healed.probabilities(&prep.vt);
        for i in 0..reference.len() {
            prop_assert_eq!(reference[i].to_bits(), back[i].to_bits());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
