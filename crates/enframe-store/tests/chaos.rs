//! Chaos suite for the artifact store (ISSUE 9).
//!
//! CI runs this binary with `ENFRAME_FAILPOINTS` armed process-wide
//! (`store_write`/`store_fsync`/`store_rename` faults on the save
//! path, `store_read` faults on the load path) and additionally
//! injects deterministic faults and file-level corruption of its own:
//! torn writes (every truncation point), bit flips, version skew, and
//! fingerprint mixups. The contract under any fault schedule:
//!
//! * a load that returns `Ok` must produce the exact probabilities;
//! * every fault and every corruption surfaces as a *structured*
//!   [`StoreError`] — never a panic, a hang, or a wrong answer;
//! * a failed save never leaves a partial artifact behind (no `.tmp`
//!   litter, no half-written file a later load could misread);
//! * after any failure, the recovery ladder — recompile from the
//!   network, re-save — restores service.
//!
//! With the variable unset the save/load loop is a plain persistence
//! smoke test.

use enframe_core::failpoint;
use enframe_core::{space, Program, VarTable};
use enframe_network::Network;
use enframe_obdd::dnnf::{DnnfEngine, DnnfOptions};
use enframe_store::{fingerprint_dnnf, ArtifactStore, EngineKind, StoreError};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Save/load rounds under the env-armed schedule.
const ROUNDS: usize = 40;

/// The whole suite must finish well inside CI patience even with every
/// site firing: a hang trips this bound instead of the job timeout.
const WALL_LIMIT: Duration = Duration::from_secs(120);

fn mutex_chain(k: usize) -> Program {
    let mut p = Program::new();
    let vars: Vec<_> = (0..k).map(|_| p.fresh_var()).collect();
    for j in 0..k {
        let mut conj: Vec<_> = vars[..j].iter().map(|&x| Program::nvar(x)).collect();
        conj.push(Program::var(vars[j]));
        let e = p.declare_event(&format!("Phi{j}"), Program::and(conj));
        p.add_target(e);
    }
    p
}

fn assert_exact(got: &[f64], want: &[f64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: wrong target count");
    for i in 0..want.len() {
        assert!(
            (got[i] - want[i]).abs() < 1e-9,
            "{what} target {i}: {} vs {} — a faulted round may fail, \
             but a served answer must be exact",
            got[i],
            want[i]
        );
    }
}

/// No temp files may outlive a save attempt, successful or not: a
/// crash-safe writer either renames into place or cleans up.
fn assert_no_tmp_litter(root: &PathBuf, what: &str) {
    if let Ok(entries) = std::fs::read_dir(root) {
        for e in entries.flatten() {
            let name = e.file_name().to_string_lossy().into_owned();
            assert!(
                !name.ends_with(".tmp"),
                "{what}: temp file `{name}` left behind in the store"
            );
        }
    }
}

#[test]
fn store_survives_faults_and_corruption() {
    let armed = std::env::var("ENFRAME_FAILPOINTS").unwrap_or_default();
    let t0 = Instant::now();
    let p = mutex_chain(10);
    let g = p.ground().unwrap();
    let net = Network::build(&g).unwrap();
    let vt = VarTable::uniform(10, 0.4);
    let want = space::target_probabilities(&g, &vt);
    let opts = DnnfOptions::default();
    let fp = fingerprint_dnnf(&net, &opts);

    let root = std::env::temp_dir().join(format!("enframe-store-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ArtifactStore::new(&root);
    let artifact = store.path_for(EngineKind::Dnnf, fp);

    // Phase A — save/load rounds under whatever schedule the
    // environment armed, with a periodic bit flip thrown in so
    // corruption detection interleaves with injected I/O faults.
    let (mut hits, mut recompiles, mut corruptions) = (0usize, 0usize, 0usize);
    for round in 0..ROUNDS {
        assert!(
            t0.elapsed() < WALL_LIMIT,
            "store chaos wedged after {round} rounds under `{armed}`"
        );
        if round % 7 == 6 {
            if let Ok(mut bytes) = std::fs::read(&artifact) {
                let pos = (round * 131) % bytes.len();
                bytes[pos] ^= 0x10;
                std::fs::write(&artifact, &bytes).unwrap();
            }
        }
        match store.load_dnnf(fp, 1) {
            Ok(engine) => {
                assert_exact(
                    &engine.probabilities(&vt),
                    &want,
                    &format!("round {round} load"),
                );
                hits += 1;
            }
            Err(e) => {
                if matches!(
                    e,
                    StoreError::Corrupt { .. }
                        | StoreError::VersionMismatch { .. }
                        | StoreError::FingerprintMismatch { .. }
                ) {
                    corruptions += 1;
                } else if !e.is_not_found() {
                    // A non-miss I/O failure must be the injected one.
                    assert!(
                        e.to_string().contains("injected"),
                        "round {round}: unexpected I/O failure class: {e}"
                    );
                }
                // Recovery ladder: recompile from the network (exact),
                // then try to re-save — a save fault is tolerated, the
                // next round simply misses again.
                match DnnfEngine::compile(&net, &opts) {
                    Ok(engine) => {
                        assert_exact(
                            &engine.probabilities(&vt),
                            &want,
                            &format!("round {round} recompile"),
                        );
                        recompiles += 1;
                        let _ = store.save_dnnf(fp, &engine, &vt);
                    }
                    Err(ce) => assert!(
                        ce.to_string().contains("injected"),
                        "round {round}: recompile failed non-structurally: {ce}"
                    ),
                }
            }
        }
        assert_no_tmp_litter(&root, &format!("round {round}"));
    }
    assert!(
        hits + recompiles > 0,
        "no round ever served an answer under `{armed}`"
    );

    // Phase B — deterministic write-side faults: each save site, fired
    // every time, must fail structurally, leave no partial artifact,
    // and recover the moment the fault clears.
    for spec in [
        "store_write:every-1",
        "store_fsync:every-1",
        "store_rename:every-1",
    ] {
        let _ = std::fs::remove_file(&artifact);
        let engine = {
            // An env-armed `alloc`/`spawn` schedule must not reach the
            // compile this phase needs to be clean.
            let _calm = failpoint::arm("");
            DnnfEngine::compile(&net, &opts).expect("clean compile")
        };
        {
            let _guard = failpoint::arm(spec);
            let err = store
                .save_dnnf(fp, &engine, &vt)
                .expect_err("armed save must fail");
            assert!(
                matches!(err, StoreError::Io { .. }) && err.to_string().contains("injected"),
                "{spec}: wrong failure class: {err}"
            );
            assert_no_tmp_litter(&root, spec);
            assert!(
                !artifact.exists(),
                "{spec}: a failed save left an artifact in place"
            );
        }
        // Recovery with every fault cleared (the guard also masks any
        // env-armed schedule for the duration).
        let _calm = failpoint::arm("");
        let miss = store.load_dnnf(fp, 1).expect_err("nothing was persisted");
        assert!(miss.is_not_found(), "{spec}: expected a miss, got: {miss}");
        store.save_dnnf(fp, &engine, &vt).expect("recovered save");
        let back = store.load_dnnf(fp, 1).expect("recovered load");
        assert_exact(&back.probabilities(&vt), &want, spec);
    }

    // Phase C — deterministic read-side fault: an injected read error
    // is an I/O failure, not a miss and not corruption.
    {
        let _guard = failpoint::arm("store_read:every-1");
        let err = store.load_dnnf(fp, 1).expect_err("armed read must fail");
        assert!(
            matches!(&err, StoreError::Io { .. }) && !err.is_not_found(),
            "store_read: wrong failure class: {err}"
        );
        assert!(err.to_string().contains("injected"), "store_read: {err}");
    }

    // Phases D-F corrupt the file programmatically; mask any env-armed
    // I/O faults so the classification assertions are deterministic.
    let _calm = failpoint::arm("");
    let back = store.load_dnnf(fp, 1).expect("read recovers once disarmed");
    assert_exact(&back.probabilities(&vt), &want, "post-read-fault load");

    // Phase D — torn writes: every truncation point (sampled densely)
    // must be detected, never served.
    let pristine = std::fs::read(&artifact).expect("artifact readable");
    let step = (pristine.len() / 41).max(1);
    let mut cuts = 0usize;
    for cut in (0..pristine.len())
        .step_by(step)
        .chain([pristine.len() - 1])
    {
        std::fs::write(&artifact, &pristine[..cut]).unwrap();
        let err = store
            .load_dnnf(fp, 1)
            .expect_err("truncated artifact must be rejected");
        assert!(
            matches!(err, StoreError::Corrupt { .. }),
            "truncation at {cut}/{} misclassified: {err}",
            pristine.len()
        );
        cuts += 1;
    }
    std::fs::write(&artifact, &pristine).unwrap();
    let back = store.load_dnnf(fp, 1).expect("restored artifact loads");
    assert_exact(&back.probabilities(&vt), &want, "post-truncation restore");

    // Phase E — version skew is its own error, reported before any
    // digest check can muddy the diagnosis.
    let mut skewed = pristine.clone();
    skewed[8..12].copy_from_slice(&99u32.to_le_bytes());
    std::fs::write(&artifact, &skewed).unwrap();
    match store.load_dnnf(fp, 1) {
        Err(StoreError::VersionMismatch { found, .. }) => assert_eq!(found, 99),
        other => panic!("version skew misclassified: {other:?}"),
    }
    std::fs::write(&artifact, &pristine).unwrap();

    // Phase F — a stale artifact under the wrong key: internally
    // consistent, but keyed by a different lineage.
    let other = mutex_chain(9);
    let og = other.ground().unwrap();
    let other_net = Network::build(&og).unwrap();
    let other_fp = fingerprint_dnnf(&other_net, &opts);
    assert_ne!(fp, other_fp, "distinct lineage must fingerprint distinctly");
    std::fs::copy(&artifact, store.path_for(EngineKind::Dnnf, other_fp)).unwrap();
    match store.load_dnnf(other_fp, 1) {
        Err(StoreError::FingerprintMismatch {
            found, expected, ..
        }) => {
            assert_eq!(found, fp);
            assert_eq!(expected, other_fp);
        }
        other => panic!("fingerprint mixup misclassified: {other:?}"),
    }

    println!(
        "store chaos `{armed}`: {hits} hits, {recompiles} recompiles, \
         {corruptions} corruptions detected, {cuts} truncations rejected; {:.1}s",
        t0.elapsed().as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(&root);
}
