//! Chaos suite for the serving layer (ISSUE 10).
//!
//! CI runs this binary with `ENFRAME_FAILPOINTS` armed process-wide
//! (`serve_admit` faults at admission, `spawn`/`alloc`/`recv` faults in
//! the compile fan-out behind a cache miss, `store_*` faults in the
//! disk tier), and the suite injects deterministic faults of its own:
//! admission faults on a fixed period, worker panics in the compile
//! behind a single-flight, and corrupt memory-tier entries planted over a
//! good (or deliberately rotten) store. The contract under any fault
//! schedule:
//!
//! * a reply that returns [`Answer::Exact`] must be exact;
//! * a reply that returns [`Answer::Degraded`] must be a sound `[L, U]`
//!   enclosure of the exact answers;
//! * every fault surfaces as a *structured* [`ServeError`] — never a
//!   panic out of the API, never a hang (the suite holds itself to a
//!   wall-clock bound), never a silent wrong answer;
//! * after any failure the service keeps serving: the next clean query
//!   resolves and answers exactly.
//!
//! With the variable unset the round loop is a plain concurrent-serving
//! smoke test.

use enframe_core::budget::Budget;
use enframe_core::failpoint;
use enframe_core::{space, Program, VarTable};
use enframe_network::Network;
use enframe_obdd::dnnf::DnnfOptions;
use enframe_obdd::ObddError;
use enframe_serve::{Answer, Lineage, QueryService, Reply, ServeError, ServeOptions};
use enframe_store::{ArtifactStore, EngineKind};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Rounds of the env-armed schedule loop — enough to cross every
/// `every-N` period in the CI matrix several times.
const ROUNDS: usize = 40;

/// The whole suite must finish well inside CI patience even with every
/// site firing: a hang (the failure mode this suite exists to catch)
/// trips this bound instead of the job timeout.
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

/// The fixture every test serves: a 10-target mutex chain with its
/// exact reference probabilities.
fn fixture() -> (Arc<Network>, VarTable, Vec<f64>) {
    let p = mutex_chain(10);
    let g = p.ground().unwrap();
    let net = Network::build(&g).unwrap();
    let vt = VarTable::uniform(10, 0.4);
    let want = space::target_probabilities(&g, &vt);
    (Arc::new(net), vt, want)
}

/// Classifies one served outcome under chaos. Returns `true` when the
/// round completed exactly, so callers can report fault coverage; any
/// unstructured failure (or structurally wrong answer) asserts.
fn classify(result: Result<Reply, ServeError>, want: &[f64], what: &str) -> bool {
    match result {
        Ok(reply) => match reply.answer {
            Answer::Exact(got) => {
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
                true
            }
            Answer::Degraded { lower, upper } => {
                assert_eq!(lower.len(), want.len(), "{what}: wrong bound count");
                for i in 0..want.len() {
                    assert!(
                        lower[i] - 1e-9 <= want[i] && want[i] <= upper[i] + 1e-9,
                        "{what} target {i}: degraded bounds [{}, {}] must enclose {}",
                        lower[i],
                        upper[i],
                        want[i]
                    );
                }
                false
            }
        },
        Err(ServeError::Injected(site)) => {
            assert_eq!(site, "serve_admit", "{what}: unexpected injection site");
            false
        }
        Err(ServeError::VarTableTooShort { have, need }) => {
            panic!("{what}: a {need}-variable table was sent, {have} arrived")
        }
        Err(ServeError::Engine(e)) => {
            match &e {
                ObddError::WorkerPanicked { message, .. } => assert!(
                    message.contains("injected"),
                    "{what}: non-injected panic escaped a worker: {message}"
                ),
                ObddError::Injected(_) | ObddError::Core(_) => {}
                other => panic!("{what}: unexpected engine error class: {other}"),
            }
            false
        }
        Err(ServeError::Panicked(msg)) => {
            assert!(
                msg.contains("injected"),
                "{what}: a non-injected panic escaped the flight: {msg}"
            );
            false
        }
    }
}

/// Phase A — the env-armed schedule: concurrent queries, cold
/// flushes, tiny budgets, and two fan-out widths, for [`ROUNDS`] rounds under
/// whatever `ENFRAME_FAILPOINTS` the environment armed. Every outcome
/// must classify; at least one round must serve an answer.
#[test]
fn service_survives_armed_fault_schedules() {
    let armed = std::env::var("ENFRAME_FAILPOINTS").unwrap_or_default();
    let t0 = Instant::now();
    let (net, vt, want) = fixture();
    let svc = Arc::new(QueryService::new(ServeOptions::default()));
    let mut served = 0usize;
    for round in 0..ROUNDS {
        assert!(
            t0.elapsed() < WALL_LIMIT,
            "serve chaos wedged after {round} rounds under `{armed}`"
        );
        // Alternate fan-out widths so admission, compile, coalesced
        // waits, and sweeps all meet the faults on both the inline and
        // the pooled compile; a zero-deadline budget every fifth round
        // exercises the degradation ladder under the same schedule.
        let workers = if round % 2 == 0 { 1 } else { 4 };
        let lin = Lineage::dnnf(
            Arc::clone(&net),
            DnnfOptions {
                workers,
                ..DnnfOptions::default()
            },
        );
        let budget = if round % 5 == 4 {
            Budget::with_timeout(Duration::ZERO)
        } else {
            Budget::unlimited()
        };
        // A cold flush every seventh round forces the next resolution
        // back through the (possibly faulted) compile path.
        if round % 7 == 6 {
            svc.flush();
        }
        let clients = 3;
        let barrier = Arc::new(Barrier::new(clients));
        let outcomes: Vec<bool> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..clients)
                .map(|c| {
                    let svc = Arc::clone(&svc);
                    let lin = lin.clone();
                    let vt = vt.clone();
                    let barrier = Arc::clone(&barrier);
                    let want = want.clone();
                    s.spawn(move || {
                        barrier.wait();
                        classify(
                            svc.query(&lin, &vt, budget),
                            &want,
                            &format!("round {round} client {c} (w={workers})"),
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        served += outcomes.into_iter().filter(|&ok| ok).count();
    }
    assert!(
        served > 0,
        "no round ever served an exact answer under `{armed}`"
    );
    println!(
        "serve chaos `{armed}`: {served}/{} exact, rest degraded or failed \
         structurally; {:.1}s",
        ROUNDS * 3,
        t0.elapsed().as_secs_f64()
    );
}

/// Phase B — deterministic admission faults: with `serve_admit` armed
/// on a period, faulted queries fail with the structured injection
/// error, clean queries answer exactly, and disarming restores full
/// service on the same instance.
#[test]
fn admission_faults_are_structured_and_clear() {
    let t0 = Instant::now();
    let (net, vt, want) = fixture();
    let svc = QueryService::new(ServeOptions::default());
    let lin = Lineage::dnnf(Arc::clone(&net), DnnfOptions::default());
    let (mut injected, mut ok) = (0usize, 0usize);
    {
        let _guard = failpoint::arm("serve_admit:every-3");
        for round in 0..12 {
            assert!(
                t0.elapsed() < WALL_LIMIT,
                "admission rounds wedged at {round}"
            );
            match svc.query(&lin, &vt, Budget::unlimited()) {
                Err(ServeError::Injected("serve_admit")) => injected += 1,
                other => {
                    assert!(
                        classify(other, &want, &format!("admission round {round}")),
                        "an unfaulted admission must serve exactly"
                    );
                    ok += 1;
                }
            }
        }
    }
    assert!(
        injected > 0,
        "an every-3 schedule must fire within 12 rounds"
    );
    assert!(ok > 0, "an every-3 schedule must also let rounds through");
    // Disarmed: the same instance serves normally again.
    let _calm = failpoint::arm("");
    let reply = svc.query(&lin, &vt, Budget::unlimited()).expect("recovers");
    assert!(classify(Ok(reply), &want, "post-disarm query"));
}

/// Phase C — mid-flight worker panic: with `spawn` armed, the fan-out
/// compile behind a single-flight of coalesced queries panics in a
/// worker. The engine's panic isolation must turn that into a
/// structured [`ObddError::WorkerPanicked`] for the flight leader *and*
/// every coalesced member (nobody hangs), and the service must serve
/// exactly once the fault clears.
#[test]
fn mid_flight_worker_panic_is_structured_for_every_member() {
    let t0 = Instant::now();
    let (net, vt, want) = fixture();
    let svc = Arc::new(QueryService::new(ServeOptions::default()));
    let lin = Lineage::dnnf(
        Arc::clone(&net),
        DnnfOptions {
            workers: 4,
            ..DnnfOptions::default()
        },
    );
    let mut served = 0usize;
    {
        let _guard = failpoint::arm("spawn:every-3");
        // The clients below are this test's own threads: they adopt
        // its plan, and the engines' pool hands it on to the workers.
        let plan = failpoint::Plan::current();
        for round in 0..8 {
            assert!(
                t0.elapsed() < WALL_LIMIT,
                "worker-panic rounds wedged at {round}"
            );
            // Cold every round: each round's flight re-runs the faulted
            // fan-out compile.
            svc.flush();
            let clients = 4;
            let barrier = Arc::new(Barrier::new(clients));
            std::thread::scope(|s| {
                for c in 0..clients {
                    let svc = Arc::clone(&svc);
                    let lin = lin.clone();
                    let vt = vt.clone();
                    let barrier = Arc::clone(&barrier);
                    let want = want.clone();
                    let plan = plan.clone();
                    s.spawn(move || {
                        let _plan = plan.adopt();
                        barrier.wait();
                        classify(
                            svc.query(&lin, &vt, Budget::unlimited()),
                            &want,
                            &format!("panic round {round} client {c}"),
                        )
                    });
                }
            });
            served += 1;
        }
    }
    assert_eq!(served, 8, "every round must complete — a hang is the bug");
    // Fault cleared: the same service compiles and serves exactly.
    let _calm = failpoint::arm("");
    svc.flush();
    let reply = svc.query(&lin, &vt, Budget::unlimited()).expect("recovers");
    assert!(classify(Ok(reply), &want, "post-panic query"));
}

/// Phase D — the recovery ladder for a corrupt memory-tier entry:
/// the structural screen rejects the planted artifact, resolution falls
/// through to the store tier (reload, zero-trust revalidated), and when
/// the store copy is *also* rotten, to a fresh compile. Both rungs must
/// produce the exact answer; the rotten rungs must never be served.
#[test]
fn corrupt_mem_entry_falls_back_through_store_then_recompile() {
    // This phase corrupts the tiers programmatically; mask any
    // env-armed I/O or admission faults so the ladder assertions are
    // deterministic (the armed suite above still ran).
    let _calm = failpoint::arm("");
    let t0 = Instant::now();
    let (net, vt, want) = fixture();
    let root = std::env::temp_dir().join(format!("enframe-serve-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ArtifactStore::new(&root);
    let svc = QueryService::new(ServeOptions {
        store: Some(store.clone()),
        ..ServeOptions::default()
    });
    let lin = Lineage::dnnf(Arc::clone(&net), DnnfOptions::default());

    // Seed the store with the good artifact (first query compiles and
    // writes back), then verify the baseline.
    let seeded = svc.query(&lin, &vt, Budget::unlimited());
    assert!(classify(seeded, &want, "seeding query"));
    let artifact_path = store.path_for(EngineKind::Dnnf, lin.fingerprint());
    assert!(
        artifact_path.exists(),
        "seed must persist to the store tier"
    );

    // A wrong-shaped artifact (3 targets, not 10) planted under the
    // lineage's key: the hit-path screen must reject it and the store
    // reload must serve the right answer.
    let wrong = || {
        let p = mutex_chain(3);
        let g = p.ground().unwrap();
        let net3 = Network::build(&g).unwrap();
        enframe_obdd::dnnf::DnnfEngine::compile(&net3, &DnnfOptions::default()).unwrap()
    };
    for round in 0..6 {
        assert!(
            t0.elapsed() < WALL_LIMIT,
            "mem-corruption rounds wedged at {round}"
        );
        svc.inject_mem_entry(lin.fingerprint(), wrong());
        let reply = svc.query(&lin, &vt, Budget::unlimited());
        assert!(
            classify(reply, &want, &format!("store-fallback round {round}")),
            "a screened mem entry must re-resolve to an exact answer"
        );
    }

    // Rot the store copy too (bit flip) and plant the wrong entry
    // again: the ladder's last rung is a fresh compile, still exact.
    let mut bytes = std::fs::read(&artifact_path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&artifact_path, &bytes).unwrap();
    svc.inject_mem_entry(lin.fingerprint(), wrong());
    let reply = svc.query(&lin, &vt, Budget::unlimited());
    assert!(
        classify(reply, &want, "recompile rung"),
        "with both cache tiers rotten the service must recompile exactly"
    );

    let _ = std::fs::remove_dir_all(&root);
}

/// Phase E — a request whose variable table is too short for its
/// lineage. Unchecked, the sweep indexes past the table and panics on
/// the caller's thread. Admission must turn it into a structured error
/// at every fan-out width, promptly, artifact resident or not — and the
/// instance must answer the next well-formed query exactly.
#[test]
fn short_var_table_is_rejected_at_admission() {
    let _calm = failpoint::arm("");
    let t0 = Instant::now();
    let (net, vt, want) = fixture();
    let short = VarTable::uniform(vt.len() - 3, 0.4);
    for workers in [1, 8] {
        let svc = QueryService::new(ServeOptions::default());
        let opts = DnnfOptions {
            workers,
            ..DnnfOptions::default()
        };
        let lin = Lineage::dnnf(Arc::clone(&net), opts);
        for resident in [false, true] {
            match svc.query(&lin, &short, Budget::unlimited()) {
                Err(ServeError::VarTableTooShort { have, need }) => {
                    assert_eq!((have, need), (vt.len() - 3, vt.len()));
                }
                other => panic!("w={workers} resident={resident}: got {other:?}"),
            }
            let reply = svc.query(&lin, &vt, Budget::unlimited());
            assert!(classify(
                reply,
                &want,
                &format!("w={workers} after a short table")
            ));
        }
    }
    assert!(t0.elapsed() < WALL_LIMIT, "short-table rounds wedged");
}
