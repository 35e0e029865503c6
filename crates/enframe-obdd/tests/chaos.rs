//! Chaos suite for the knowledge-compilation engines (ISSUE 8).
//!
//! CI runs this binary with `ENFRAME_FAILPOINTS` armed process-wide
//! (`spawn:every-N` worker panics, `alloc:every-N` allocation failures,
//! `recv:every-N` queue stalls) and periods chosen so faulted and clean
//! iterations interleave. The contract under any fault schedule:
//!
//! * a run that returns `Ok` must produce the exact probabilities;
//! * a run that fails must fail with a *structured* [`ObddError`] —
//!   a caught worker panic carries the failing target index;
//! * nothing panics out of the API, nothing deadlocks (the whole
//!   suite is held to a wall-clock bound), and a failed run never
//!   poisons the next one.
//!
//! With the variable unset every failpoint is a no-op and this is a
//! plain repeated-compilation smoke test.

use enframe_core::budget::Budget;
use enframe_core::{space, Program, VarTable};
use enframe_network::Network;
use enframe_obdd::dnnf::{DnnfEngine, DnnfOptions};
use enframe_obdd::{ObddEngine, ObddError, ObddOptions};
use std::time::{Duration, Instant};

/// Iterations per engine — enough to cross every `every-N` period in
/// the CI matrix several times.
const ROUNDS: usize = 40;

/// The whole suite must finish well inside CI patience even with every
/// receive stalled: a hang (the failure mode this suite exists to
/// catch) trips this bound instead of the job timeout.
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

/// One chaos round: compile, and classify the outcome. Returns whether
/// the round completed (`Ok`) so callers can report fault coverage.
fn classify(result: Result<Vec<f64>, ObddError>, want: &[f64], what: &str) -> bool {
    match result {
        Ok(got) => {
            assert_eq!(got.len(), want.len(), "{what}: wrong target count");
            for i in 0..want.len() {
                assert!(
                    (got[i] - want[i]).abs() < 1e-9,
                    "{what} target {i}: {} vs {} — a faulted run may fail, \
                     but a completed run must be exact",
                    got[i],
                    want[i]
                );
            }
            true
        }
        Err(ObddError::WorkerPanicked { target, message }) => {
            assert!(
                message.contains("injected"),
                "{what}: non-injected panic escaped a worker: {message}"
            );
            // The index is the structured part callers dispatch on.
            let _ = target;
            false
        }
        Err(ObddError::Injected(_) | ObddError::BudgetExceeded { .. } | ObddError::Core(_)) => {
            false
        }
        Err(e) => panic!("{what}: unexpected error class: {e}"),
    }
}

#[test]
fn engines_survive_armed_failpoints() {
    let armed = std::env::var("ENFRAME_FAILPOINTS").unwrap_or_default();
    let t0 = Instant::now();
    let p = mutex_chain(10);
    let g = p.ground().unwrap();
    let net = Network::build(&g).unwrap();
    let vt = VarTable::uniform(10, 0.4);
    let want = space::target_probabilities(&g, &vt);
    let (mut bdd_ok, mut dnnf_ok) = (0usize, 0usize);
    for round in 0..ROUNDS {
        assert!(
            t0.elapsed() < WALL_LIMIT,
            "chaos suite wedged after {round} rounds under `{armed}`"
        );
        // The OBDD compile runs on the calling thread; the d-DNNF
        // rounds alternate sequential and fan-out so both paths meet
        // the faults. A tiny budget every few rounds exercises the
        // budget/fault interleaving too.
        let workers = if round % 2 == 0 { 1 } else { 4 };
        let budget = if round % 5 == 4 {
            Budget {
                max_nodes: Some(6),
                ..Budget::unlimited()
            }
        } else {
            Budget::unlimited()
        };
        let opts = ObddOptions {
            budget,
            ..ObddOptions::default()
        };
        let res = ObddEngine::compile(&net, &opts).map(|e| e.probabilities(&vt));
        if classify(res, &want, &format!("bdd round {round}")) {
            bdd_ok += 1;
        }
        let dopts = DnnfOptions { workers, budget };
        let res = DnnfEngine::compile(&net, &dopts).map(|e| e.probabilities(&vt));
        if classify(res, &want, &format!("dnnf round {round} (w={workers})")) {
            dnnf_ok += 1;
        }
    }
    println!(
        "chaos `{armed}`: bdd {bdd_ok}/{ROUNDS} ok, dnnf {dnnf_ok}/{ROUNDS} ok, \
         rest failed structurally; {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
