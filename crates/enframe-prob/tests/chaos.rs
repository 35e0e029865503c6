//! Chaos suite for the distributed decision-tree engine (ISSUE 8).
//!
//! The companion of `enframe-obdd/tests/chaos.rs`: CI arms
//! `ENFRAME_FAILPOINTS` process-wide and this suite hammers
//! [`compile_distributed`] through the fault schedule. The contract:
//! an `Ok` result is a *sound enclosure* of the exact probabilities
//! (exhausted or not — unprocessed jobs only widen bounds), a failure
//! is a structured [`CoreError::WorkerPanicked`], and nothing panics
//! out of the API or deadlocks the pool.

use enframe_core::budget::Budget;
use enframe_core::{space, CoreError, Program, VarTable};
use enframe_network::Network;
use enframe_prob::{compile_distributed, DistOptions, Options, Strategy};
use std::time::{Duration, Instant};

const ROUNDS: usize = 40;
const WALL_LIMIT: Duration = Duration::from_secs(120);

fn chunked_or(n: usize) -> Program {
    let mut p = Program::new();
    let vars: Vec<_> = (0..n).map(|_| p.fresh_var()).collect();
    let e1 = p.declare_event(
        "E1",
        Program::or(
            vars.chunks(2)
                .map(|c| Program::and(c.iter().map(|&v| Program::var(v)).collect::<Vec<_>>())),
        ),
    );
    let e2 = p.declare_event("E2", Program::not(Program::eref(e1)));
    p.add_target(e1);
    p.add_target(e2);
    p
}

#[test]
fn distributed_pool_survives_armed_failpoints() {
    let armed = std::env::var("ENFRAME_FAILPOINTS").unwrap_or_default();
    let t0 = Instant::now();
    let p = chunked_or(8);
    let g = p.ground().unwrap();
    let net = Network::build(&g).unwrap();
    let vt = VarTable::uniform(8, 0.45);
    let want = space::target_probabilities(&g, &vt);
    let mut completed = 0usize;
    for round in 0..ROUNDS {
        assert!(
            t0.elapsed() < WALL_LIMIT,
            "chaos suite wedged after {round} rounds under `{armed}`"
        );
        let budget = if round % 5 == 4 {
            Budget {
                max_steps: Some(12),
                ..Budget::unlimited()
            }
        } else {
            Budget::unlimited()
        };
        let seq = if round % 3 == 0 {
            Options::approx(Strategy::Hybrid, 0.05)
        } else {
            Options::exact()
        };
        let res = compile_distributed(
            &net,
            &vt,
            DistOptions {
                workers: 4,
                job_depth: 2,
                seq,
                budget,
            },
        );
        match res {
            Ok(r) => {
                // Sound enclosure whether or not the budget exhausted:
                // every unexplored subtree stays between L and U.
                for i in 0..want.len() {
                    assert!(
                        r.lower[i] <= want[i] + 1e-9 && want[i] <= r.upper[i] + 1e-9,
                        "round {round} target {i}: {} not in [{}, {}] \
                         (exhausted: {:?})",
                        want[i],
                        r.lower[i],
                        r.upper[i],
                        r.exhausted
                    );
                }
                if r.exhausted.is_none() {
                    completed += 1;
                }
            }
            Err(CoreError::WorkerPanicked { worker, message }) => {
                assert!(worker < 4, "round {round}: bad worker index {worker}");
                assert!(
                    message.contains("injected"),
                    "round {round}: non-injected panic escaped: {message}"
                );
            }
            Err(e) => panic!("round {round}: unexpected error class: {e}"),
        }
    }
    println!(
        "chaos `{armed}`: {completed}/{ROUNDS} distributed runs completed unexhausted, \
         rest degraded or failed structurally; {:.1}s",
        t0.elapsed().as_secs_f64()
    );
}
