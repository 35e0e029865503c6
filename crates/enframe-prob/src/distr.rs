//! Distributed probability computation (paper §4.4).
//!
//! The decision tree is split into *jobs*: a job is a tree fragment rooted
//! at a prefix assignment, explored to relative depth `d`. One worker
//! starts from the root; whenever exploration reaches depth `d` with
//! unresolved targets, the subtree is forked as a new job that continues
//! from that node. Per-branch bound contributions accumulate in
//! worker-local deltas and merge into the shared bounds at job end; the
//! job's prefix is replayed with contribution *disabled* so that
//! resolutions already accounted by the forking worker are not counted
//! twice. Error budgets travel with the jobs and residuals return to a
//! shared spare pool that is drained by subsequently started jobs
//! ("budgets are synchronised both at the start and end of a job").
//!
//! Each worker owns a private [`Masks`] store over the shared immutable
//! network.

use crate::compile::{check_var_table, target_positions, CompileResult, Options, Stats, Strategy};
use crate::masks::{BoolMask, Masks};
use crate::order::static_order;
use enframe_core::budget::{Budget, BudgetScope};
use enframe_core::error::CoreError;
use enframe_core::pool;
use enframe_core::{Var, VarTable};
use enframe_network::{Network, NodeId};
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Options for distributed compilation.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// Worker threads. `0` means *auto*: honour the `ENFRAME_WORKERS`
    /// environment variable, else use the default pool of 4 — the same
    /// convention as the knowledge-compilation engines
    /// (`enframe_core::workers::resolve`).
    pub workers: usize,
    /// Job size `d`: maximum relative exploration depth per job.
    pub job_depth: usize,
    /// Sequential options applied within each job (strategy, ε, order).
    pub seq: Options,
    /// Resource budget shared by the whole pool; [`Budget::unlimited`]
    /// (the default) disables every check. On exhaustion the engine
    /// stops early and returns the sound bounds accumulated so far with
    /// [`CompileResult::exhausted`] set.
    pub budget: Budget,
}

impl Default for DistOptions {
    fn default() -> Self {
        DistOptions {
            workers: 4,
            job_depth: 3,
            seq: Options::exact(),
            budget: Budget::default(),
        }
    }
}

struct Job {
    prefix: Vec<(Var, bool)>,
    prob: f64,
    budgets: Vec<f64>,
}

struct Shared<'v> {
    vt: &'v VarTable,
    opts: DistOptions,
    order: Vec<Var>,
    targets: Vec<NodeId>,
    node_targets: HashMap<NodeId, Vec<usize>>,
    bounds: Mutex<(Vec<f64>, Vec<f64>)>,
    spare: Mutex<Vec<f64>>,
    /// Subtrees forked as jobs go back on the pool's queue.
    queue: pool::Queue<Job>,
    /// Shared budget/cancellation state: a worker that exhausts the
    /// budget — or panics — cancels the scope, and every sibling's queue
    /// poll and per-branch check observes it.
    scope: BudgetScope,
}

/// Locks one of the shared accumulators. They are only ever held over
/// element-wise float updates that cannot panic; after a worker panic
/// the run is reported as failed and their contents are dropped unread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Compiles the network with `workers` threads and job size `d`, returning
/// the same bounds as the sequential engine (exactly for
/// [`Strategy::Exact`]; within the ε guarantee for the approximations).
///
/// `Err` is returned only for worker panics
/// ([`CoreError::WorkerPanicked`], with every sibling cancelled and
/// joined — no thread leaks); budget exhaustion is *not* an error: the
/// sound bounds collected so far come back with
/// [`CompileResult::exhausted`] set.
///
/// # Panics
/// Panics if the variable table does not cover the network's variables,
/// before any worker starts.
pub fn compile_distributed(
    net: &Network,
    vt: &VarTable,
    opts: DistOptions,
) -> Result<CompileResult, CoreError> {
    check_var_table(net, vt);
    let opts = DistOptions {
        workers: enframe_core::workers::resolve(opts.workers, 4),
        ..opts
    };
    assert!(opts.job_depth >= 1, "job depth must be at least 1");

    // Account targets resolved by the empty assignment.
    let targets = net.targets.clone();
    let mut lower = vec![0.0; targets.len()];
    let mut upper = vec![1.0; targets.len()];
    let names = net.target_names.clone();
    {
        let store = Masks::new(net);
        for (i, &t) in targets.iter().enumerate() {
            match store.bool_mask(t) {
                BoolMask::True => lower[i] = 1.0,
                BoolMask::False => upper[i] = 0.0,
                BoolMask::Unknown => {}
            }
        }
        if store.unresolved_targets() == 0 {
            return Ok(CompileResult {
                lower,
                upper,
                names,
                stats: Stats::default(),
                exhausted: None,
            });
        }
    }

    let eps2 = if opts.seq.strategy == Strategy::Exact {
        0.0
    } else {
        2.0 * opts.seq.epsilon
    };
    let n_targets = targets.len();
    let shared = Shared {
        vt,
        opts,
        order: static_order(net, opts.seq.order),
        node_targets: target_positions(&targets),
        targets,
        bounds: Mutex::new((lower, upper)),
        spare: Mutex::new(vec![0.0; n_targets]),
        // One root job; the pool shuts down when it and every job
        // forked below it are finished — or the scope is cancelled: a
        // dead worker's jobs would otherwise never drain.
        queue: pool::Queue::new([Job {
            prefix: Vec::new(),
            prob: 1.0,
            budgets: vec![eps2; n_targets],
        }]),
        scope: BudgetScope::new(opts.budget),
    };

    let ran = pool::run(&shared.scope, opts.workers, &shared.queue, |jobs| {
        let mut worker = Worker {
            shared: &shared,
            store: Masks::new(net),
            local_lower: vec![0.0; n_targets],
            local_upper_delta: vec![0.0; n_targets],
            branches: 0,
            stopped: false,
        };
        while let Some(job) = jobs.next_job() {
            worker.run_job(job);
        }
        Ok::<u64, CoreError>(worker.branches)
    });

    shared.scope.record_telemetry();
    let branches = ran?.into_iter().sum();
    let exhausted = shared.scope.verdict();
    let (lower, upper) = shared
        .bounds
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    Ok(CompileResult {
        lower,
        upper,
        names,
        stats: Stats {
            branches,
            assignments: 0,
            prunes: 0,
            deepest: 0,
        },
        exhausted,
    })
}

struct Worker<'v, 's, 'n> {
    shared: &'s Shared<'v>,
    store: Masks<'n>,
    local_lower: Vec<f64>,
    local_upper_delta: Vec<f64>,
    branches: u64,
    /// Set when the shared scope rejects a check: the current job's
    /// remaining subtree unwinds without exploring (sound — unexplored
    /// mass stays between the bounds) and the job loop exits next poll.
    stopped: bool,
}

impl Worker<'_, '_, '_> {
    fn run_job(&mut self, mut job: Job) {
        let mark = self.store.checkpoint();
        // Replay the prefix silently: contributions along it were already
        // accounted by the forking worker.
        for &(v, val) in &job.prefix {
            self.store.assign(v, val, &mut |_, _| {});
        }
        // Synchronise budgets at job start: drain the spare pool.
        if self.shared.opts.seq.strategy != Strategy::Exact {
            let mut spare = lock(&self.shared.spare);
            for (b, s) in job.budgets.iter_mut().zip(spare.iter_mut()) {
                *b += *s;
                *s = 0.0;
            }
        }
        self.local_lower.fill(0.0);
        self.local_upper_delta.fill(0.0);
        let residual = self.dfs(job.prefix.len(), 0, job.prob, job.budgets, &mut job.prefix);
        // Merge bound deltas.
        {
            let mut bounds = lock(&self.shared.bounds);
            for i in 0..self.local_lower.len() {
                bounds.0[i] += self.local_lower[i];
                bounds.1[i] -= self.local_upper_delta[i];
            }
        }
        // Return residual budgets to the pool.
        if self.shared.opts.seq.strategy != Strategy::Exact {
            let mut spare = lock(&self.shared.spare);
            for (s, r) in spare.iter_mut().zip(&residual) {
                *s += r;
            }
        }
        self.store.rollback(mark);
    }

    fn global_tight_or_resolved(&self, eps2: f64) -> bool {
        let bounds = lock(&self.shared.bounds);
        self.shared
            .targets
            .iter()
            .enumerate()
            .all(|(i, &t)| self.store.state(t).is_resolved() || bounds.1[i] - bounds.0[i] <= eps2)
    }

    fn dfs(
        &mut self,
        depth: usize,
        rel_depth: usize,
        p: f64,
        budgets: Vec<f64>,
        prefix: &mut Vec<(Var, bool)>,
    ) -> Vec<f64> {
        // Budget safe point, one step per branch (shared across the
        // whole pool through the scope's atomic step counter).
        if self.stopped || self.shared.scope.check_steps(1).is_err() {
            self.stopped = true;
            return budgets;
        }
        self.branches += 1;
        if self.store.unresolved_targets() == 0 {
            return budgets;
        }
        let approx = self.shared.opts.seq.strategy != Strategy::Exact;
        let eps2 = 2.0 * self.shared.opts.seq.epsilon;
        if approx && self.global_tight_or_resolved(eps2) {
            return budgets;
        }
        if rel_depth >= self.shared.opts.job_depth {
            // Fork the subtree as a new job carrying the current budgets.
            self.shared.queue.push(Job {
                prefix: prefix.clone(),
                prob: p,
                budgets: budgets.clone(),
            });
            // The budget moved into the job; nothing residual here.
            return vec![0.0; budgets.len()];
        }
        let Some(&x) = self.shared.order.get(depth) else {
            debug_assert_eq!(self.store.unresolved_targets(), 0);
            return budgets;
        };
        let px = self.shared.vt.prob(x);

        let (left_budget, mut right_budget) = match self.shared.opts.seq.strategy {
            Strategy::Exact => (budgets.clone(), budgets),
            Strategy::Eager => {
                let zeros = vec![0.0; budgets.len()];
                (budgets, zeros)
            }
            Strategy::Lazy => {
                let zeros = vec![0.0; budgets.len()];
                (zeros, budgets)
            }
            Strategy::Hybrid => {
                let half: Vec<f64> = budgets.iter().map(|b| b * 0.5).collect();
                (half.clone(), half)
            }
        };
        let left_res = self.branch(depth, rel_depth, x, true, p * px, left_budget, prefix);
        if self.shared.opts.seq.strategy != Strategy::Exact {
            for (r, l) in right_budget.iter_mut().zip(&left_res) {
                *r += l;
            }
        } else {
            right_budget = left_res;
        }
        if approx && self.global_tight_or_resolved(eps2) {
            return right_budget;
        }
        self.branch(
            depth,
            rel_depth,
            x,
            false,
            p * (1.0 - px),
            right_budget,
            prefix,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn branch(
        &mut self,
        depth: usize,
        rel_depth: usize,
        x: Var,
        value: bool,
        p: f64,
        mut budgets: Vec<f64>,
        prefix: &mut Vec<(Var, bool)>,
    ) -> Vec<f64> {
        if p == 0.0 {
            return budgets;
        }
        if self.shared.opts.seq.strategy != Strategy::Exact {
            let prunable = self
                .shared
                .targets
                .iter()
                .enumerate()
                .all(|(i, &t)| self.store.state(t).is_resolved() || budgets[i] >= p);
            if prunable {
                for (i, &t) in self.shared.targets.iter().enumerate() {
                    if !self.store.state(t).is_resolved() {
                        budgets[i] -= p;
                    }
                }
                return budgets;
            }
        }
        let mark = self.store.checkpoint();
        let mut resolutions: Vec<(NodeId, bool)> = Vec::new();
        self.store
            .assign(x, value, &mut |id, truth| resolutions.push((id, truth)));
        for (id, truth) in resolutions {
            if let Some(targets) = self.shared.node_targets.get(&id) {
                for &i in targets {
                    if truth {
                        self.local_lower[i] += p;
                    } else {
                        self.local_upper_delta[i] += p;
                    }
                }
            }
        }
        prefix.push((x, value));
        let res = self.dfs(depth + 1, rel_depth + 1, p, budgets, prefix);
        prefix.pop();
        self.store.rollback(mark);
        res
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use enframe_core::failpoint;
    use enframe_core::program::{SymCVal, SymEvent, ValSrc};
    use enframe_core::{space, CmpOp, Program, Value};
    use std::rc::Rc;

    fn mixed_program(n: usize) -> Program {
        let mut p = Program::new();
        let vars: Vec<_> = (0..n).map(|_| p.fresh_var()).collect();
        let e1 = p.declare_event(
            "E1",
            Program::or(
                vars.chunks(2)
                    .map(|c| Program::and(c.iter().map(|&v| Program::var(v)).collect::<Vec<_>>())),
            ),
        );
        let sum = Rc::new(SymCVal::Sum(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| {
                    Rc::new(SymCVal::Cond(
                        Program::var(v),
                        ValSrc::Const(Value::Num(i as f64 + 1.0)),
                    ))
                })
                .collect(),
        ));
        let e2 = p.declare_event(
            "E2",
            Rc::new(SymEvent::Atom(
                CmpOp::Ge,
                sum,
                Rc::new(SymCVal::Lit(ValSrc::Const(Value::Num(n as f64)))),
            )),
        );
        p.add_target(e1);
        p.add_target(e2);
        p
    }

    #[test]
    fn distributed_exact_matches_sequential() {
        let p = mixed_program(6);
        let vt = VarTable::new(vec![0.3, 0.5, 0.7, 0.4, 0.6, 0.8]);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let want = space::target_probabilities(&g, &vt);
        for workers in [1, 2, 4] {
            for depth in [1, 2, 3, 5] {
                let got = compile_distributed(
                    &net,
                    &vt,
                    DistOptions {
                        workers,
                        job_depth: depth,
                        seq: Options::exact(),
                        ..Default::default()
                    },
                )
                .unwrap();
                for i in 0..want.len() {
                    assert!(
                        (got.lower[i] - want[i]).abs() < 1e-9,
                        "w={workers} d={depth} target {i}: {} vs {}",
                        got.lower[i],
                        want[i]
                    );
                    assert!((got.upper[i] - want[i]).abs() < 1e-9);
                }
            }
        }
    }

    #[test]
    fn distributed_hybrid_respects_epsilon() {
        let p = mixed_program(8);
        let vt = VarTable::uniform(8, 0.55);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let want = space::target_probabilities(&g, &vt);
        let eps = 0.05;
        let got = compile_distributed(
            &net,
            &vt,
            DistOptions {
                workers: 4,
                job_depth: 3,
                seq: Options::approx(Strategy::Hybrid, eps),
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..want.len() {
            assert!(
                got.lower[i] <= want[i] + 1e-9 && want[i] <= got.upper[i] + 1e-9,
                "true probability escaped bounds"
            );
            assert!(
                got.width(i) <= 2.0 * eps + 1e-9,
                "width {} exceeds 2ε",
                got.width(i)
            );
        }
    }

    #[test]
    fn trivially_resolved_targets_short_circuit() {
        let mut p = Program::new();
        let _x = p.fresh_var();
        let t = p.declare_event("T", Rc::new(SymEvent::Tru));
        p.add_target(t);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::uniform(1, 0.5);
        let got = compile_distributed(&net, &vt, DistOptions::default()).unwrap();
        assert_eq!(got.lower, vec![1.0]);
        assert_eq!(got.upper, vec![1.0]);
    }

    #[test]
    fn single_worker_equals_multi_worker() {
        let p = mixed_program(7);
        let vt = VarTable::uniform(7, 0.5);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let a = compile_distributed(
            &net,
            &vt,
            DistOptions {
                workers: 1,
                job_depth: 2,
                seq: Options::exact(),
                ..Default::default()
            },
        )
        .unwrap();
        let b = compile_distributed(
            &net,
            &vt,
            DistOptions {
                workers: 8,
                job_depth: 2,
                seq: Options::exact(),
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..a.lower.len() {
            assert!((a.lower[i] - b.lower[i]).abs() < 1e-9);
            assert!((a.upper[i] - b.upper[i]).abs() < 1e-9);
        }
    }

    #[test]
    fn agrees_with_sequential_compiler() {
        let p = mixed_program(6);
        let vt = VarTable::new(vec![0.2, 0.4, 0.5, 0.6, 0.8, 0.3]);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let seq = compile(&net, &vt, Options::exact());
        let dist = compile_distributed(
            &net,
            &vt,
            DistOptions {
                workers: 3,
                job_depth: 2,
                seq: Options::exact(),
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..seq.lower.len() {
            assert!((seq.lower[i] - dist.lower[i]).abs() < 1e-9);
            assert!((seq.upper[i] - dist.upper[i]).abs() < 1e-9);
        }
    }

    /// A variable table shorter than the network's variable range is a
    /// caller error, rejected before the pool starts — as by the
    /// sequential `compile` — not a worker panic.
    #[test]
    #[should_panic(expected = "variable table covers")]
    fn short_var_table_panics_before_the_pool_starts() {
        let mut p = Program::new();
        let vars: Vec<_> = (0..3).map(|_| p.fresh_var()).collect();
        let e = p.declare_event("E", Program::and(vars.iter().map(|&v| Program::var(v))));
        p.add_target(e);
        let net = Network::build(&p.ground().unwrap()).unwrap();
        let vt = VarTable::uniform(2, 0.5);
        let _ = compile_distributed(&net, &vt, DistOptions::default());
    }

    /// ISSUE 8: a worker panic mid-pool must come back as a structured
    /// [`CoreError::WorkerPanicked`] — siblings cancelled via the shared
    /// scope, every thread joined, no deadlock on the job queue (the
    /// regression this guards: a dead worker's outstanding jobs never
    /// drain, so a blocking `recv` would hang forever) — and the pool
    /// must work again once the fault is cleared.
    #[test]
    fn injected_worker_panic_is_structured_and_joined() {
        let p = mixed_program(6);
        let vt = VarTable::uniform(6, 0.5);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let opts = || DistOptions {
            workers: 4,
            job_depth: 2,
            seq: Options::exact(),
            ..Default::default()
        };
        {
            let _chaos = failpoint::arm("spawn:every-1");
            match compile_distributed(&net, &vt, opts()) {
                Err(CoreError::WorkerPanicked { worker, message }) => {
                    assert!(worker < 4, "bad worker index {worker}");
                    assert!(
                        message.contains("injected"),
                        "unexpected payload: {message}"
                    );
                }
                other => panic!("expected WorkerPanicked, got {other:?}"),
            }
        }
        let want = space::target_probabilities(&g, &vt);
        let got = compile_distributed(&net, &vt, opts()).unwrap();
        for i in 0..want.len() {
            assert!((got.lower[i] - want[i]).abs() < 1e-9, "target {i}");
        }
    }

    /// An injected receive stall slows the queue but changes nothing
    /// else: the distributed run still converges to the exact answer.
    #[test]
    fn injected_recv_stall_only_delays() {
        let p = mixed_program(6);
        let vt = VarTable::uniform(6, 0.5);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let want = space::target_probabilities(&g, &vt);
        let _chaos = failpoint::arm("recv:every-3");
        let got = compile_distributed(
            &net,
            &vt,
            DistOptions {
                workers: 2,
                job_depth: 2,
                seq: Options::exact(),
                ..Default::default()
            },
        )
        .unwrap();
        for i in 0..want.len() {
            assert!((got.lower[i] - want[i]).abs() < 1e-9, "target {i}");
            assert!((got.upper[i] - want[i]).abs() < 1e-9, "target {i}");
        }
    }

    /// A step budget on the distributed pool stops every worker at a
    /// safe point: the result is not an error but a *sound enclosure* —
    /// `exhausted` is set and the exact answer stays inside `[L, U]`.
    #[test]
    fn budget_exhaustion_keeps_bounds_sound() {
        let p = mixed_program(8);
        let vt = VarTable::uniform(8, 0.5);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let want = space::target_probabilities(&g, &vt);
        let got = compile_distributed(
            &net,
            &vt,
            DistOptions {
                workers: 4,
                job_depth: 2,
                seq: Options::exact(),
                budget: Budget {
                    max_steps: Some(16),
                    ..Budget::unlimited()
                },
            },
        )
        .unwrap();
        assert!(got.exhausted.is_some(), "a 16-step budget must exhaust");
        for i in 0..want.len() {
            assert!(
                got.lower[i] <= want[i] + 1e-9 && want[i] <= got.upper[i] + 1e-9,
                "target {i}: {} not in [{}, {}]",
                want[i],
                got.lower[i],
                got.upper[i]
            );
        }
    }
}
