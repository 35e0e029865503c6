//! The decision-tree search, distributed as in paper §4.4.
//!
//! The decision tree is split into *jobs*: a job is a tree fragment rooted
//! at a prefix assignment, explored to relative depth `d`. One worker
//! starts from the root; whenever exploration reaches depth `d` with
//! unresolved targets, the subtree is forked as a new job that continues
//! from that node. Each branch accounts its resolutions straight into the
//! shared bounds, under their lock; a job replays its prefix with
//! accounting *disabled*, so resolutions the forking worker already
//! accounted are not counted twice. Error budgets travel with the jobs
//! and residuals return to a shared spare pool that is drained by
//! subsequently started jobs ("budgets are synchronised both at the start
//! and end of a job").
//!
//! The sequential [`compile_scoped`](crate::compile_scoped) is the
//! one-job case: the root job with no depth limit, run on the calling
//! thread without the pool, so both entry points run the one search.
//!
//! Each worker owns a private [`Masks`] store over the shared immutable
//! network.

use crate::compile::{CompileResult, Options, Stats, Strategy};
use crate::masks::Masks;
use enframe_core::budget::{Budget, BudgetScope, Exceeded};
use enframe_core::error::CoreError;
use enframe_core::pool;
use enframe_core::{Var, VarTable};
use enframe_network::{Network, NodeId, Partial};
use std::cmp::Reverse;
use std::collections::HashMap;
use std::sync::{Mutex, MutexGuard};

/// Options for distributed compilation.
#[derive(Debug, Clone, Copy)]
pub struct DistOptions {
    /// Worker threads. `0` means *auto*: honour the `ENFRAME_WORKERS`
    /// environment variable, else use the default pool of 4 — the same
    /// convention as d-DNNF's target fan-out
    /// (`enframe_core::workers::resolve`).
    pub workers: usize,
    /// Job size `d`: maximum relative exploration depth per job.
    pub job_depth: usize,
    /// Sequential options applied within each job (strategy and ε).
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

impl Job {
    /// The whole tree: the empty prefix with a `2ε` budget per target
    /// (none when exact).
    fn root(n_targets: usize, opts: &Options) -> Job {
        let eps2 = if opts.strategy == Strategy::Exact {
            0.0
        } else {
            2.0 * opts.epsilon
        };
        Job {
            prefix: Vec::new(),
            prob: 1.0,
            budgets: vec![eps2; n_targets],
        }
    }
}

/// What every worker of one run shares.
struct Search<'a> {
    vt: &'a VarTable,
    opts: Options,
    /// The network's static ranking ([`Network::var_order`]): the
    /// variables the search chooses from, in tie-break order.
    order: Vec<Var>,
    /// Target nodes, parallel to the bounds.
    targets: Vec<NodeId>,
    /// Each target's positions in `targets`, keyed by node: several
    /// targets may share one node.
    node_targets: HashMap<NodeId, Vec<usize>>,
    /// `[L, U]`, charged once per branch that resolves a target.
    bounds: Mutex<(Vec<f64>, Vec<f64>)>,
    spare: Mutex<Vec<f64>>,
    /// The job size `d` and the pool's queue that subtrees forked at
    /// that depth go back on; `None` for the one-job run, which never
    /// forks.
    forks: Option<(usize, pool::Queue<Job>)>,
    /// Shared budget/cancellation state, charged one step per branch: a
    /// worker that exhausts the budget — or panics — cancels the scope,
    /// and every sibling's queue poll and per-branch check observes it.
    scope: &'a BudgetScope,
}

/// Locks one of the shared accumulators. They are only ever held over
/// element-wise float updates that cannot panic; after a worker panic
/// the run is reported as failed and their contents are dropped unread.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl<'a> Search<'a> {
    /// The run's shared state, its bounds already charged with the
    /// targets `store` resolves under the empty assignment (they cover
    /// the whole space). A variable table shorter than the network's
    /// variable range is a caller error, reported before any work starts.
    fn new(
        net: &Network,
        store: &Masks<'_>,
        vt: &'a VarTable,
        opts: Options,
        job_depth: Option<usize>,
        scope: &'a BudgetScope,
    ) -> Self {
        assert!(
            vt.len() >= net.n_vars as usize,
            "variable table covers {} variables but the network uses {}",
            vt.len(),
            net.n_vars
        );
        let targets = net.targets.clone();
        let mut lower = vec![0.0; targets.len()];
        let mut upper = vec![1.0; targets.len()];
        let mut node_targets: HashMap<NodeId, Vec<usize>> = HashMap::new();
        for (i, &t) in targets.iter().enumerate() {
            match store.value(t) {
                Partial::B(true) => lower[i] = 1.0,
                Partial::B(false) => upper[i] = 0.0,
                _ => {}
            }
            node_targets.entry(t).or_default().push(i);
        }
        Search {
            vt,
            opts,
            order: net.var_order(),
            forks: job_depth.map(|d| (d, pool::Queue::new([Job::root(targets.len(), &opts)]))),
            spare: Mutex::new(vec![0.0; targets.len()]),
            bounds: Mutex::new((lower, upper)),
            node_targets,
            targets,
            scope,
        }
    }

    fn result(self, net: &Network, stats: Stats, exhausted: Option<Exceeded>) -> CompileResult {
        let (lower, upper) = self.bounds.into_inner().unwrap_or_else(|e| e.into_inner());
        CompileResult {
            lower,
            upper,
            names: net.target_names.clone(),
            stats,
            exhausted,
        }
    }
}

/// The one-job run behind [`compile_scoped`](crate::compile_scoped): the
/// root job, explored with no depth limit on the calling thread.
pub(crate) fn compile_one_job(
    net: &Network,
    vt: &VarTable,
    opts: Options,
    scope: &BudgetScope,
) -> CompileResult {
    let store = Masks::new(net);
    let search = Search::new(net, &store, vt, opts, None, scope);
    let mut worker = Worker::new(&search, store);
    worker.run_job(Job::root(search.targets.len(), &opts));
    let Worker { stats, stopped, .. } = worker;
    // Only a stopped search is reported exhausted: a scope the caller
    // shares may have run out elsewhere.
    search.result(net, stats, if stopped { scope.verdict() } else { None })
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
    let workers = enframe_core::workers::resolve(opts.workers, 4);
    assert!(opts.job_depth >= 1, "job depth must be at least 1");
    let scope = BudgetScope::new(opts.budget);
    let search = {
        let store = Masks::new(net);
        let search = Search::new(net, &store, vt, opts.seq, Some(opts.job_depth), &scope);
        if store.unresolved_targets() == 0 {
            return Ok(search.result(net, Stats::default(), None));
        }
        search
    };
    let (_, queue) = search.forks.as_ref().expect("a pooled run has a queue");
    // The pool shuts down when the root job and every job forked below
    // it are finished — or the scope is cancelled: a dead worker's jobs
    // would otherwise never drain.
    let ran = pool::run(&scope, workers, queue, |jobs| {
        let mut worker = Worker::new(&search, Masks::new(net));
        while let Some(job) = jobs.next_job() {
            worker.run_job(job);
        }
        Ok::<Stats, CoreError>(worker.stats)
    });
    scope.record_telemetry();
    let stats = ran?.into_iter().fold(Stats::default(), |sum, s| Stats {
        branches: sum.branches + s.branches,
        assignments: sum.assignments + s.assignments,
        prunes: sum.prunes + s.prunes,
        deepest: sum.deepest.max(s.deepest),
    });
    Ok(search.result(net, stats, scope.verdict()))
}

struct Worker<'s, 'a, 'n> {
    search: &'s Search<'a>,
    store: Masks<'n>,
    /// The assignments of the current branch, the job's prefix included:
    /// their count is the decision depth, and a forked job starts from
    /// a copy.
    prefix: Vec<(Var, bool)>,
    /// The current job's prefix length, from which its depth `d` counts.
    job_start: usize,
    /// The variables `prefix` assigns, which [`Worker::next_var`] skips.
    assigned: Vec<bool>,
    stats: Stats,
    /// Set when the shared scope rejects a check: the current job's
    /// remaining subtree unwinds without exploring (sound — unexplored
    /// mass stays between the bounds) and the job loop exits next poll.
    stopped: bool,
}

impl<'s, 'a, 'n> Worker<'s, 'a, 'n> {
    fn new(search: &'s Search<'a>, store: Masks<'n>) -> Self {
        Worker {
            search,
            store,
            prefix: Vec::new(),
            job_start: 0,
            assigned: vec![false; search.vt.len()],
            stats: Stats::default(),
            stopped: false,
        }
    }

    fn run_job(&mut self, job: Job) {
        let approx = self.search.opts.strategy != Strategy::Exact;
        let mark = self.store.checkpoint();
        // Replay the prefix silently: its resolutions were already
        // accounted by the forking worker.
        for &(v, val) in &job.prefix {
            self.store.assign(v, val, &mut |_, _| {});
            self.assigned[v.index()] = true;
        }
        self.job_start = job.prefix.len();
        self.prefix = job.prefix;
        let mut budgets = job.budgets;
        // Synchronise budgets at job start: drain the spare pool.
        if approx {
            let mut spare = lock(&self.search.spare);
            for (b, s) in budgets.iter_mut().zip(spare.iter_mut()) {
                *b += *s;
                *s = 0.0;
            }
        }
        let residual = self.dfs(job.prob, budgets);
        // Return residual budgets to the pool.
        if approx {
            let mut spare = lock(&self.search.spare);
            for (s, r) in spare.iter_mut().zip(&residual) {
                *s += r;
            }
        }
        for &(v, _) in &self.prefix {
            self.assigned[v.index()] = false;
        }
        self.store.rollback(mark);
    }

    /// True iff every target is resolved in the current branch or has
    /// globally tight bounds (Algorithm 1's second entry check).
    fn all_reached_or_tight(&self) -> bool {
        let eps2 = 2.0 * self.search.opts.epsilon;
        let bounds = lock(&self.search.bounds);
        self.search
            .targets
            .iter()
            .enumerate()
            .all(|(i, &t)| self.store.state(t).is_resolved() || bounds.1[i] - bounds.0[i] <= eps2)
    }

    /// The paper's §4.1 choice: the unassigned variable that influences
    /// the most unresolved events (its leaf's unresolved parents), ties
    /// going to the earlier variable in the network's static ranking.
    /// `None` once every variable is assigned.
    fn next_var(&self) -> Option<Var> {
        self.search
            .order
            .iter()
            .copied()
            .filter(|v| !self.assigned[v.index()])
            .min_by_key(|&v| Reverse(self.store.unresolved_parents_of_var(v)))
    }

    fn dfs(&mut self, p: f64, budgets: Vec<f64>) -> Vec<f64> {
        let search = self.search;
        // Budget safe point, one step per branch (shared across a pool
        // through the scope's atomic step counter). Returning without
        // exploring is always sound for the bounds (see `stopped`).
        if self.stopped || search.scope.check_steps(1).is_err() {
            self.stopped = true;
            return budgets;
        }
        let depth = self.prefix.len();
        self.stats.branches += 1;
        self.stats.deepest = self.stats.deepest.max(depth as u32);
        if self.store.unresolved_targets() == 0 {
            return budgets;
        }
        let approx = search.opts.strategy != Strategy::Exact;
        if approx && self.all_reached_or_tight() {
            return budgets;
        }
        if let Some((job_depth, queue)) = &search.forks {
            if depth - self.job_start >= *job_depth {
                // Fork the subtree as a new job carrying the current
                // budgets; nothing residual stays here.
                let n = budgets.len();
                queue.push(Job {
                    prefix: self.prefix.clone(),
                    prob: p,
                    budgets,
                });
                return vec![0.0; n];
            }
        }
        let Some(x) = self.next_var() else {
            // All variables assigned: every target must be resolved.
            debug_assert_eq!(self.store.unresolved_targets(), 0);
            return budgets;
        };
        let px = search.vt.prob(x);

        // Budget split per strategy.
        let (left_budget, mut right_budget) = match search.opts.strategy {
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
        let left_residual = self.branch(x, true, p * px, left_budget);
        if approx {
            for (r, l) in right_budget.iter_mut().zip(&left_residual) {
                *r += l;
            }
        } else {
            right_budget = left_residual;
        }
        if approx && self.all_reached_or_tight() {
            // All probability bounds ε-approximated: skip the right branch.
            return right_budget;
        }
        self.branch(x, false, p * (1.0 - px), right_budget)
    }

    fn branch(&mut self, x: Var, value: bool, p: f64, mut budgets: Vec<f64>) -> Vec<f64> {
        if p == 0.0 {
            // Zero-mass branch: resolutions would contribute nothing.
            return budgets;
        }
        let search = self.search;
        if search.opts.strategy != Strategy::Exact {
            // Prune if the branch mass fits in every unresolved target's
            // budget.
            let prunable = search
                .targets
                .iter()
                .enumerate()
                .all(|(i, &t)| self.store.state(t).is_resolved() || budgets[i] >= p);
            if prunable {
                self.stats.prunes += 1;
                for (i, &t) in search.targets.iter().enumerate() {
                    if !self.store.state(t).is_resolved() {
                        budgets[i] -= p;
                    }
                }
                return budgets;
            }
        }
        let mark = self.store.checkpoint();
        self.stats.assignments += 1;
        // Collect resolutions first, then account them under one lock.
        let mut resolutions: Vec<(NodeId, bool)> = Vec::new();
        self.store
            .assign(x, value, &mut |id, truth| resolutions.push((id, truth)));
        if !resolutions.is_empty() {
            let mut bounds = lock(&search.bounds);
            let (lower, upper) = &mut *bounds;
            for (id, truth) in resolutions {
                for &i in search.node_targets.get(&id).into_iter().flatten() {
                    if truth {
                        lower[i] += p;
                    } else {
                        upper[i] -= p;
                    }
                }
            }
        }
        self.assigned[x.index()] = true;
        self.prefix.push((x, value));
        let res = self.dfs(p, budgets);
        self.prefix.pop();
        self.assigned[x.index()] = false;
        self.store.rollback(mark);
        res
    }
}
#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use enframe_core::failpoint;
    use enframe_core::{space, CmpOp, Program, Value};
    use enframe_core::{CVal, Event};
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
        let sum = Rc::new(CVal::Sum(
            vars.iter()
                .enumerate()
                .map(|(i, &v)| CVal::cond(Program::var(v), Value::Num(i as f64 + 1.0)))
                .collect(),
        ));
        let e2 = p.declare_event(
            "E2",
            Rc::new(Event::Atom(CmpOp::Ge, sum, CVal::num(n as f64))),
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
        let t = p.declare_event("T", Rc::new(Event::Tru));
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
