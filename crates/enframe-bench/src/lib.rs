//! # enframe-bench — harness reproducing the paper's evaluation (§5)
//!
//! The paper's evaluation has no numbered tables; its results are Figures
//! 6–9 plus a set of "further findings" sweeps. Each figure has:
//!
//! * a **binary harness** (`src/bin/fig*.rs`) that runs the full sweep and
//!   prints the same series the figure plots, as CSV rows
//!   (`figure,series,x,y_seconds,status,detail`);
//! * a **Criterion bench** (`benches/fig*.rs`) pinning one representative
//!   configuration per series for regression tracking.
//!
//! The binaries default to a *smoke* grid that preserves every series and
//! crossover but finishes in minutes; set `ENFRAME_BENCH_FULL=1` for the
//! paper-scale grid (hours). Infeasible configurations (e.g. the naïve
//! baseline beyond the world-enumeration cap) are reported as `timeout`,
//! mirroring the paper's 3600 s timeout line. Figures 8/9 lower the
//! variable count in smoke mode (v = 14/16 instead of the paper's 30):
//! fully-uncertain positive lineage costs ~5× per extra variable past the
//! ε = 0.1 pruning horizon on this engine, and the reproduced shapes
//! (certain-fraction speedup, job-granularity trade-off) are insensitive
//! to v.
//!
//! Beyond the paper's figures, `bin/ablations` also measures the §4.2
//! design choice: folded vs unfolded loop encoding
//! (`ablation_folded`), via [`Engine::ExactFolded`]/[`Engine::HybridFolded`].

use enframe_core::budget::{Budget, BudgetScope};
use enframe_core::{Program, Var, VarTable};
use enframe_data::{generate_lineage, kmedoids_workload, ClusteringWorkload, LineageOpts, Scheme};
use enframe_lang::{parse, programs, UserProgram};
use enframe_network::{FoldedNetwork, Network};
use enframe_obdd::dnnf::{DnnfEngine, DnnfOptions, DnnfStats};
use enframe_obdd::{ObddEngine, ObddError, ObddOptions, ObddStats};
use enframe_prob::{
    compile_distributed, compile_folded_scoped, compile_scoped, CompileResult, DistOptions,
    Options, Strategy,
};
use enframe_serve::{Answer, Lineage, QueryService, ServeOptions};
use enframe_store::{fingerprint_dnnf, ArtifactStore};
use enframe_telemetry::{self as telemetry, Counter, Phase, Snapshot};
use enframe_translate::{targets, translate, ProbEnv};
use enframe_worlds::{extract, naive_probabilities};
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Whether the paper-scale grid was requested.
pub fn full_scale() -> bool {
    std::env::var("ENFRAME_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// A prepared k-medoids pipeline: workload, parsed program, and compiled
/// event network with medoid-selection targets (`Centre` events, as in the
/// paper's benchmarks).
pub struct Prepared {
    /// The generated workload.
    pub workload: ClusteringWorkload,
    /// Parsed user program.
    pub ast: UserProgram,
    /// The event network.
    pub net: Network,
    /// The folded encoding of the same program (§4.2), when the loop
    /// iterations fold (needs ≥ 2 structurally isomorphic iterations).
    pub folded: Option<FoldedNetwork>,
    /// Number of clusters.
    pub k: usize,
    /// Number of objects.
    pub n: usize,
    /// Seconds spent translating + grounding + building the network.
    pub build_seconds: f64,
    /// Seconds spent building the folded network (`None` when unfoldable).
    pub folded_build_seconds: Option<f64>,
}

/// Builds the full pipeline for a k-medoids workload.
pub fn prepare(
    n: usize,
    k: usize,
    iterations: usize,
    scheme: Scheme,
    opts: &LineageOpts,
    seed: u64,
) -> Prepared {
    let workload = kmedoids_workload(n, k, iterations, scheme, opts, seed);
    let ast = parse(programs::K_MEDOIDS).expect("canonical program parses");
    let _span = telemetry::span(Phase::Build);
    let t0 = Instant::now();
    let mut tr = translate(&ast, &workload.env).expect("translation succeeds");
    targets::add_all_bool_targets(&mut tr, "Centre");
    let gp = tr.ground().expect("grounding succeeds");
    let net = Network::build(&gp).expect("network build succeeds");
    let build_seconds = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let folded = FoldedNetwork::build(&gp, &tr.outer_iter_boundaries).ok();
    let folded_build_seconds = folded.as_ref().map(|_| t1.elapsed().as_secs_f64());
    Prepared {
        workload,
        ast,
        net,
        folded,
        k,
        n,
        build_seconds,
        folded_build_seconds,
    }
}

/// Engine selector for measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Engine {
    /// Naïve per-world clustering.
    Naive,
    /// Sequential exact compilation.
    Exact,
    /// Sequential eager ε-approximation.
    Eager,
    /// Sequential lazy ε-approximation.
    Lazy,
    /// Sequential hybrid ε-approximation.
    Hybrid,
    /// Distributed hybrid approximation.
    HybridD {
        /// Worker threads.
        workers: usize,
        /// Job size `d`.
        job_depth: usize,
    },
    /// Sequential exact compilation over the folded network (§4.2).
    ExactFolded,
    /// Sequential hybrid ε-approximation over the folded network (§4.2).
    HybridFolded,
    /// OBDD knowledge compilation: exact probabilities via weighted model
    /// counting over compiled lineage (`enframe-obdd`), with the default
    /// maintenance policy (automatic GC + group sifting).
    BddExact,
    /// The OBDD backend with all automatic maintenance disabled — the
    /// static-order, never-collected baseline the reordering/GC numbers
    /// are compared against.
    BddStatic,
    /// d-DNNF knowledge compilation (`enframe::obdd::dnnf`): targets
    /// compiled with residual-state memoisation (partial-sum DP over
    /// comparison atoms, decomposable-AND factoring), probabilities by
    /// single-pass weighted model counting. The engine that breaks the
    /// Shannon-expansion wall on aggregate-comparison workloads — see
    /// [`DNNF_KMEDOIDS_VAR_CAP`] vs [`BDD_KMEDOIDS_VAR_CAP`].
    DnnfExact,
    /// [`Engine::DnnfExact`] with a parallel target fan-out and
    /// data-parallel WMC (`DnnfOptions::workers`). Same series label —
    /// the `workers` CSV column is the axis — and **bitwise-equal**
    /// probabilities to the sequential run by construction.
    DnnfPar {
        /// Worker threads (`0` = auto via `ENFRAME_WORKERS`).
        workers: usize,
    },
    /// [`Engine::BddExact`] with a parallel target fan-out over
    /// per-worker managers (`ObddOptions::workers`). Same series label;
    /// probabilities agree with the sequential run to FP roundoff (the
    /// merged manager may settle on a different variable order).
    BddPar {
        /// Worker threads (`0` = auto via `ENFRAME_WORKERS`).
        workers: usize,
    },
}

impl Engine {
    /// Series label used in figure output.
    pub fn label(&self) -> String {
        match self {
            Engine::Naive => "naive".into(),
            Engine::Exact => "exact".into(),
            Engine::Eager => "eager".into(),
            Engine::Lazy => "lazy".into(),
            Engine::Hybrid => "hybrid".into(),
            Engine::HybridD { .. } => "hybrid-d".into(),
            Engine::ExactFolded => "exact-folded".into(),
            Engine::HybridFolded => "hybrid-folded".into(),
            Engine::BddExact => "bdd-exact".into(),
            Engine::BddStatic => "bdd-static".into(),
            Engine::DnnfExact | Engine::DnnfPar { .. } => "dnnf".into(),
            Engine::BddPar { .. } => "bdd-exact".into(),
        }
    }

    /// The worker count this engine runs with, after `0 = auto`
    /// resolution — what the `workers` CSV column reports. Sequential
    /// engines report 1.
    pub fn workers(&self) -> usize {
        match self {
            Engine::HybridD { workers, .. } => enframe_core::workers::resolve(*workers, 4),
            Engine::DnnfPar { workers } | Engine::BddPar { workers } => {
                enframe_core::workers::resolve(*workers, 1)
            }
            _ => 1,
        }
    }
}

/// Outcome of one measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Wall-clock seconds (compilation only; network build is reported
    /// separately in [`Prepared::build_seconds`]).
    pub seconds: f64,
    /// Probability estimates per target, when the run completed.
    pub estimates: Option<Vec<f64>>,
    /// `ok` or a skip/timeout reason.
    pub status: String,
    /// OBDD compilation/manager statistics (BDD engines only): live and
    /// peak nodes, GC and reorder counts, table load factor.
    pub stats: Option<ObddStats>,
    /// d-DNNF compilation statistics ([`Engine::DnnfExact`] only):
    /// expansion steps (the `cmp_branches` analogue), node/edge counts.
    pub dnnf_stats: Option<DnnfStats>,
    /// Worker threads the engine ran with (after `0 = auto`
    /// resolution); 1 for the sequential engines.
    pub workers: usize,
    /// Telemetry snapshot covering exactly this measurement: counters
    /// and per-phase span aggregates, reset before the engine ran and
    /// read after it finished. All-zero when telemetry is disabled.
    pub telemetry: Option<Snapshot>,
    /// Per-target probability bounds `[L, U]` when the run produced
    /// bounds instead of (or alongside) point estimates — always set by
    /// the decision-tree engines, and by a budget-degraded run
    /// (`status == "degraded"`), whose `estimates` are the midpoints.
    pub bounds: Option<(Vec<f64>, Vec<f64>)>,
}

/// Cap on variables for the naïve baseline in harness runs (the paper's
/// naïve times out above ~25 variables; our interpreter-based baseline is
/// slower per world, so the cap sits lower — enumeration beyond it is
/// reported as `timeout`).
pub const NAIVE_VAR_CAP: usize = 16;

/// Cap on variables for sequential exact compilation in harness runs.
/// Exact exploration costs ~4× per additional variable on the positive
/// correlation scheme (measured); beyond this cap runs are reported as
/// `timeout`, mirroring the paper's 3600 s cut-off.
pub const EXACT_VAR_CAP: usize = 18;

/// Cap on variables for BDD-exact on the **k-medoids** pipeline. The
/// clustering events' comparison atoms aggregate over every point, so
/// their support spans nearly all variables and Shannon expansion costs
/// ~2^v *per atom* — the one workload shape where knowledge compilation
/// inherits the decision tree's exponent. Lineage-query pipelines
/// ([`prepare_lineage`]) carry no such cap.
///
/// Re-evaluated under the reordering manager: the wall is the
/// **expansion branch count**, not diagram size (measured on the
/// n = 16, 2-iteration pipeline: 111 k branches / 1.9 s at v = 12 vs
/// 874 k branches / 14.8 s at v = 14, with the manager peak staying
/// under 500 nodes throughout), so group sifting moves nothing here and
/// the cap stays at 12 — this is precisely the wall the d-DNNF engine
/// removes ([`Engine::DnnfExact`], [`DNNF_KMEDOIDS_VAR_CAP`]).
pub const BDD_KMEDOIDS_VAR_CAP: usize = 12;

/// Cap on variables for the d-DNNF engine on the **k-medoids** pipeline
/// — twice the OBDD cap, because residual-state memoisation collapses
/// the per-atom Shannon branch tree onto the DP over distinct
/// (support level, partial-sum) states. Measured on the same n = 16,
/// 2-iteration pipeline as [`BDD_KMEDOIDS_VAR_CAP`]'s baseline: the
/// 874 k-branch / 14.8 s Shannon compilation at v = 14 becomes 1 178
/// expansion steps / ~0.35 s (742× fewer steps), and expansion steps
/// then grow *polynomially* in v — 1 922 at v = 20, 2 124 at v = 24,
/// 4 898 at v = 40 (~1.4 s) — because the comparison atoms' sums are
/// functions of a handful of shared lineage events, not of individual
/// variables. The remaining wall is the **point count**, not v: more
/// points mean more distinct lineage groups and denser guard structure
/// (n = 32 at v = 20 takes ~100 s), so the cap guards v only, at the
/// fig-grid margin where the n = 16 pipeline stays well under a second.
pub const DNNF_KMEDOIDS_VAR_CAP: usize = 24;

/// Whether a naïve run of `2^v` worlds over `n` objects finishes within a
/// couple of minutes (measured ≈ 45 µs · n² per world for k = 2, three
/// iterations).
pub fn naive_feasible(v: usize, n: usize) -> bool {
    v <= NAIVE_VAR_CAP && (1u64 << v).saturating_mul((n * n) as u64) <= 3_000_000
}

/// A ready-made `timeout` measurement row.
pub fn timeout_measurement(reason: &str) -> Measurement {
    Measurement {
        seconds: f64::NAN,
        estimates: None,
        status: format!("timeout({reason})"),
        stats: None,
        dnnf_stats: None,
        workers: 1,
        telemetry: None,
        bounds: None,
    }
}

/// A ready-made `error` measurement row (compilation failed).
fn error_measurement(e: impl std::fmt::Display) -> Measurement {
    Measurement {
        seconds: f64::NAN,
        estimates: None,
        status: format!("error({e})"),
        stats: None,
        dnnf_stats: None,
        workers: 1,
        telemetry: None,
        bounds: None,
    }
}

/// Runs one engine over a prepared pipeline (unlimited budget).
pub fn run_engine(prep: &Prepared, engine: Engine, epsilon: f64) -> Measurement {
    run_engine_budgeted(prep, engine, epsilon, Budget::unlimited())
}

/// Runs one engine over a prepared pipeline under a resource budget.
///
/// This is the **graceful-degradation ladder** (ISSUE 8): when an exact
/// engine exhausts the budget mid-compilation, the measurement does not
/// fail — the harness falls back to the hybrid bounds engine under the
/// *same* budget (the deadline is absolute, so the fallback naturally
/// gets only the remaining time) and reports `status == "degraded"`
/// with per-target bounds `[L, U]` whose midpoints become the
/// estimates. The anytime decision-tree engines degrade in place: their
/// partial bounds are already sound, so an exhausted run keeps its own
/// bounds and is merely relabelled `degraded`.
pub fn run_engine_budgeted(
    prep: &Prepared,
    engine: Engine,
    epsilon: f64,
    budget: Budget,
) -> Measurement {
    telemetry::reset();
    let mut m = run_engine_inner(prep, engine, epsilon, budget);
    m.workers = engine.workers();
    m.telemetry = Some(telemetry::snapshot());
    m
}

fn run_engine_inner(prep: &Prepared, engine: Engine, epsilon: f64, budget: Budget) -> Measurement {
    let vt = &prep.workload.vt;
    match engine {
        Engine::Naive => run_naive(&prep.ast, &prep.workload.env, vt, prep.k, prep.n),
        Engine::Exact => {
            if vt.len() > EXACT_VAR_CAP {
                return timeout_measurement(&format!("v={}>{EXACT_VAR_CAP}", vt.len()));
            }
            let t0 = Instant::now();
            let scope = BudgetScope::new(budget);
            let res = compile_scoped(&prep.net, vt, Options::exact(), &scope);
            scope.record_telemetry();
            if res.exhausted.is_some() {
                return degrade_to_bounds(&prep.net, vt, epsilon, budget, t0);
            }
            finish(t0, res)
        }
        Engine::Eager | Engine::Lazy | Engine::Hybrid => {
            let t0 = Instant::now();
            let scope = BudgetScope::new(budget);
            let res = compile_scoped(
                &prep.net,
                vt,
                Options::approx(strategy_of(engine), epsilon),
                &scope,
            );
            scope.record_telemetry();
            finish(t0, res)
        }
        Engine::HybridD { workers, job_depth } => {
            let t0 = Instant::now();
            match compile_distributed(
                &prep.net,
                vt,
                DistOptions {
                    workers,
                    job_depth,
                    seq: Options::approx(Strategy::Hybrid, epsilon),
                    budget,
                },
            ) {
                Ok(res) => finish(t0, res),
                Err(e) => error_measurement(e),
            }
        }
        Engine::BddExact | Engine::BddStatic | Engine::BddPar { .. } => {
            if vt.len() > BDD_KMEDOIDS_VAR_CAP {
                return timeout_measurement(&format!("v={}>{BDD_KMEDOIDS_VAR_CAP}", vt.len()));
            }
            run_bdd_exact(
                &prep.net,
                vt,
                &prep.workload.var_groups,
                engine == Engine::BddStatic,
                engine.workers(),
                epsilon,
                budget,
            )
        }
        Engine::DnnfExact | Engine::DnnfPar { .. } => {
            if vt.len() > DNNF_KMEDOIDS_VAR_CAP {
                return timeout_measurement(&format!("v={}>{DNNF_KMEDOIDS_VAR_CAP}", vt.len()));
            }
            run_dnnf_exact(&prep.net, vt, engine.workers(), epsilon, budget)
        }
        Engine::ExactFolded | Engine::HybridFolded => {
            let Some(folded) = &prep.folded else {
                return timeout_measurement("program does not fold");
            };
            let opts = match engine {
                Engine::ExactFolded => {
                    if vt.len() > EXACT_VAR_CAP {
                        return timeout_measurement(&format!("v={}>{EXACT_VAR_CAP}", vt.len()));
                    }
                    Options::exact()
                }
                _ => Options::approx(Strategy::Hybrid, epsilon),
            };
            let t0 = Instant::now();
            let scope = BudgetScope::new(budget);
            let res = compile_folded_scoped(folded, vt, opts, &scope);
            scope.record_telemetry();
            if engine == Engine::ExactFolded && res.exhausted.is_some() {
                return degrade_to_bounds(&prep.net, vt, epsilon, budget, t0);
            }
            finish(t0, res)
        }
    }
}

fn finish(t0: Instant, res: CompileResult) -> Measurement {
    let seconds = t0.elapsed().as_secs_f64();
    let estimates = (0..res.lower.len()).map(|i| res.estimate(i)).collect();
    let status = if res.exhausted.is_some() {
        // The anytime engines degrade in place: an exhausted run's
        // partial bounds are still sound, only wider than requested.
        "degraded".into()
    } else {
        "ok".into()
    };
    Measurement {
        seconds,
        estimates: Some(estimates),
        status,
        stats: None,
        dnnf_stats: None,
        workers: 1,
        telemetry: None,
        bounds: Some((res.lower, res.upper)),
    }
}

/// The bottom rung of the degradation ladder: after an exact engine
/// exhausted its budget, re-run the hybrid bounds engine over the same
/// network under the *same* budget (the absolute deadline grants it
/// exactly the remaining time) and report the result as `degraded`.
/// The hybrid engine is anytime, so whatever it reaches is a sound
/// `[L, U]` enclosure of the exact answer.
fn degrade_to_bounds(
    net: &Network,
    vt: &VarTable,
    epsilon: f64,
    budget: Budget,
    t0: Instant,
) -> Measurement {
    telemetry::count(Counter::Fallback);
    let _span = telemetry::span(Phase::Degraded);
    let eps = if epsilon > 0.0 { epsilon } else { 0.1 };
    let scope = BudgetScope::new(budget);
    let res = compile_scoped(net, vt, Options::approx(Strategy::Hybrid, eps), &scope);
    scope.record_telemetry();
    let mut m = finish(t0, res);
    m.status = "degraded".into();
    m
}

fn run_naive(ast: &UserProgram, env: &ProbEnv, vt: &VarTable, k: usize, n: usize) -> Measurement {
    if vt.len() > NAIVE_VAR_CAP {
        return timeout_measurement(&format!("v={}>{NAIVE_VAR_CAP}", vt.len()));
    }
    let t0 = Instant::now();
    let res = naive_probabilities(ast, env, vt, extract::bool_matrix("Centre", k, n))
        .expect("naïve run succeeds");
    Measurement {
        seconds: t0.elapsed().as_secs_f64(),
        estimates: Some(res.probabilities),
        status: "ok".into(),
        stats: None,
        dnnf_stats: None,
        workers: 1,
        telemetry: None,
        bounds: None,
    }
}

/// A prepared **lineage-query** pipeline: the compilation targets are
/// propositional queries over the correlation lineage itself — per-group
/// existence events, windowed co-existence disjunctions, and one global
/// existence event — instead of clustering events. This is the workload
/// class knowledge compilation is built for: the mutex and conditional
/// schemes produce read-once/hierarchical events whose OBDDs stay
/// polynomial, so BDD-exact scales where decision-tree exact cannot.
pub struct LineagePrepared {
    /// The event network over the lineage targets.
    pub net: Network,
    /// Variable probabilities.
    pub vt: VarTable,
    /// Multi-valued variable groups of the lineage (adjacency hints).
    pub var_groups: Vec<Vec<Var>>,
    /// Seconds spent declaring, grounding, and building the network.
    pub build_seconds: f64,
}

/// Width of the co-existence windows in [`prepare_lineage`] targets.
pub const LINEAGE_WINDOW: usize = 4;

/// Builds a lineage-query pipeline over `n_groups` lineage groups (one
/// point per group). Targets, in order: `Exists[g]` per group, then one
/// `Any[s]` disjunction per [`LINEAGE_WINDOW`]-wide window, then a global
/// `AtLeastOne`, then one `Co[i]` **distant-pair co-existence** event per
/// pair `(i, i + n/2)` and their disjunction `AnyCo`. The co-existence
/// family asks the paper's correlation question directly — are two
/// far-apart points present in the same world? — and is the
/// order-sensitive part of the workload: on the positive scheme each
/// `Co[i]` conjoins two disjunctions over the shared variable pool, so
/// the static order interleaves the pairs badly and dynamic reordering
/// has real work to do (mutex/conditional lineage stays read-once and
/// small either way).
pub fn prepare_lineage(
    n_groups: usize,
    scheme: Scheme,
    opts: &LineageOpts,
    seed: u64,
) -> LineagePrepared {
    let opts = LineageOpts {
        group_size: 1,
        ..*opts
    };
    let corr = generate_lineage(n_groups, scheme, &opts, seed);
    let _span = telemetry::span(Phase::Build);
    let t0 = Instant::now();
    let mut p = Program::new();
    p.ensure_vars(corr.var_table.len() as u32);
    let mut idents = Vec::with_capacity(n_groups);
    for (g, phi) in corr.lineage.iter().enumerate() {
        let id = p
            .declare_closed_event(&format!("Exists{g}"), phi)
            .expect("lineage events are closed");
        p.add_target(id.clone());
        idents.push(id);
    }
    for (w, window) in idents.chunks(LINEAGE_WINDOW).enumerate() {
        let id = p.declare_event(
            &format!("Any{w}"),
            Program::or(window.iter().cloned().map(Program::eref)),
        );
        p.add_target(id);
    }
    let all = p.declare_event(
        "AtLeastOne",
        Program::or(idents.iter().cloned().map(Program::eref)),
    );
    p.add_target(all);
    let half = n_groups / 2;
    let mut pairs = Vec::with_capacity(half);
    for i in 0..half {
        let id = p.declare_event(
            &format!("Co{i}"),
            Program::and([
                Program::eref(idents[i].clone()),
                Program::eref(idents[i + half].clone()),
            ]),
        );
        p.add_target(id.clone());
        pairs.push(id);
    }
    if !pairs.is_empty() {
        let id = p.declare_event("AnyCo", Program::or(pairs.into_iter().map(Program::eref)));
        p.add_target(id);
    }
    let gp = p.ground().expect("lineage program grounds");
    let net = Network::build(&gp).expect("lineage network builds");
    LineagePrepared {
        net,
        vt: corr.var_table,
        var_groups: corr.var_groups,
        build_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Builds the **workers-axis** lineage pipeline: positive-scheme
/// lineage over `n_groups` groups (each a disjunction of 4 literals
/// from the shared pool) whose targets are dominated by overlapping
/// windowed co-existence disjunctions — one `CoWin[w]` target per
/// `window`-wide, `window/2`-strided window over the distant-pair
/// conjunctions `Co[i] = Exists[i] ∧ Exists[i + n/2]`. The shape
/// matters: [`prepare_lineage`]'s expensive target is the single
/// `AnyCo` disjunction, and one target cannot fan out, whereas this
/// pipeline yields a dozen individually expensive windows whose
/// expansion work is target-private (measured: identical total
/// expansion steps at every worker count), so the parallel target
/// fan-out ([`Engine::DnnfPar`]) distributes real work.
pub fn prepare_workers_sweep(n_groups: usize, window: usize, seed: u64) -> LineagePrepared {
    let opts = LineageOpts {
        group_size: 1,
        ..LineageOpts::default()
    };
    let corr = generate_lineage(
        n_groups,
        Scheme::Positive { l: 4, v: n_groups },
        &opts,
        seed,
    );
    let _span = telemetry::span(Phase::Build);
    let t0 = Instant::now();
    let mut p = Program::new();
    p.ensure_vars(corr.var_table.len() as u32);
    let mut idents = Vec::with_capacity(n_groups);
    for (g, phi) in corr.lineage.iter().enumerate() {
        let id = p
            .declare_closed_event(&format!("Exists{g}"), phi)
            .expect("lineage events are closed");
        p.add_target(id.clone());
        idents.push(id);
    }
    let half = n_groups / 2;
    let mut pairs = Vec::with_capacity(half);
    for i in 0..half {
        let id = p.declare_event(
            &format!("Co{i}"),
            Program::and([
                Program::eref(idents[i].clone()),
                Program::eref(idents[i + half].clone()),
            ]),
        );
        p.add_target(id.clone());
        pairs.push(id);
    }
    let window = window.max(1).min(pairs.len().max(1));
    for (w, win) in pairs
        .windows(window)
        .step_by((window / 2).max(1))
        .enumerate()
    {
        let id = p.declare_event(
            &format!("CoWin{w}"),
            Program::or(win.iter().map(|id| Program::eref(id.clone()))),
        );
        p.add_target(id);
    }
    let gp = p.ground().expect("workers-sweep program grounds");
    let net = Network::build(&gp).expect("workers-sweep network builds");
    LineagePrepared {
        net,
        vt: corr.var_table,
        var_groups: corr.var_groups,
        build_seconds: t0.elapsed().as_secs_f64(),
    }
}

/// Runs one engine over a lineage-query pipeline. Supports the
/// sequential engines ([`Engine::Exact`], the three approximations, and
/// [`Engine::BddExact`]); others report a skip.
pub fn run_lineage_engine(prep: &LineagePrepared, engine: Engine, epsilon: f64) -> Measurement {
    run_lineage_engine_budgeted(prep, engine, epsilon, Budget::unlimited())
}

/// [`run_lineage_engine`] under a resource budget, with the same
/// degradation ladder as [`run_engine_budgeted`].
pub fn run_lineage_engine_budgeted(
    prep: &LineagePrepared,
    engine: Engine,
    epsilon: f64,
    budget: Budget,
) -> Measurement {
    telemetry::reset();
    let mut m = run_lineage_engine_inner(prep, engine, epsilon, budget);
    m.workers = engine.workers();
    m.telemetry = Some(telemetry::snapshot());
    m
}

fn run_lineage_engine_inner(
    prep: &LineagePrepared,
    engine: Engine,
    epsilon: f64,
    budget: Budget,
) -> Measurement {
    let vt = &prep.vt;
    match engine {
        Engine::Exact => {
            if vt.len() > EXACT_VAR_CAP {
                return timeout_measurement(&format!("v={}>{EXACT_VAR_CAP}", vt.len()));
            }
            let t0 = Instant::now();
            let scope = BudgetScope::new(budget);
            let res = compile_scoped(&prep.net, vt, Options::exact(), &scope);
            scope.record_telemetry();
            if res.exhausted.is_some() {
                return degrade_to_bounds(&prep.net, vt, epsilon, budget, t0);
            }
            finish(t0, res)
        }
        Engine::Eager | Engine::Lazy | Engine::Hybrid => {
            let t0 = Instant::now();
            let scope = BudgetScope::new(budget);
            let res = compile_scoped(
                &prep.net,
                vt,
                Options::approx(strategy_of(engine), epsilon),
                &scope,
            );
            scope.record_telemetry();
            finish(t0, res)
        }
        Engine::BddExact => {
            run_bdd_exact(&prep.net, vt, &prep.var_groups, false, 1, epsilon, budget)
        }
        Engine::BddStatic => {
            run_bdd_exact(&prep.net, vt, &prep.var_groups, true, 1, epsilon, budget)
        }
        Engine::BddPar { .. } => run_bdd_exact(
            &prep.net,
            vt,
            &prep.var_groups,
            false,
            engine.workers(),
            epsilon,
            budget,
        ),
        Engine::DnnfExact => run_dnnf_exact(&prep.net, vt, 1, epsilon, budget),
        Engine::DnnfPar { .. } => run_dnnf_exact(&prep.net, vt, engine.workers(), epsilon, budget),
        _ => timeout_measurement("engine not applicable to lineage queries"),
    }
}

/// The decision-tree strategy behind an approximation engine selector.
fn strategy_of(engine: Engine) -> Strategy {
    match engine {
        Engine::Eager => Strategy::Eager,
        Engine::Lazy => Strategy::Lazy,
        _ => Strategy::Hybrid,
    }
}

/// Compiles a network's targets into OBDDs and counts them — the shared
/// [`Engine::BddExact`]/[`Engine::BddStatic`] measurement of
/// [`run_engine`] and [`run_lineage_engine`].
fn run_bdd_exact(
    net: &Network,
    vt: &VarTable,
    groups: &[Vec<Var>],
    static_manager: bool,
    workers: usize,
    epsilon: f64,
    budget: Budget,
) -> Measurement {
    let t0 = Instant::now();
    let base = if static_manager {
        ObddOptions::static_with_groups(groups.to_vec())
    } else {
        ObddOptions::with_groups(groups.to_vec())
    };
    let opts = ObddOptions {
        workers,
        budget,
        ..base
    };
    match ObddEngine::compile(net, &opts) {
        Ok(engine) => {
            let probs = engine.probabilities(vt);
            Measurement {
                seconds: t0.elapsed().as_secs_f64(),
                estimates: Some(probs),
                status: "ok".into(),
                stats: Some(engine.stats().clone()),
                dnnf_stats: None,
                workers: 1,
                telemetry: None,
                bounds: None,
            }
        }
        // Budget exhaustion degrades to the bounds engine; structural
        // failures (worker panics, injected faults) stay errors.
        Err(ObddError::BudgetExceeded { .. }) => degrade_to_bounds(net, vt, epsilon, budget, t0),
        Err(e) => error_measurement(e),
    }
}

/// Compiles a network's targets into d-DNNF and counts them — the
/// [`Engine::DnnfExact`] measurement shared by [`run_engine`] and
/// [`run_lineage_engine`].
fn run_dnnf_exact(
    net: &Network,
    vt: &VarTable,
    workers: usize,
    epsilon: f64,
    budget: Budget,
) -> Measurement {
    let opts = DnnfOptions {
        workers,
        budget,
        ..DnnfOptions::default()
    };
    compile_dnnf_measured(net, vt, &opts, epsilon, Instant::now()).0
}

/// Compiles the d-DNNF engine, counts under the same budget, and hands
/// the engine back alongside the measurement so the artifact-store
/// helpers can persist it. The measurement's seconds run from `t0` to
/// the end of the WMC pass — persistence is *not* included.
fn compile_dnnf_measured(
    net: &Network,
    vt: &VarTable,
    opts: &DnnfOptions,
    epsilon: f64,
    t0: Instant,
) -> (Measurement, Option<DnnfEngine>) {
    match DnnfEngine::compile(net, opts) {
        Ok(engine) => {
            // The WMC pass runs under the same (absolute) budget as
            // compilation — a deadline that expires mid-count degrades
            // to bounds exactly like one that expires mid-compile.
            match engine.try_probabilities(vt, &BudgetScope::new(opts.budget)) {
                Ok(probs) => {
                    let m = Measurement {
                        seconds: t0.elapsed().as_secs_f64(),
                        estimates: Some(probs),
                        status: "ok".into(),
                        stats: None,
                        dnnf_stats: Some(engine.stats().clone()),
                        workers: 1,
                        telemetry: None,
                        bounds: None,
                    };
                    (m, Some(engine))
                }
                Err(ObddError::BudgetExceeded { .. }) => {
                    (degrade_to_bounds(net, vt, epsilon, opts.budget, t0), None)
                }
                Err(e) => (error_measurement(e), None),
            }
        }
        // Budget exhaustion degrades to the bounds engine; structural
        // failures (worker panics, injected faults) stay errors.
        Err(ObddError::BudgetExceeded { .. }) => {
            (degrade_to_bounds(net, vt, epsilon, opts.budget, t0), None)
        }
        Err(e) => (error_measurement(e), None),
    }
}

/// The **cold** half of the warm-cache measurement (ISSUE 9): probes
/// the artifact store under the pipeline's lineage fingerprint (the
/// expected miss is part of the protocol — and of the telemetry
/// contract CI asserts), compiles the d-DNNF engine under `budget`,
/// and persists the artifact crash-safely. The reported seconds cover
/// compile + WMC only, so the warm row divides out like-for-like.
pub fn run_dnnf_cold_store(
    prep: &Prepared,
    store: &ArtifactStore,
    epsilon: f64,
    budget: Budget,
) -> Measurement {
    telemetry::reset();
    let vt = &prep.workload.vt;
    let opts = DnnfOptions {
        budget,
        ..DnnfOptions::default()
    };
    let fp = fingerprint_dnnf(&prep.net, &opts);
    let _ = store.load_dnnf(fp, 1);
    let t0 = Instant::now();
    let (mut m, engine) = compile_dnnf_measured(&prep.net, vt, &opts, epsilon, t0);
    if let Some(engine) = engine {
        // A failed save must not fail the measurement: the next load
        // will simply miss and recompile — the same ladder the chaos
        // suite drives deliberately.
        let _ = store.save_dnnf(fp, &engine, vt);
    }
    m.workers = 1;
    m.telemetry = Some(telemetry::snapshot());
    m
}

/// The **warm** half: loads the artifact saved by
/// [`run_dnnf_cold_store`] — paying the zero-trust revalidation (frame
/// checksums, structural invariants, WMC digest) — and counts. On *any*
/// store failure (miss, corruption, version skew, fingerprint mismatch,
/// I/O fault) it walks the recovery ladder instead of failing:
/// recompile under the same budget, re-persist, and degrade to bounds
/// only if the budget is exhausted too.
pub fn run_dnnf_warm_store(
    prep: &Prepared,
    store: &ArtifactStore,
    epsilon: f64,
    budget: Budget,
) -> Measurement {
    telemetry::reset();
    let vt = &prep.workload.vt;
    let opts = DnnfOptions {
        budget,
        ..DnnfOptions::default()
    };
    let fp = fingerprint_dnnf(&prep.net, &opts);
    let t0 = Instant::now();
    let mut m = match store.load_dnnf(fp, 1) {
        Ok(engine) => match engine.try_probabilities(vt, &BudgetScope::new(budget)) {
            Ok(probs) => Measurement {
                seconds: t0.elapsed().as_secs_f64(),
                estimates: Some(probs),
                status: "ok".into(),
                stats: None,
                dnnf_stats: Some(engine.stats().clone()),
                workers: 1,
                telemetry: None,
                bounds: None,
            },
            Err(ObddError::BudgetExceeded { .. }) => {
                degrade_to_bounds(&prep.net, vt, epsilon, budget, t0)
            }
            Err(e) => error_measurement(e),
        },
        Err(_) => {
            // Recovery: recompile and repair the cache entry.
            let (m, engine) = compile_dnnf_measured(&prep.net, vt, &opts, epsilon, t0);
            if let Some(engine) = engine {
                let _ = store.save_dnnf(fp, &engine, vt);
            }
            m
        }
    };
    m.workers = 1;
    m.telemetry = Some(telemetry::snapshot());
    m
}

/// Serving mode of [`run_serve_throughput`] — the three lines of the
/// `serve` figure (ISSUE 10).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// The memory tier is flushed before every request, so each query
    /// re-resolves through the store tier: a crash-safe reload with
    /// zero-trust revalidation per query. The baseline the warm
    /// memory-tier hit is measured against.
    Cold,
    /// Warm memory tier, zero admission window: every request is a
    /// mem-tier hit followed by its own solo WMC sweep.
    Unbatched,
    /// Warm memory tier with an open admission window: requests
    /// arriving together share one sweep (and its warm WMC cache).
    Batched,
}

impl ServeMode {
    /// The `mode=…` label of the serve figure's x key.
    pub fn label(&self) -> &'static str {
        match self {
            ServeMode::Cold => "cold",
            ServeMode::Unbatched => "unbatched",
            ServeMode::Batched => "batched",
        }
    }
}

/// Admission window of the batched serve mode. Short enough that a
/// single batch costs little latency, long enough that barrier-started
/// clients reliably co-arrive inside it.
pub const SERVE_BATCH_WINDOW: Duration = Duration::from_millis(2);

/// One serve-throughput measurement: `clients` threads each issuing
/// `per_client` queries against one shared [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServeThroughput {
    /// Wall-clock seconds from the start barrier to the last reply.
    pub seconds: f64,
    /// Queries per second: `clients * per_client / seconds`.
    pub qps: f64,
    /// Total queries answered (= `clients * per_client`).
    pub queries: usize,
    /// Mean batch size over all replies (1.0 when nothing batched).
    pub mean_batch: f64,
    /// Telemetry snapshot covering exactly this run.
    pub telemetry: Option<Snapshot>,
}

/// Measures query throughput of the serving layer (ISSUE 10): `clients`
/// barrier-started threads issue `per_client` queries each for the
/// network's d-DNNF lineage against one [`QueryService`] backed by
/// `store`, in the given [`ServeMode`]. Warm modes resolve the artifact
/// once before the clock starts, so the measured loop isolates the
/// serving path (mem-tier hit + sweep, shared or solo); the cold mode
/// flushes the memory tier before every request, so each query pays the
/// store tier's reload-and-revalidate path — reusing the artifact the
/// probe's store section already persisted instead of recompiling.
pub fn run_serve_throughput(
    net: &Network,
    vt: &VarTable,
    store: &ArtifactStore,
    clients: usize,
    per_client: usize,
    mode: ServeMode,
) -> ServeThroughput {
    telemetry::reset();
    let lineage = Lineage::dnnf(Arc::new(net.clone()), DnnfOptions::default());
    let svc = Arc::new(QueryService::new(ServeOptions {
        batch_window: match mode {
            ServeMode::Batched => SERVE_BATCH_WINDOW,
            _ => Duration::ZERO,
        },
        store: Some(store.clone()),
        ..ServeOptions::default()
    }));
    // Resolve once outside the clock: warm modes then serve every
    // measured query from the memory tier, and the cold mode's
    // per-query reloads hit a store entry that is guaranteed present.
    let warmup = svc
        .query(&lineage, vt, Budget::unlimited())
        .expect("serve warmup resolves");
    assert!(
        matches!(warmup.answer, Answer::Exact(_)),
        "unlimited warmup must serve exactly"
    );
    let barrier = Arc::new(Barrier::new(clients + 1));
    let queries = clients * per_client;
    let (batch_sum, seconds) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let svc = Arc::clone(&svc);
                let lineage = lineage.clone();
                let vt = vt.clone();
                let barrier = Arc::clone(&barrier);
                s.spawn(move || {
                    barrier.wait();
                    let mut sizes = 0usize;
                    for _ in 0..per_client {
                        if mode == ServeMode::Cold {
                            svc.flush();
                        }
                        let reply = svc
                            .query(&lineage, &vt, Budget::unlimited())
                            .expect("serve throughput query");
                        assert!(
                            matches!(reply.answer, Answer::Exact(_)),
                            "unlimited serve queries must answer exactly"
                        );
                        sizes += reply.batch_size;
                    }
                    sizes
                })
            })
            .collect();
        // The clock starts before the release: clients cannot pass the
        // barrier until this thread arrives, and starting it afterwards
        // would race the clients on a loaded host (they can finish
        // before the releasing thread is rescheduled to read the time).
        let t0 = Instant::now();
        barrier.wait();
        let mut sum = 0usize;
        for h in handles {
            sum += h.join().expect("serve client thread");
        }
        (sum, t0.elapsed().as_secs_f64())
    });
    ServeThroughput {
        seconds,
        qps: queries as f64 / seconds,
        queries,
        mean_batch: batch_sum as f64 / queries as f64,
        telemetry: Some(telemetry::snapshot()),
    }
}

/// The `"stats"` JSON object of a measurement — the single serialiser
/// behind both `BENCH_probe.json` and any future exporter, so the
/// knowledge-compilation stat keys exist in exactly one place. OBDD
/// measurements carry the manager counters (including the
/// `peak_bytes` footprint estimate), d-DNNF measurements the
/// expansion/memo counters; `None` for engines with neither.
pub fn stats_json(m: &Measurement) -> Option<String> {
    if let Some(s) = &m.stats {
        let mg = &s.manager;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"live_nodes\": {}, \"peak_nodes\": {}, \"peak_bytes\": {}, \"gc_runs\": {}, \
             \"reorders\": {}, \"load_factor\": {:.3}, \"cmp_branches\": {}}}",
            mg.live_nodes,
            mg.peak_nodes,
            mg.peak_bytes,
            mg.gc_runs,
            mg.reorders,
            mg.load_factor,
            s.cmp_branches
        );
        return Some(out);
    }
    m.dnnf_stats.as_ref().map(|d| {
        format!(
            "{{\"cmp_branches\": {}, \"dnnf_nodes\": {}, \"dnnf_edges\": {}, \"memo_hits\": {}}}",
            d.expansion_steps, d.nodes, d.edges, d.memo_hits
        )
    })
}

/// The `"telemetry"` JSON object of a measurement: the fixed-key
/// [`Snapshot`] serialisation, shared by every exporter.
pub fn telemetry_json(m: &Measurement) -> Option<String> {
    m.telemetry.as_ref().map(Snapshot::to_json)
}

/// Prints the CSV header used by all figure binaries. The trailing
/// columns carry knowledge-compilation statistics and stay empty for
/// engines that do not produce them: six OBDD manager columns
/// (including the `peak_bytes` footprint estimate), then
/// `cmp_branches` (Shannon branches for the BDD engines, expansion
/// steps for the d-DNNF engine — the directly comparable pair), the
/// d-DNNF node/edge counts, and eighteen telemetry columns distilled
/// from the per-measurement [`Snapshot`] (cache hits, the compile/WMC
/// phase split, the budget-governance triple: safe-point checks taken,
/// cancellations observed, degradation fallbacks, the artifact-store
/// quadruple: hits, misses, corruptions, revalidations, and the serving
/// septet: mem-tier hits/misses, single-flight coalesces, batches and
/// batched queries, epoch swings, and the queue-depth high-water mark).
pub fn print_header() {
    println!(
        "figure,series,x,seconds,status,detail,workers,live_nodes,peak_nodes,peak_bytes,gc_runs,reorders,load_factor,cmp_branches,dnnf_nodes,dnnf_edges,ite_hits,memo_hits,phase_compile_s,phase_wmc_s,budget_checks,cancellations,fallbacks,store_hits,store_misses,store_corruptions,store_revalidations,serve_mem_hits,serve_mem_misses,serve_coalesces,serve_batches,serve_batched_queries,serve_epoch_swings,serve_queue_depth"
    );
}

/// Prints one CSV measurement row (with the stat columns the
/// measurement carries).
pub fn print_row(figure: &str, series: &str, x: &str, m: &Measurement, detail: &str) {
    let secs = if m.seconds.is_nan() {
        "".to_string()
    } else {
        format!("{:.6}", m.seconds)
    };
    let stats = match (&m.stats, &m.dnnf_stats) {
        (Some(s), _) => format!(
            "{},{},{},{},{},{:.3},{},,",
            s.manager.live_nodes,
            s.manager.peak_nodes,
            s.manager.peak_bytes,
            s.manager.gc_runs,
            s.manager.reorders,
            s.manager.load_factor,
            s.cmp_branches
        ),
        (None, Some(d)) => format!(",,,,,,{},{},{}", d.expansion_steps, d.nodes, d.edges),
        (None, None) => ",,,,,,,,".into(),
    };
    let tel = match &m.telemetry {
        Some(t) => format!(
            "{},{},{:.6e},{:.6e},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            t.counter(Counter::IteHit),
            t.counter(Counter::MemoHit),
            t.compile_seconds(),
            t.phase_seconds(Phase::Wmc),
            t.counter(Counter::BudgetCheck),
            t.counter(Counter::Cancellation),
            t.counter(Counter::Fallback),
            t.counter(Counter::StoreHit),
            t.counter(Counter::StoreMiss),
            t.counter(Counter::StoreCorruption),
            t.counter(Counter::StoreRevalidation),
            t.counter(Counter::ServeMemHit),
            t.counter(Counter::ServeMemMiss),
            t.counter(Counter::ServeCoalesce),
            t.counter(Counter::ServeBatch),
            t.counter(Counter::ServeBatchedQuery),
            t.counter(Counter::ServeEpochSwing),
            t.counter(Counter::ServeQueueDepth)
        ),
        None => ",,,,,,,,,,,,,,,,,".into(),
    };
    println!(
        "{figure},{series},{x},{secs},{},{detail},{},{stats},{tel}",
        m.status, m.workers
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

    /// Telemetry is process-global and every harness entry point resets
    /// it, so a test that asserts on counters runs alone
    /// ([`counters_asserted`]) and every other test that runs a harness
    /// entry point holds the lock shared ([`counters_reset`]).
    static TELEMETRY: RwLock<()> = RwLock::new(());

    fn counters_reset() -> RwLockReadGuard<'static, ()> {
        TELEMETRY.read().unwrap_or_else(|e| e.into_inner())
    }

    fn counters_asserted() -> RwLockWriteGuard<'static, ()> {
        TELEMETRY.write().unwrap_or_else(|e| e.into_inner())
    }

    fn tiny_prep() -> Prepared {
        prepare(
            12,
            2,
            2,
            Scheme::Positive { l: 2, v: 6 },
            &LineageOpts::default(),
            42,
        )
    }

    #[test]
    fn pipeline_builds_and_targets_match() {
        let prep = tiny_prep();
        assert_eq!(prep.net.targets.len(), 2 * 12, "Centre targets: k × n");
        assert!(prep.net.len() > 50);
    }

    /// The headline correctness claim: naïve, exact, and the three
    /// approximations agree (the approximations within ε).
    #[test]
    fn engines_agree_on_small_workload() {
        let _t = counters_reset();
        let prep = tiny_prep();
        let naive = run_engine(&prep, Engine::Naive, 0.0);
        let exact = run_engine(&prep, Engine::Exact, 0.0);
        let nv = naive.estimates.unwrap();
        let ev = exact.estimates.unwrap();
        assert_eq!(nv.len(), ev.len());
        for i in 0..nv.len() {
            assert!(
                (nv[i] - ev[i]).abs() < 1e-9,
                "target {i}: naive {} vs exact {}",
                nv[i],
                ev[i]
            );
        }
        let eps = 0.1;
        for engine in [Engine::Eager, Engine::Lazy, Engine::Hybrid] {
            let a = run_engine(&prep, engine, eps).estimates.unwrap();
            for i in 0..ev.len() {
                assert!(
                    (a[i] - ev[i]).abs() <= eps + 1e-9,
                    "{engine:?} target {i}: {} vs {}",
                    a[i],
                    ev[i]
                );
            }
        }
        let d = run_engine(
            &prep,
            Engine::HybridD {
                workers: 2,
                job_depth: 3,
            },
            eps,
        )
        .estimates
        .unwrap();
        for i in 0..ev.len() {
            assert!((d[i] - ev[i]).abs() <= eps + 1e-9);
        }
    }

    /// The folded engines agree with their unfolded counterparts.
    #[test]
    fn folded_engines_agree() {
        let _t = counters_reset();
        let prep = tiny_prep();
        assert!(prep.folded.is_some(), "2 iterations fold");
        let exact = run_engine(&prep, Engine::Exact, 0.0).estimates.unwrap();
        let folded = run_engine(&prep, Engine::ExactFolded, 0.0)
            .estimates
            .unwrap();
        for i in 0..exact.len() {
            assert!((exact[i] - folded[i]).abs() < 1e-9, "target {i}");
        }
        let eps = 0.1;
        let hf = run_engine(&prep, Engine::HybridFolded, eps)
            .estimates
            .unwrap();
        for i in 0..exact.len() {
            assert!((hf[i] - exact[i]).abs() <= eps + 1e-9);
        }
        // The folded base network is strictly smaller than the unfolded
        // network whenever more than one iteration folds.
        let f = prep.folded.as_ref().unwrap();
        assert!(f.len() < prep.net.len());
    }

    /// The OBDD backend is a first-class engine: on the same prepared
    /// k-medoids pipeline it must reproduce the decision-tree exact
    /// probabilities to 1e-9.
    #[test]
    fn bdd_exact_matches_tree_exact_on_kmedoids() {
        let _t = counters_reset();
        let prep = tiny_prep();
        let exact = run_engine(&prep, Engine::Exact, 0.0).estimates.unwrap();
        let bdd = run_engine(&prep, Engine::BddExact, 0.0);
        assert_eq!(bdd.status, "ok");
        let bv = bdd.estimates.unwrap();
        assert_eq!(bv.len(), exact.len());
        for i in 0..exact.len() {
            assert!(
                (bv[i] - exact[i]).abs() < 1e-9,
                "target {i}: bdd {} vs exact {}",
                bv[i],
                exact[i]
            );
        }
    }

    #[test]
    fn lineage_pipeline_engines_agree() {
        let _t = counters_reset();
        for scheme in [
            Scheme::Positive { l: 3, v: 8 },
            Scheme::Mutex { m: 4 },
            Scheme::Conditional,
        ] {
            let prep = prepare_lineage(6, scheme, &LineageOpts::default(), 11);
            let exact = run_lineage_engine(&prep, Engine::Exact, 0.0)
                .estimates
                .unwrap();
            let bdd = run_lineage_engine(&prep, Engine::BddExact, 0.0)
                .estimates
                .unwrap();
            let dnnf = run_lineage_engine(&prep, Engine::DnnfExact, 0.0)
                .estimates
                .unwrap();
            assert_eq!(exact.len(), bdd.len());
            assert_eq!(exact.len(), dnnf.len());
            for i in 0..exact.len() {
                assert!(
                    (exact[i] - bdd[i]).abs() < 1e-9,
                    "{scheme:?} target {i}: exact {} vs bdd {}",
                    exact[i],
                    bdd[i]
                );
                assert!(
                    (exact[i] - dnnf[i]).abs() < 1e-9,
                    "{scheme:?} target {i}: exact {} vs dnnf {}",
                    exact[i],
                    dnnf[i]
                );
            }
            let hybrid = run_lineage_engine(&prep, Engine::Hybrid, 0.1)
                .estimates
                .unwrap();
            for i in 0..exact.len() {
                assert!((hybrid[i] - exact[i]).abs() <= 0.1 + 1e-9);
            }
        }
    }

    /// The headline of this backend: on the k-medoids
    /// aggregate-comparison workload the d-DNNF engine reproduces the
    /// decision-tree exact probabilities with orders of magnitude fewer
    /// expansion steps than the Shannon path's branch count.
    #[test]
    fn dnnf_matches_tree_exact_on_kmedoids_and_collapses_branches() {
        let _t = counters_reset();
        let prep = tiny_prep();
        let exact = run_engine(&prep, Engine::Exact, 0.0).estimates.unwrap();
        let dnnf = run_engine(&prep, Engine::DnnfExact, 0.0);
        assert_eq!(dnnf.status, "ok");
        let dv = dnnf.estimates.unwrap();
        assert_eq!(dv.len(), exact.len());
        for i in 0..exact.len() {
            assert!(
                (dv[i] - exact[i]).abs() < 1e-9,
                "target {i}: dnnf {} vs exact {}",
                dv[i],
                exact[i]
            );
        }
        let bdd = run_engine(&prep, Engine::BddExact, 0.0);
        let steps = dnnf.dnnf_stats.unwrap().expansion_steps;
        let branches = bdd.stats.unwrap().cmp_branches;
        assert!(
            steps * 10 <= branches,
            "residual-state memoisation must collapse the branch tree: \
             {steps} dnnf steps vs {branches} Shannon branches"
        );
    }

    /// The raised d-DNNF cap: the aggregate-comparison pipeline compiles
    /// past the old v = 12 Shannon cap, and the caps gate as documented.
    #[test]
    fn dnnf_cap_is_raised_past_the_shannon_wall() {
        let _t = counters_reset();
        let cap = DNNF_KMEDOIDS_VAR_CAP;
        assert!(cap >= 20, "the d-DNNF cap must stay past the ISSUE bound");
        let prep = prepare(
            16,
            2,
            2,
            Scheme::Positive { l: 8, v: 14 },
            &LineageOpts::default(),
            7,
        );
        let bdd = run_engine(&prep, Engine::BddExact, 0.0);
        assert!(
            bdd.status.starts_with("timeout"),
            "v=14 must exceed the Shannon cap, got {}",
            bdd.status
        );
        let dnnf = run_engine(&prep, Engine::DnnfExact, 0.0);
        assert_eq!(dnnf.status, "ok");
        let stats = dnnf.dnnf_stats.unwrap();
        // The recorded Shannon baseline at v = 14 is 874 k branches; the
        // DP must be at least 50× below it (measured: ~1.2 k).
        assert!(
            stats.expansion_steps <= 874_000 / 50,
            "expansion steps regressed: {}",
            stats.expansion_steps
        );
    }

    #[test]
    fn caps_report_timeouts() {
        let _t = counters_reset();
        let prep = prepare(
            96,
            2,
            1,
            Scheme::Positive { l: 4, v: 40 },
            &LineageOpts::default(),
            1,
        );
        let naive = run_engine(&prep, Engine::Naive, 0.0);
        assert!(naive.status.starts_with("timeout"));
        let exact = run_engine(&prep, Engine::Exact, 0.0);
        assert!(exact.status.starts_with("timeout"));
    }

    /// ISSUE 8 acceptance: the v = 24 k-medoids query — far past the
    /// decision-tree horizon — under a 50 ms deadline must return a
    /// *valid bounds answer containing the exact probabilities* instead
    /// of hanging. The exact reference comes from the unbudgeted d-DNNF
    /// engine (v = 24 is within its cap).
    #[test]
    fn tiny_budget_v24_returns_containing_bounds() {
        let _t = counters_asserted();
        // The governance counters only record while telemetry is on.
        telemetry::set_enabled(true);
        let prep = prepare(
            16,
            2,
            2,
            Scheme::Positive { l: 8, v: 24 },
            &LineageOpts::default(),
            7,
        );
        let exact = run_engine(&prep, Engine::DnnfExact, 0.0);
        assert_eq!(exact.status, "ok");
        let exact = exact.estimates.unwrap();
        let budget = Budget {
            // The step cap keeps the outcome deterministic on hosts
            // fast enough to finish inside 50 ms (the unbudgeted
            // compile needs ~2.1 k expansion steps).
            max_steps: Some(500),
            ..Budget::with_timeout(std::time::Duration::from_millis(50))
        };
        let t0 = Instant::now();
        let m = run_engine_budgeted(&prep, Engine::DnnfExact, 0.1, budget);
        assert!(
            t0.elapsed().as_secs_f64() < 5.0,
            "budgeted run failed to stop promptly"
        );
        assert_eq!(m.status, "degraded", "expected degradation, got {m:?}");
        let (lo, hi) = m.bounds.expect("degraded run must carry bounds");
        assert_eq!(lo.len(), exact.len());
        for i in 0..exact.len() {
            assert!(
                lo[i] <= exact[i] + 1e-9 && exact[i] <= hi[i] + 1e-9,
                "target {i}: exact {} not in [{}, {}]",
                exact[i],
                lo[i],
                hi[i]
            );
            assert!((0.0..=1.0 + 1e-9).contains(&lo[i]) && hi[i] <= 1.0 + 1e-9);
        }
        let tel = m.telemetry.unwrap();
        assert!(tel.counter(Counter::BudgetCheck) > 0);
        assert!(tel.counter(Counter::Cancellation) > 0);
        assert!(tel.counter(Counter::Fallback) > 0);
    }

    /// The serve harness measures all three modes on one store-backed
    /// service and the batched replies really share sweeps.
    #[test]
    fn serve_throughput_modes_measure_and_batch() {
        let _t = counters_asserted();
        telemetry::set_enabled(true);
        let prep = tiny_prep();
        let root = std::env::temp_dir().join(format!("enframe-bench-serve-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = ArtifactStore::new(&root);
        let vt = &prep.workload.vt;
        for mode in [ServeMode::Cold, ServeMode::Unbatched, ServeMode::Batched] {
            let t = run_serve_throughput(&prep.net, vt, &store, 2, 3, mode);
            assert_eq!(t.queries, 6, "{mode:?}");
            assert!(t.qps > 0.0 && t.seconds > 0.0, "{mode:?}: {t:?}");
            assert!(t.mean_batch >= 1.0, "{mode:?}: {t:?}");
            let tel = t.telemetry.as_ref().unwrap();
            match mode {
                ServeMode::Cold => assert!(
                    tel.counter(Counter::StoreHit) >= 1,
                    "cold queries must reload through the store tier: {tel:?}"
                ),
                ServeMode::Unbatched | ServeMode::Batched => assert!(
                    tel.counter(Counter::ServeMemHit) >= 6,
                    "{mode:?} queries must hit the memory tier: {tel:?}"
                ),
            }
            if mode == ServeMode::Batched {
                assert!(
                    tel.counter(Counter::ServeBatch) >= 1,
                    "batched mode never formed a batch: {tel:?}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    mod degradation_ladder {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(12))]

            /// The degradation-ladder invariant, over all three
            /// correlation schemes and arbitrary step budgets: a
            /// budgeted exact run either completes — with estimates
            /// bitwise-equal to the unbudgeted run — or degrades to
            /// bounds that contain the exact answer. Never an error,
            /// never a panic, never a silently wrong point estimate.
            #[test]
            fn any_budget_is_exact_or_containing_bounds(
                scheme_ix in 0usize..3,
                max_steps in 1u64..4_000,
                seed in 0u64..100,
            ) {
                let _t = counters_reset();
                let scheme = [
                    Scheme::Positive { l: 3, v: 8 },
                    Scheme::Mutex { m: 4 },
                    Scheme::Conditional,
                ][scheme_ix];
                let prep = prepare_lineage(6, scheme, &LineageOpts::default(), seed);
                let exact = run_lineage_engine(&prep, Engine::Exact, 0.0);
                prop_assert_eq!(&exact.status, "ok");
                let exact = exact.estimates.unwrap();
                let budget = Budget {
                    max_steps: Some(max_steps),
                    ..Budget::unlimited()
                };
                let m = run_lineage_engine_budgeted(&prep, Engine::Exact, 0.0, budget);
                if m.status == "ok" {
                    let got = m.estimates.as_ref().unwrap();
                    for i in 0..exact.len() {
                        prop_assert_eq!(
                            got[i].to_bits(),
                            exact[i].to_bits(),
                            "{:?} steps={} target {}: completed run must be bitwise-exact",
                            scheme, max_steps, i
                        );
                    }
                } else {
                    prop_assert_eq!(&m.status, "degraded", "unexpected status: {:?}", m);
                    let (lo, hi) = m.bounds.as_ref().expect("degraded run carries bounds");
                    for i in 0..exact.len() {
                        prop_assert!(
                            lo[i] <= exact[i] + 1e-9 && exact[i] <= hi[i] + 1e-9,
                            "{:?} steps={} target {}: exact {} not in [{}, {}]",
                            scheme, max_steps, i, exact[i], lo[i], hi[i]
                        );
                    }
                }
            }
        }
    }
}
