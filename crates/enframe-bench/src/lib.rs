//! # enframe-bench — the paper's evaluation (§5) as one table of sweeps
//!
//! The paper's evaluation has no numbered tables; its results are Figures
//! 6–9 plus a set of "further findings" sweeps. The one binary,
//! `figures`, holds them as a table of named sweeps (`fig6_left`,
//! `fig6_right`, `fig7_mutex`, `fig7_conditional`, `fig8_certain`,
//! `fig9_workers`, `fig_bdd`, `ablations`): each is a grid of prepared
//! scenarios ([`Prepared`]) crossed with a list of [`Engine`]s, run by
//! the one runner ([`run_engine`]) through the one loop ([`sweep`]) and
//! printed as CSV rows under [`CSV_HEADER`]. `figures <name>…` runs the
//! named sweeps, `figures all` every one, no argument lists them.
//! Performance numbers are **not** this crate's business — the repo's
//! perf ledger is `benchmark/` (`BENCHMARK.json`); what lives here are
//! the paper's shapes and the helpers the facade's equivalence suites
//! import ([`prepare_lineage`], [`run_engine`], [`Engine`]).
//!
//! The sweeps default to a *smoke* grid that preserves every series and
//! crossover but finishes in minutes; set `ENFRAME_BENCH_FULL=1` for the
//! paper-scale grid (hours). Infeasible configurations (e.g. the naïve
//! baseline beyond the world-enumeration cap) are reported as `timeout`,
//! mirroring the paper's 3600 s timeout line. Figures 8/9 lower the
//! variable count in smoke mode (v = 14/16 instead of the paper's 30):
//! fully-uncertain positive lineage costs ~5× per extra variable past the
//! ε = 0.1 pruning horizon on this engine, and the reproduced shapes
//! (certain-fraction speedup, job-granularity trade-off) are insensitive
//! to v.

use enframe_core::budget::{Budget, BudgetScope};
use enframe_core::{EventId, Program, Var, VarTable};
use enframe_data::{generate_lineage, kmedoids_workload, Correlations, LineageOpts, Scheme};
use enframe_lang::{parse, programs, UserProgram};
use enframe_network::Network;
use enframe_obdd::dnnf::{DnnfEngine, DnnfOptions, DnnfStats};
use enframe_obdd::{ObddEngine, ObddError, ObddOptions, ObddStats};
use enframe_prob::{
    compile_distributed, compile_scoped, degrade_to_bounds, CompileResult, DistOptions, Options,
    Strategy,
};
use enframe_telemetry::{self as telemetry, Counter, Phase, Snapshot};
use enframe_translate::{targets, translate, ProbEnv};
use enframe_worlds::{extract, naive_probabilities};
use std::time::Instant;

/// Whether the paper-scale grid was requested.
pub fn full_scale() -> bool {
    std::env::var("ENFRAME_BENCH_FULL").is_ok_and(|v| v == "1")
}

/// A prepared scenario: an event network with its compilation targets,
/// the variable probabilities, and what the engines need to know about
/// where it came from. [`prepare`] builds the k-medoids pipeline
/// (medoid-selection `Centre` targets, as in the paper's benchmarks);
/// [`prepare_lineage`] and [`prepare_workers_sweep`] build
/// lineage-query pipelines, which have no user program behind them.
pub struct Prepared {
    /// The event network.
    pub net: Network,
    /// Variable probabilities.
    pub vt: VarTable,
    /// Multi-valued variable groups of the lineage (adjacency hints for
    /// the OBDD backend).
    pub var_groups: Vec<Vec<Var>>,
    /// Seconds spent translating/declaring + grounding + building the
    /// network.
    pub build_seconds: f64,
    /// The user program the network was translated from — what
    /// [`Engine::Naive`] executes per world. `None` for lineage-query
    /// pipelines.
    pub source: Option<Source>,
    /// Variable cap for the OBDD and d-DNNF engines on this scenario
    /// (`usize::MAX` = none): [`DNNF_KMEDOIDS_VAR_CAP`] for the
    /// k-medoids pipeline, none for lineage queries. The two compiled
    /// forms share it because they share the expander of comparison
    /// atoms.
    pub dnnf_var_cap: usize,
}

/// The user program and data behind a [`Prepared`] k-medoids pipeline.
pub struct Source {
    /// Parsed user program.
    pub ast: UserProgram,
    /// The probabilistic environment it runs in.
    pub env: ProbEnv,
    /// Number of clusters.
    pub k: usize,
    /// Number of objects.
    pub n: usize,
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
    Prepared {
        net,
        vt: workload.vt,
        var_groups: workload.var_groups,
        build_seconds,
        source: Some(Source {
            ast,
            env: workload.env,
            k,
            n,
        }),
        dnnf_var_cap: DNNF_KMEDOIDS_VAR_CAP,
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
    /// single-pass weighted model counting. Its DP is also how the OBDD
    /// engines expand comparison atoms, so both run to
    /// [`DNNF_KMEDOIDS_VAR_CAP`] on the k-medoids pipeline.
    DnnfExact,
    /// [`Engine::DnnfExact`] with a parallel target fan-out and
    /// data-parallel WMC (`DnnfOptions::workers`). Same series label —
    /// the `workers` CSV column is the axis — and **bitwise-equal**
    /// probabilities to the sequential run by construction.
    DnnfPar {
        /// Worker threads (`0` = auto via `ENFRAME_WORKERS`).
        workers: usize,
    },
}

impl Engine {
    /// Series label used in figure output.
    pub fn label(&self) -> &'static str {
        match self {
            Engine::Naive => "naive",
            Engine::Exact => "exact",
            Engine::Eager => "eager",
            Engine::Lazy => "lazy",
            Engine::Hybrid => "hybrid",
            Engine::HybridD { .. } => "hybrid-d",
            Engine::BddExact => "bdd-exact",
            Engine::BddStatic => "bdd-static",
            Engine::DnnfExact | Engine::DnnfPar { .. } => "dnnf",
        }
    }

    /// The worker count this engine runs with, after `0 = auto`
    /// resolution — what the `workers` CSV column reports. Sequential
    /// engines report 1.
    pub fn workers(&self) -> usize {
        match self {
            Engine::HybridD { workers, .. } => enframe_core::workers::resolve(*workers, 4),
            Engine::DnnfPar { workers } => enframe_core::workers::resolve(*workers, 1),
            _ => 1,
        }
    }
}

/// Outcome of one measurement.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Wall-clock seconds (compilation only; network build is reported
    /// separately in [`Prepared::build_seconds`]); NaN when nothing ran.
    pub seconds: f64,
    /// Probability estimates per target, when the run completed.
    pub estimates: Option<Vec<f64>>,
    /// `ok` or a skip/timeout reason.
    pub status: String,
    /// OBDD compilation/manager statistics (BDD engines only): live and
    /// peak nodes, GC and reorder counts, table load factor.
    pub stats: Option<ObddStats>,
    /// d-DNNF compilation statistics ([`Engine::DnnfExact`] only):
    /// expansion steps (what the OBDD engines report as `cmp_branches`),
    /// node/edge counts.
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

impl Measurement {
    /// A measurement that carries only a time and a status — the base
    /// every engine result is built on, and the whole of a skipped,
    /// failed or hand-timed row.
    pub fn bare(seconds: f64, status: impl Into<String>) -> Measurement {
        Measurement {
            seconds,
            estimates: None,
            status: status.into(),
            stats: None,
            dnnf_stats: None,
            workers: 1,
            telemetry: None,
            bounds: None,
        }
    }
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

/// Cap on variables for the compiled engines (d-DNNF and OBDD) on the
/// **k-medoids** pipeline. The comparison atoms' support spans nearly
/// all variables, but their sums are functions of a handful of shared
/// lineage events, so the residual-state DP that expands them for both
/// forms grows *polynomially* in v (n = 16, 2 iterations: 1 178 steps
/// at v = 14, 2 124 at v = 24, 4 898 at v = 40 in ~1.4 s). The wall is
/// the **point count** (n = 32 at v = 20 takes ~100 s), so the cap sits
/// where the n = 16 pipeline stays well under a second.
pub const DNNF_KMEDOIDS_VAR_CAP: usize = 24;

/// Whether a naïve run of `2^v` worlds over `n` objects finishes within a
/// couple of minutes (measured ≈ 45 µs · n² per world for k = 2, three
/// iterations).
pub fn naive_feasible(v: usize, n: usize) -> bool {
    v <= NAIVE_VAR_CAP && (1u64 << v).saturating_mul((n * n) as u64) <= 3_000_000
}

/// Runs one engine over a prepared scenario under a resource budget —
/// the one runner behind every figure row and every facade equivalence
/// suite. A configuration the engine cannot finish in harness time is
/// not run but reported as `timeout(<reason>)`: the naïve baseline
/// beyond [`naive_feasible`] (or without a [`Source`] to execute), or an
/// exact engine beyond its variable cap.
///
/// This is also the **graceful-degradation ladder** (ISSUE 8): when an
/// exact engine exhausts the budget mid-compilation, the measurement
/// does not fail — the harness falls back to the hybrid bounds engine
/// under the *same* budget (the deadline is absolute, so the fallback
/// naturally gets only the remaining time) and reports
/// `status == "degraded"` with per-target bounds `[L, U]` whose
/// midpoints become the estimates. The anytime decision-tree engines
/// degrade in place: their partial bounds are already sound, so an
/// exhausted run keeps its own bounds and is merely relabelled
/// `degraded`.
pub fn run_engine(prep: &Prepared, engine: Engine, epsilon: f64, budget: Budget) -> Measurement {
    telemetry::reset();
    let (net, vt) = (&prep.net, &prep.vt);
    let v = vt.len();
    let timeout = |reason: &str| Measurement::bare(f64::NAN, format!("timeout({reason})"));
    let over = |cap: usize| timeout(&format!("v={v}>{cap}"));
    let t0 = Instant::now();
    let mut m = match engine {
        Engine::Naive => match &prep.source {
            // The naïve baseline scales with worlds × n²; keep it to
            // the regime where it terminates in reasonable time.
            Some(src) if naive_feasible(v, src.n) => {
                let centres = extract::bool_matrix("Centre", src.k, src.n);
                let res = naive_probabilities(&src.ast, &src.env, vt, centres)
                    .expect("naïve run succeeds");
                Measurement {
                    estimates: Some(res.probabilities),
                    ..Measurement::bare(t0.elapsed().as_secs_f64(), "ok")
                }
            }
            _ => timeout("naive"),
        },
        Engine::Exact if v > EXACT_VAR_CAP => over(EXACT_VAR_CAP),
        Engine::BddExact | Engine::BddStatic | Engine::DnnfExact | Engine::DnnfPar { .. }
            if v > prep.dnnf_var_cap =>
        {
            over(prep.dnnf_var_cap)
        }
        Engine::HybridD { workers, job_depth } => {
            let opts = DistOptions {
                workers,
                job_depth,
                seq: Options::approx(Strategy::Hybrid, epsilon),
                budget,
            };
            match compile_distributed(net, vt, opts) {
                Ok(res) => finish(t0, res),
                Err(e) => Measurement::bare(f64::NAN, format!("error({e})")),
            }
        }
        Engine::BddExact | Engine::BddStatic => {
            let base = if engine == Engine::BddStatic {
                ObddOptions::static_with_groups(prep.var_groups.clone())
            } else {
                ObddOptions::with_groups(prep.var_groups.clone())
            };
            let opts = ObddOptions { budget, ..base };
            let counted = ObddEngine::compile(net, &opts).map(|e| {
                let probs = e.probabilities(vt);
                Measurement {
                    estimates: Some(probs),
                    stats: Some(e.stats().clone()),
                    ..Measurement::bare(t0.elapsed().as_secs_f64(), "ok")
                }
            });
            exact_or_degraded(counted, net, vt, epsilon, budget, t0)
        }
        Engine::DnnfExact | Engine::DnnfPar { .. } => {
            let opts = DnnfOptions {
                workers: engine.workers(),
                budget,
                ..DnnfOptions::default()
            };
            // The WMC pass runs under the same (absolute) budget as
            // compilation — a deadline that expires mid-count degrades
            // to bounds exactly like one that expires mid-compile.
            let counted = DnnfEngine::compile(net, &opts).and_then(|e| {
                let probs = e.try_probabilities(vt, &BudgetScope::new(budget))?;
                Ok(Measurement {
                    estimates: Some(probs),
                    dnnf_stats: Some(e.stats().clone()),
                    ..Measurement::bare(t0.elapsed().as_secs_f64(), "ok")
                })
            });
            exact_or_degraded(counted, net, vt, epsilon, budget, t0)
        }
        // The sequential decision-tree engines.
        Engine::Exact | Engine::Eager | Engine::Lazy | Engine::Hybrid => {
            let opts = match engine {
                Engine::Exact => Options::exact(),
                Engine::Eager => Options::approx(Strategy::Eager, epsilon),
                Engine::Lazy => Options::approx(Strategy::Lazy, epsilon),
                _ => Options::approx(Strategy::Hybrid, epsilon),
            };
            let scope = BudgetScope::new(budget);
            let res = compile_scoped(net, vt, opts, &scope);
            scope.record_telemetry();
            if engine == Engine::Exact && res.exhausted.is_some() {
                degrade(net, vt, epsilon, budget, t0)
            } else {
                finish(t0, res)
            }
        }
    };
    m.workers = engine.workers();
    m.telemetry = Some(telemetry::snapshot());
    m
}

fn finish(t0: Instant, res: CompileResult) -> Measurement {
    let seconds = t0.elapsed().as_secs_f64();
    let estimates = (0..res.lower.len()).map(|i| res.estimate(i)).collect();
    // The anytime engines degrade in place: an exhausted run's partial
    // bounds are still sound, only wider than requested.
    let status = if res.exhausted.is_some() {
        "degraded"
    } else {
        "ok"
    };
    Measurement {
        estimates: Some(estimates),
        bounds: Some((res.lower, res.upper)),
        ..Measurement::bare(seconds, status)
    }
}

/// The outcome of a knowledge-compilation engine: its measurement, the
/// bounds ladder when the budget ran out, an `error(…)` row for
/// structural failures (worker panics, injected faults).
fn exact_or_degraded(
    counted: Result<Measurement, ObddError>,
    net: &Network,
    vt: &VarTable,
    epsilon: f64,
    budget: Budget,
    t0: Instant,
) -> Measurement {
    match counted {
        Ok(m) => m,
        Err(ObddError::BudgetExceeded { .. }) => degrade(net, vt, epsilon, budget, t0),
        Err(e) => Measurement::bare(f64::NAN, format!("error({e})")),
    }
}

/// The bottom rung of the degradation ladder ([`degrade_to_bounds`] at
/// the run's ε, or 0.1 for an exact run), reported as `degraded`.
fn degrade(net: &Network, vt: &VarTable, epsilon: f64, budget: Budget, t0: Instant) -> Measurement {
    let eps = if epsilon > 0.0 { epsilon } else { 0.1 };
    let mut m = finish(t0, degrade_to_bounds(net, vt, eps, budget));
    m.status = "degraded".into();
    m
}

/// Width of the co-existence windows in [`prepare_lineage`] targets.
pub const LINEAGE_WINDOW: usize = 4;

/// Starts a lineage-query program over `corr`: one `Exists[g]` target
/// per lineage group, returned alongside.
fn lineage_program(corr: &Correlations) -> (Program, Vec<EventId>) {
    let mut p = Program::new();
    p.ensure_vars(corr.var_table.len() as u32);
    let mut exists = Vec::with_capacity(corr.lineage.len());
    for (g, phi) in corr.lineage.iter().enumerate() {
        let id = p
            .declare_closed_event(&format!("Exists{g}"), phi)
            .expect("lineage events are closed");
        p.add_target(id);
        exists.push(id);
    }
    (p, exists)
}

/// Declares the **distant-pair co-existence** targets
/// `Co[i] = Exists[i] ∧ Exists[i + n/2]` and returns them.
fn declare_pairs(p: &mut Program, exists: &[EventId]) -> Vec<EventId> {
    let half = exists.len() / 2;
    let mut pairs = Vec::with_capacity(half);
    for i in 0..half {
        let id = p.declare_event(
            &format!("Co{i}"),
            Program::and([Program::eref(exists[i]), Program::eref(exists[i + half])]),
        );
        p.add_target(id);
        pairs.push(id);
    }
    pairs
}

/// Declares the target `name = ⋁ members`.
fn declare_any(p: &mut Program, name: &str, members: &[EventId]) {
    let id = p.declare_event(
        name,
        Program::or(members.iter().cloned().map(Program::eref)),
    );
    p.add_target(id);
}

/// Grounds a lineage-query program and builds its (uncapped,
/// source-less) scenario; `t0` is when its declaration started.
fn lineage_prepared(p: Program, corr: Correlations, t0: Instant) -> Prepared {
    let gp = p.ground().expect("lineage program grounds");
    let net = Network::build(&gp).expect("lineage network builds");
    Prepared {
        net,
        vt: corr.var_table,
        var_groups: corr.var_groups,
        build_seconds: t0.elapsed().as_secs_f64(),
        source: None,
        dnnf_var_cap: usize::MAX,
    }
}

/// Builds a **lineage-query** pipeline over `n_groups` lineage groups
/// (one point per group): the compilation targets are propositional
/// queries over the correlation lineage itself instead of clustering
/// events. This is the workload class knowledge compilation is built
/// for: the mutex and conditional schemes produce
/// read-once/hierarchical events whose OBDDs stay polynomial, so
/// BDD-exact scales where decision-tree exact cannot.
///
/// Targets, in order: `Exists[g]` per group, then one `Any[s]`
/// disjunction per [`LINEAGE_WINDOW`]-wide window, then a global
/// `AtLeastOne`, then one `Co[i]` **distant-pair co-existence** event per
/// pair `(i, i + n/2)` and their disjunction `AnyCo`. The co-existence
/// family asks the paper's correlation question directly — are two
/// far-apart points present in the same world? — and is the
/// order-sensitive part of the workload: on the positive scheme each
/// `Co[i]` conjoins two disjunctions over the shared variable pool, so
/// the static order interleaves the pairs badly and dynamic reordering
/// has real work to do (mutex/conditional lineage stays read-once and
/// small either way).
pub fn prepare_lineage(n_groups: usize, scheme: Scheme, opts: &LineageOpts, seed: u64) -> Prepared {
    let opts = LineageOpts {
        group_size: 1,
        ..*opts
    };
    let corr = generate_lineage(n_groups, scheme, &opts, seed);
    let _span = telemetry::span(Phase::Build);
    let t0 = Instant::now();
    let (mut p, exists) = lineage_program(&corr);
    for (w, window) in exists.chunks(LINEAGE_WINDOW).enumerate() {
        declare_any(&mut p, &format!("Any{w}"), window);
    }
    declare_any(&mut p, "AtLeastOne", &exists);
    let pairs = declare_pairs(&mut p, &exists);
    if !pairs.is_empty() {
        declare_any(&mut p, "AnyCo", &pairs);
    }
    lineage_prepared(p, corr, t0)
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
pub fn prepare_workers_sweep(n_groups: usize, window: usize, seed: u64) -> Prepared {
    let opts = LineageOpts {
        group_size: 1,
        ..LineageOpts::default()
    };
    let scheme = Scheme::Positive { l: 4, v: n_groups };
    let corr = generate_lineage(n_groups, scheme, &opts, seed);
    let _span = telemetry::span(Phase::Build);
    let t0 = Instant::now();
    let (mut p, exists) = lineage_program(&corr);
    let pairs = declare_pairs(&mut p, &exists);
    let window = window.max(1).min(pairs.len().max(1));
    for (w, win) in pairs
        .windows(window)
        .step_by((window / 2).max(1))
        .enumerate()
    {
        declare_any(&mut p, &format!("CoWin{w}"), win);
    }
    lineage_prepared(p, corr, t0)
}

/// The CSV header of every figure row. The trailing columns carry
/// knowledge-compilation statistics and stay empty for engines that do
/// not produce them: six OBDD manager columns (including the
/// `peak_bytes` footprint estimate), then `cmp_branches` (d-DNNF
/// expansion steps, which both compiled forms report: the OBDD engines
/// for the targets that reach a comparison atom, the d-DNNF engine for
/// every target), the d-DNNF node/edge counts, and
/// seven telemetry columns distilled from the per-measurement
/// [`Snapshot`] (cache hits, the compile/WMC phase split, and the
/// budget-governance triple: safe-point checks taken, cancellations
/// observed, degradation fallbacks).
pub const CSV_HEADER: &str = "figure,series,x,seconds,status,detail,workers,live_nodes,peak_nodes,peak_bytes,gc_runs,reorders,load_factor,cmp_branches,dnnf_nodes,dnnf_edges,ite_hits,memo_hits,phase_compile_s,phase_wmc_s,budget_checks,cancellations,fallbacks";

/// Formats one CSV measurement row (with the stat columns the
/// measurement carries) under [`CSV_HEADER`]. `status` and `detail` are
/// free text — a failed engine's error message ends up in `status` —
/// so their commas and line breaks become `;` here, the one place rows
/// are made, and every row keeps the header's column count.
pub fn csv_row(figure: &str, series: &str, x: &str, m: &Measurement, detail: &str) -> String {
    let text = |s: &str| s.replace([',', '\n', '\r'], ";");
    let secs = if m.seconds.is_nan() {
        String::new()
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
            "{},{},{:.6e},{:.6e},{},{},{}",
            t.counter(Counter::IteHit),
            t.counter(Counter::MemoHit),
            t.compile_seconds(),
            t.phase_seconds(Phase::Wmc),
            t.counter(Counter::BudgetCheck),
            t.counter(Counter::Cancellation),
            t.counter(Counter::Fallback)
        ),
        None => ",,,,,,".into(),
    };
    format!(
        "{figure},{series},{x},{secs},{},{},{},{stats},{tel}",
        text(&m.status),
        text(detail),
        m.workers
    )
}

/// The one loop behind every figure: runs each engine of `engines` over
/// one grid point (`x`, `detail`, `prep`) with an unlimited budget and
/// hands `out` one [`csv_row`] per engine, series = [`Engine::label`].
/// Returns the measurements, in `engines` order, for sweeps that check
/// something across their rows.
pub fn sweep(
    out: &mut dyn FnMut(String),
    figure: &str,
    (x, detail, prep): (&str, &str, &Prepared),
    engines: &[Engine],
    epsilon: f64,
) -> Vec<Measurement> {
    engines
        .iter()
        .map(|&engine| {
            let m = run_engine(prep, engine, epsilon, Budget::unlimited());
            out(csv_row(figure, engine.label(), x, &m, detail));
            m
        })
        .collect()
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
        let naive = run_engine(&prep, Engine::Naive, 0.0, Budget::unlimited());
        let exact = run_engine(&prep, Engine::Exact, 0.0, Budget::unlimited());
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
            let a = run_engine(&prep, engine, eps, Budget::unlimited())
                .estimates
                .unwrap();
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
            Budget::unlimited(),
        )
        .estimates
        .unwrap();
        for i in 0..ev.len() {
            assert!((d[i] - ev[i]).abs() <= eps + 1e-9);
        }
    }

    /// The OBDD backend is a first-class engine: on the same prepared
    /// k-medoids pipeline it must reproduce the decision-tree exact
    /// probabilities to 1e-9.
    #[test]
    fn bdd_exact_matches_tree_exact_on_kmedoids() {
        let _t = counters_reset();
        let prep = tiny_prep();
        let exact = run_engine(&prep, Engine::Exact, 0.0, Budget::unlimited())
            .estimates
            .unwrap();
        let bdd = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited());
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
            let exact = run_engine(&prep, Engine::Exact, 0.0, Budget::unlimited())
                .estimates
                .unwrap();
            let bdd = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited())
                .estimates
                .unwrap();
            let dnnf = run_engine(&prep, Engine::DnnfExact, 0.0, Budget::unlimited())
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
            let hybrid = run_engine(&prep, Engine::Hybrid, 0.1, Budget::unlimited())
                .estimates
                .unwrap();
            for i in 0..exact.len() {
                assert!((hybrid[i] - exact[i]).abs() <= 0.1 + 1e-9);
            }
        }
    }

    /// The headline of this backend: on the k-medoids
    /// aggregate-comparison workload the d-DNNF engine — and the OBDD
    /// engine, which expands comparison atoms through the same DP —
    /// reproduces the decision-tree exact probabilities with orders of
    /// magnitude fewer expansion steps than an assignment-level Shannon
    /// expansion's branch count (5 064 on this network, recorded before
    /// that expander was deleted).
    #[test]
    fn dnnf_matches_tree_exact_on_kmedoids_and_collapses_branches() {
        let _t = counters_reset();
        let prep = tiny_prep();
        let exact = run_engine(&prep, Engine::Exact, 0.0, Budget::unlimited())
            .estimates
            .unwrap();
        let dnnf = run_engine(&prep, Engine::DnnfExact, 0.0, Budget::unlimited());
        let bdd = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited());
        for (m, what) in [(&dnnf, "dnnf"), (&bdd, "bdd")] {
            assert_eq!(m.status, "ok", "{what}");
            let got = m.estimates.as_ref().unwrap();
            assert_eq!(got.len(), exact.len());
            for i in 0..exact.len() {
                assert!(
                    (got[i] - exact[i]).abs() < 1e-9,
                    "target {i}: {what} {} vs exact {}",
                    got[i],
                    exact[i]
                );
            }
        }
        let steps = dnnf.dnnf_stats.unwrap().expansion_steps;
        assert!(
            steps * 10 <= 5_064,
            "residual-state memoisation must collapse the branch tree: \
             {steps} dnnf steps vs 5 064 Shannon branches"
        );
    }

    /// The shared cap: the aggregate-comparison pipeline compiles on
    /// both compiled forms past v = 12, where the deleted Shannon
    /// expander's wall stood, and both stop at [`DNNF_KMEDOIDS_VAR_CAP`].
    #[test]
    fn dnnf_cap_is_raised_past_the_shannon_wall() {
        let _t = counters_reset();
        let cap = DNNF_KMEDOIDS_VAR_CAP;
        assert!(cap >= 20, "the d-DNNF cap must stay past the ISSUE bound");
        let kmedoids = |v| {
            let scheme = Scheme::Positive { l: 8, v };
            prepare(16, 2, 2, scheme, &LineageOpts::default(), 7)
        };
        let prep = kmedoids(14);
        let bdd = run_engine(&prep, Engine::BddExact, 0.0, Budget::unlimited());
        let dnnf = run_engine(&prep, Engine::DnnfExact, 0.0, Budget::unlimited());
        assert_eq!(bdd.status, "ok");
        assert_eq!(dnnf.status, "ok");
        let (bv, dv) = (bdd.estimates.unwrap(), dnnf.estimates.unwrap());
        for i in 0..dv.len() {
            assert!((bv[i] - dv[i]).abs() < 1e-9, "target {i}");
        }
        let stats = dnnf.dnnf_stats.unwrap();
        // The recorded Shannon baseline at v = 14 is 874 k branches; the
        // DP must be at least 50× below it (measured: ~1.2 k).
        assert!(
            stats.expansion_steps <= 874_000 / 50,
            "expansion steps regressed: {}",
            stats.expansion_steps
        );
        let over = kmedoids(cap + 1);
        for engine in [Engine::BddExact, Engine::DnnfExact] {
            let m = run_engine(&over, engine, 0.0, Budget::unlimited());
            assert!(m.status.starts_with("timeout"), "{engine:?}: {}", m.status);
        }
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
        let naive = run_engine(&prep, Engine::Naive, 0.0, Budget::unlimited());
        assert!(naive.status.starts_with("timeout"));
        let exact = run_engine(&prep, Engine::Exact, 0.0, Budget::unlimited());
        assert!(exact.status.starts_with("timeout"));
    }

    /// One failing row must not shift the CSV: an engine's error text
    /// lands in `status`, commas and line breaks included.
    #[test]
    fn a_comma_bearing_error_keeps_the_row_at_the_headers_column_count() {
        let e = ObddError::WorkerPanicked {
            target: 3,
            message: "index out of bounds: the len is 4, but the index is 7\nnote: in dnnf".into(),
        };
        let m = Measurement::bare(f64::NAN, format!("error({e})"));
        assert!(m.status.contains(',') && m.status.contains('\n'));
        let row = csv_row("fig_bdd", "dnnf", "v=96", &m, "targets=12, eps=0.1");
        assert_eq!(
            row.split(',').count(),
            CSV_HEADER.split(',').count(),
            "{row}"
        );
        assert_eq!(row.lines().count(), 1, "{row}");
        assert!(
            row.contains("the len is 4; but the index is 7;note"),
            "{row}"
        );
    }

    /// The loop every figure runs through: one complete, `ok` row per
    /// engine, in order, under the engine's label.
    #[test]
    fn sweep_emits_one_complete_ok_row_per_engine() {
        let _t = counters_reset();
        let prep = tiny_prep();
        let engines = [
            Engine::Naive,
            Engine::Exact,
            Engine::Hybrid,
            Engine::DnnfExact,
        ];
        let mut rows = Vec::new();
        let point = ("v=6", "n=12;eps=0.1", &prep);
        let ms = sweep(&mut |row| rows.push(row), "smoke", point, &engines, 0.1);
        assert_eq!(rows.len(), engines.len());
        assert_eq!(ms.len(), engines.len());
        let header: Vec<&str> = CSV_HEADER.split(',').collect();
        let status = header.iter().position(|&c| c == "status").unwrap();
        for (row, engine) in rows.iter().zip(engines) {
            let fields: Vec<&str> = row.split(',').collect();
            assert_eq!(fields.len(), header.len(), "{row}");
            assert_eq!(&fields[..3], ["smoke", engine.label(), "v=6"], "{row}");
            assert_eq!(fields[status], "ok", "{row}");
        }
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
        let exact = run_engine(&prep, Engine::DnnfExact, 0.0, Budget::unlimited());
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
        let m = run_engine(&prep, Engine::DnnfExact, 0.1, budget);
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
                let exact = run_engine(&prep, Engine::Exact, 0.0, Budget::unlimited());
                prop_assert_eq!(&exact.status, "ok");
                let exact = exact.estimates.unwrap();
                let budget = Budget {
                    max_steps: Some(max_steps),
                    ..Budget::unlimited()
                };
                let m = run_engine(&prep, Engine::Exact, 0.0, budget);
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
