//! The paper's evaluation (§5) as one table of sweeps: Figures 6–9, the
//! knowledge-compilation sweep, and the "further findings" ablations —
//! each a grid of prepared scenarios crossed with a list of engines, fed
//! to the one [`sweep`] loop. `figures <name>…` runs the named sweeps,
//! `figures all` every one, no argument lists them. Rows go to stdout as
//! CSV under [`CSV_HEADER`], everything else to stderr. The default is
//! the *smoke* grid (minutes per sweep); `ENFRAME_BENCH_FULL=1` selects
//! the paper-scale grid (hours). A row whose status is `error(…)` makes
//! the binary exit non-zero once every selected sweep has printed.

use enframe_bench::Engine::{
    BddExact, BddStatic, DnnfExact, DnnfPar, Eager, Exact, Hybrid, HybridD, Lazy, Naive,
};
use enframe_bench::*;
use enframe_core::budget::Budget;
use enframe_core::VarTable;
use enframe_data::{generate_lineage, generate_sensor_points, LineageOpts, Scheme, SensorConfig};
use enframe_lang::{parse, programs};
use enframe_network::Network;
use enframe_prob::{compile, CompileResult, Options, Strategy, VarOrder};
use enframe_telemetry as telemetry;
use enframe_translate::env::clustering_env;
use enframe_translate::{targets, translate, ProbEnv, ProbObjects, Translated};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// A named sweep: what the listing says about it, and what
/// `figures <name>` runs (`true` = paper scale).
type Figure = (&'static str, &'static str, fn(bool));

#[rustfmt::skip] // a table reads best one row per line
const FIGURES: &[Figure] = &[
    ("fig6_left", "all six engines over #variables (positive, l = 8)", fig6_left),
    ("fig6_right", "lazy/eager/hybrid over the data-set fraction (positive, l = 8)", fig6_right),
    ("fig7_mutex", "naive/exact/hybrid/hybrid-d over #objects (mutex, m = 12)", fig7_mutex),
    ("fig7_conditional", "fig7_mutex's engines over #objects (conditional)", fig7_conditional),
    ("fig8_certain", "hybrid and hybrid-d at 0 % and 95 % certain points (positive)", fig8_certain),
    ("fig9_workers", "hybrid-d over #workers, job sizes 3/6/9 (positive, l = 8)", fig9_workers),
    ("fig_bdd", "OBDD/d-DNNF vs exact/hybrid on lineage queries; dnnf workers axis", fig_bdd),
    ("ablations", "iterations, epsilon, dimensions, targets, size, order", ablations),
];

/// The error budget every figure of the paper runs its approximations at.
const EPS: f64 = 0.1;

/// Whether a row reported an engine error.
static ENGINE_ERROR: AtomicBool = AtomicBool::new(false);

/// The distributed series of Figures 6–8: 8 workers, job size 3.
const HYBRID_D: Engine = HybridD {
    workers: 8,
    job_depth: 3,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let line = |(name, about, _): &Figure| format!("{name:<17} {about}");
    let listing = FIGURES.iter().map(line).collect::<Vec<_>>().join("\n");
    if args.is_empty() {
        eprintln!("usage: figures <name>... | all");
        return println!("{listing}");
    }
    // Every name is looked up before anything runs: a typo costs nothing.
    let lookup = |arg: &String| {
        FIGURES.iter().find(|f| f.0 == arg).unwrap_or_else(|| {
            eprintln!("unknown figure `{arg}`; the figures are:\n{listing}");
            std::process::exit(2)
        })
    };
    let selected: Vec<&Figure> = if args == ["all"] {
        FIGURES.iter().collect()
    } else {
        args.iter().map(lookup).collect()
    };
    println!("{CSV_HEADER}");
    for (_, _, run) in selected {
        run(full_scale());
    }
    if ENGINE_ERROR.load(Ordering::Relaxed) {
        eprintln!("figures: an engine reported an error (see the `error(` rows)");
        std::process::exit(1)
    }
}

/// Prints one CSV row, noting an `error(…)` status (the fifth column)
/// for the exit code.
fn emit(row: String) {
    let status = row.split(',').nth(4).unwrap_or_default();
    ENGINE_ERROR.fetch_or(status.starts_with("error("), Ordering::Relaxed);
    println!("{row}");
}

/// The paper-scale or the smoke value of a grid parameter.
fn scale<T>(full: bool, paper: T, smoke: T) -> T {
    if full {
        paper
    } else {
        smoke
    }
}

/// Runs `engines` over one grid point (`x`, `detail`, scenario) at
/// ε = [`EPS`] and prints the rows.
fn run(figure: &str, point: (&str, &str, &Prepared), engines: &[Engine]) -> Vec<Measurement> {
    sweep(&mut emit, figure, point, engines, EPS)
}

/// Prints one row that [`sweep`] cannot make: its series is not the
/// engine's label, or no engine of [`run_engine`]'s produced it.
fn row(figure: &str, series: &str, (x, detail): (&str, &str), m: Measurement) {
    emit(csv_row(figure, series, x, &m, detail));
}

/// The paper's k-medoids pipeline: k = 2, default lineage options.
fn kmedoids(n: usize, iterations: usize, scheme: Scheme, seed: u64) -> Prepared {
    prepare(n, 2, iterations, scheme, &LineageOpts::default(), seed)
}

/// Figure 6 (left): positively correlated data (l = 8), scalability in
/// the number of variables v, for dataset fractions f ∈ {50 %, 100 %}.
///
/// Paper shape to reproduce: the naïve baseline wins only for very small
/// v, is overtaken by orders of magnitude as v grows, and times out
/// beyond ~25 variables; hybrid beats exact by up to four orders of
/// magnitude; hybrid-d beats hybrid as v grows.
fn fig6_left(full: bool) {
    // Base data set ("100 %"): a fraction of the 1300-point scale.
    let base_n = scale(full, 256, 48);
    let vs: &[usize] = scale(full, &[10, 14, 18, 22, 30, 40, 50], &[8, 10, 12, 14, 16]);
    for f_pct in [100, 50] {
        let n = base_n * f_pct / 100;
        for &v in vs {
            let l = 8.min(v);
            let prep = kmedoids(n, 3, Scheme::Positive { l, v }, 0xF16 + v as u64);
            let x = format!("v={v};f={f_pct}%");
            let detail = format!("n={n};l={l};eps={EPS}");
            let engines = [Naive, Exact, Eager, Lazy, Hybrid, HYBRID_D];
            run("fig6_left", (&x, &detail, &prep), &engines);
        }
    }
}

/// Figure 6 (right): the three approximations in the size of the data
/// set — fraction f of the full sensor data, per variable count v
/// (positive correlations, l = 8).
///
/// Paper shape: near-linear growth in the data-set fraction; larger v
/// costs more; all three complete where exact/naïve would not.
fn fig6_right(full: bool) {
    // The paper's 100 % = 1300 points; a fully uncertain 1300-point
    // network is ~2 GB here, so the full grid uses 400 points (shape
    // unaffected).
    let base_n = scale(full, 400, 120);
    let tenths: Vec<usize> = (1..=10).map(|i| i * 10).collect();
    let fractions: &[usize] = scale(full, &tenths, &[10, 25, 50, 75, 100]);
    for v in scale(full, [10, 30, 50], [10, 20, 30]) {
        for &f_pct in fractions {
            let n = (base_n * f_pct / 100).max(8);
            let scheme = Scheme::Positive { l: 8.min(v), v };
            let prep = kmedoids(n, 3, scheme, 0xF16A + v as u64);
            let x = format!("f={f_pct}%;v={v}");
            let detail = format!("n={n};eps={EPS};build_s={:.3}", prep.build_seconds);
            run("fig6_right", (&x, &detail, &prep), &[Lazy, Eager, Hybrid]);
        }
    }
}

/// Figure 7: scalability in the number of objects n. The variable count
/// v grows with n (grey dashed line in the paper's plot) and goes in the
/// detail column, with the scheme's fixed `params`.
fn fig7(figure: &str, ns: &[usize], scheme: Scheme, seed: u64, params: &str) {
    for &n in ns {
        let prep = kmedoids(n, 3, scheme, seed + n as u64);
        let x = format!("n={n}");
        let detail = format!("v={};{params}eps={EPS}", prep.vt.len());
        let engines = [Naive, Exact, Hybrid, HYBRID_D];
        run(figure, (&x, &detail, &prep), &engines);
    }
}

/// Figure 7 (left), mutex sets of m = 12. Paper shape: naïve explodes
/// almost immediately; exact tracks hybrid closely for small n
/// (eager/lazy overlap exact — the mutex decision tree is balanced);
/// hybrid-d gains over an order of magnitude beyond ~100 objects.
fn fig7_mutex(full: bool) {
    let ns: &[usize] = scale(full, &[36, 60, 96, 144, 240, 360, 500], &[24, 36, 48, 60]);
    fig7("fig7_mutex", ns, Scheme::Mutex { m: 12 }, 0xF17, "m=12;");
}

/// Figure 7 (right), Markov-chain lineage: two fresh variables per
/// group make v grow quickly with n. Paper shape: like the mutex case
/// the tree is balanced, so eager and lazy behave like exact (the paper
/// omits them); hybrid prunes effectively; naïve times out early.
fn fig7_conditional(full: bool) {
    let ns: &[usize] = scale(full, &[20, 32, 44, 56, 68, 80, 92], &[16, 24, 32, 40]);
    fig7("fig7_conditional", ns, Scheme::Conditional, 0xF17C, "");
}

/// Figure 8: hybrid and hybrid-d on large data sets with c ∈ {0 %, 95 %}
/// **certain** points (positive correlations, l = 8).
///
/// Paper shape: performance improves substantially as the certain
/// fraction grows — distance sums initialise from certainly-existing
/// objects, fewer variable assignments are needed to decide medoids, and
/// the decision tree is shallower. Our translator realises the same
/// effect by constant folding certain sub-aggregates (see
/// `enframe-translate`).
fn fig8_certain(full: bool) {
    // The paper runs v = 30 throughout; the smoke grid fixes v = 14 (why:
    // the crate docs). What the figure reproduces — the certain-fraction
    // speedup and the c = 0 % timeout wall — is unaffected.
    let v = scale(full, 30, 14);
    let ns: &[usize] = scale(
        full,
        &[500, 1000, 2000, 4000, 8000, 12000],
        &[100, 200, 400, 800],
    );
    // The fully-uncertain configuration grows quadratically in network
    // size; cap it like the paper's timeout.
    let uncertain_wall = scale(full, 2000, 400);
    for c_pct in [0, 95] {
        for &n in ns {
            let x = format!("n={n};c={c_pct}%");
            if c_pct == 0 && n > uncertain_wall {
                let skipped = Measurement::bare(f64::NAN, "timeout");
                row("fig8", "hybrid", (&x, ""), skipped);
                continue;
            }
            let opts = LineageOpts {
                certain_frac: c_pct as f64 / 100.0,
                ..LineageOpts::default()
            };
            let scheme = Scheme::Positive { l: 8, v };
            let prep = prepare(n, 2, 3, scheme, &opts, 0xF18 + n as u64);
            let (nodes, build_s) = (prep.net.len(), prep.build_seconds);
            let detail = format!("v={v};nodes={nodes};build_s={build_s:.3}");
            run("fig8", (&x, &detail, &prep), &[Hybrid, HYBRID_D]);
        }
    }
}

/// Figure 9: distributed probability computation as a function of the
/// number of workers w, for job sizes d ∈ {3, 6, 9} (positive
/// correlations, l = 8).
///
/// Paper shape: small job sizes distribute work evenly and keep scaling
/// up to 16 workers; large job sizes produce too few jobs for extra
/// workers to help (no improvement beyond ~4 workers for d ≥ 6 on the
/// unbalanced positive-correlation tree).
fn fig9_workers(full: bool) {
    let n = scale(full, 1000, 160);
    // The job-granularity trade-off is insensitive to v as long as the
    // tree is deep enough to fork, so the smoke grid lowers it.
    let v = scale(full, 30, 16);
    let workers: &[usize] = scale(full, &[1, 2, 4, 8, 12, 16, 20], &[1, 2, 4, 8, 16]);
    let prep = kmedoids(n, 3, Scheme::Positive { l: 8, v }, 0xF19);
    let hybrid_d = |point: (&str, &str), series: &str, engine: Engine| {
        let m = run_engine(&prep, engine, EPS, Budget::unlimited());
        row("fig9", series, point, m);
    };
    // Sequential hybrid as the w=0 reference line.
    hybrid_d(("w=0", &*format!("n={n};v={v}")), "hybrid-seq", Hybrid);
    let detail = format!("n={n};v={v};eps={EPS}");
    for job_depth in [3, 6, 9] {
        for &workers in workers {
            let point = (&*format!("w={workers}"), &*detail);
            let engine = HybridD { workers, job_depth };
            hybrid_d(point, &format!("job_size_{job_depth}"), engine);
        }
    }
}

/// OBDD and d-DNNF knowledge compilation vs the decision-tree engines on
/// lineage-query workloads: scalability in the number of variables v for
/// the three correlation schemes of §5, then the d-DNNF workers axis.
///
/// Shape to demonstrate: decision-tree exact hits its exponential wall at
/// v ≈ 18 (reported as `timeout`, like fig6's cut-off); the hybrid
/// ε-approximation survives but only answers within ±ε; the compiled
/// engines keep answering **exactly**, in milliseconds, far beyond both
/// — polynomial compiled size for mutex (read-once chains) and
/// conditional (hierarchical Markov steps) lineage. On the positive
/// scheme — the order-sensitive one — compare `peak_nodes` of `bdd-exact`
/// (GC + group sifting) and `bdd-static` to read off the sifting win.
///
/// The sweep runs with telemetry enabled, so the trailing CSV columns
/// are filled, and `ENFRAME_TRACE=<path>` writes a Chrome Trace timeline
/// of it (one labelled track per worker thread of the workers axis).
fn fig_bdd(full: bool) {
    // The d-DNNF target fan-out must pay off where there are cores for
    // it: at least this speedup at this many workers over one, asserted
    // when the host reports that many cores. (Stand-in until the perf
    // ledger has a fan-out workload — ROADMAP item 1c.)
    const MIN_SPEEDUP: f64 = 1.5;
    const WORKERS: usize = 4;
    telemetry::set_enabled(true);
    telemetry::init_from_env();

    // A scheme's grid of lineage-group counts; its parameters and seed at one.
    type Family<'a> = (&'a str, &'a [usize], fn(usize) -> (Scheme, u64));
    let families: [Family<'_>; 3] = [
        // Mutex: one variable per point, sets of m points.
        (
            "mutex",
            scale(
                full,
                &[8, 12, 16, 20, 24, 32, 48, 96, 192],
                &[8, 12, 16, 20, 24, 32],
            ),
            |v| (Scheme::Mutex { m: 8.min(v) }, 0xBDD + v as u64),
        ),
        // Conditional: a Markov chain, 2 variables per step.
        (
            "conditional",
            scale(full, &[4, 6, 8, 10, 13, 25, 49], &[4, 6, 8, 10, 13]),
            |_| (Scheme::Conditional, 0xBDD),
        ),
        // Positive: disjunctions over a shared pool — not read-once, so
        // the BDD can grow; the series shows where compilation stays
        // worthwhile and where dynamic reordering pays.
        (
            "positive",
            scale(full, &[8, 12, 16, 20, 24, 28, 32], &[8, 12, 16, 20, 24, 28]),
            |v| (Scheme::Positive { l: 4.min(v), v }, 0xBDD + v as u64),
        ),
    ];
    for (name, grid, at) in families {
        for &groups in grid {
            let (scheme, seed) = at(groups);
            let prep = prepare_lineage(groups, scheme, &LineageOpts::default(), seed);
            let x = format!("scheme={name};v={}", prep.vt.len());
            let detail = format!("targets={};eps={EPS}", prep.net.targets.len());
            let engines = [Exact, Hybrid, BddExact, BddStatic, DnnfExact];
            run("fig_bdd", (&x, &detail, &prep), &engines);
        }
    }

    // Workers axis: the d-DNNF parallel target fan-out on the workload
    // built to have work to distribute ([`prepare_workers_sweep`]). Same
    // series label (`dnnf`) and `x` for every row — the `workers` column
    // is the axis — and bitwise-identical estimates by construction.
    let (wn, wwin) = scale(full, (128, 8), (96, 9));
    let prep = prepare_workers_sweep(wn, wwin, 0xBDD);
    let x = format!("scheme=positive;v={wn}");
    let detail = format!("targets={};eps={EPS}", prep.net.targets.len());
    let axis = [1, 2, WORKERS].map(|workers| DnnfPar { workers });
    let rows = run("fig_bdd", (&x, &detail, &prep), &axis);

    let fail = |why: String| -> ! {
        eprintln!("fig_bdd: {why}");
        std::process::exit(1)
    };
    match telemetry::write_trace_if_armed() {
        Some(Ok(path)) => eprintln!("wrote Chrome trace to {path}"),
        Some(Err(e)) => fail(format!("failed to write trace: {e}")),
        None => {}
    }
    let speedup = rows[0].seconds / rows[axis.len() - 1].seconds;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let line = format!("dnnf at {x}: {speedup:.2}x at workers={WORKERS}");
    if cores < WORKERS {
        eprintln!("{line} - not asserted ({cores} cores)");
    } else if speedup >= MIN_SPEEDUP {
        eprintln!("{line} (need >= {MIN_SPEEDUP}x, {cores} cores)");
    } else {
        fail(format!("{line}, {cores} cores, need >= {MIN_SPEEDUP}x"));
    }
}

/// Adds compilation targets to a translated program; returns how many.
type AddTargets = fn(&mut Translated) -> usize;

/// The k-medoids network over `env` with the targets `add_targets` adds,
/// for the ablations whose data or targets are not [`prepare`]'s.
fn kmedoids_network(env: &ProbEnv, add_targets: AddTargets) -> (Network, usize) {
    let ast = parse(programs::K_MEDOIDS).expect("canonical program parses");
    let mut tr = translate(&ast, env).expect("translation succeeds");
    let n_targets = add_targets(&mut tr);
    let gp = tr.ground().expect("grounding succeeds");
    let net = Network::build(&gp).expect("network build succeeds");
    (net, n_targets)
}

/// The `Centre` network of 32 sensor points padded to `dims` dimensions,
/// under positive lineage over `v` variables drawn from its own seed.
fn sensor_network(dims: usize, points_seed: u64, v: usize, seed: u64) -> (Network, VarTable) {
    let n = 32;
    let mut points = generate_sensor_points(&SensorConfig {
        n,
        seed: points_seed,
        ..SensorConfig::default()
    });
    for p in &mut points {
        while p.len() < dims {
            p.push(p[0] * 0.5 + p.len() as f64);
        }
    }
    let scheme = Scheme::Positive { l: 4, v };
    let corr = generate_lineage(n, scheme, &LineageOpts::default(), seed);
    let n_vars = corr.var_table.len() as u32;
    let objects = ProbObjects::new(points, corr.lineage);
    let env = clustering_env(objects, 2, 3, vec![0, n / 2], n_vars);
    let (net, _) = kmedoids_network(&env, |tr| targets::add_all_bool_targets(tr, "Centre"));
    (net, corr.var_table)
}

/// Times one sequential decision-tree compilation of an ad-hoc network.
fn timed_compile(net: &Network, vt: &VarTable, opts: Options) -> (f64, CompileResult) {
    let t0 = Instant::now();
    let res = compile(net, vt, opts);
    (t0.elapsed().as_secs_f64(), res)
}

/// The paper's "further findings" (§5): sweeps over the number of
/// iterations (linear effect), the error budget ε (strong effect), the
/// number of dimensions (no effect), the kind/number of compilation
/// targets (minor effect), event-network growth, and the variable-order
/// heuristic.
fn ablations(full: bool) {
    let hybrid = Options::approx(Strategy::Hybrid, EPS);
    let ok = |seconds: f64| Measurement::bare(seconds, "ok");

    // --- iterations: linear effect on running time ----------------------
    for &iters in scale::<&[usize]>(full, &[1, 2, 3, 4, 6, 8], &[1, 2, 3, 4]) {
        let prep = kmedoids(32, iters, Scheme::Positive { l: 4, v: 14 }, 0xAB10);
        let x = format!("iters={iters}");
        let detail = format!("nodes={}", prep.net.len());
        run("ablation_iterations", (&x, &detail, &prep), &[Hybrid]);
    }

    // --- error budget: performance is highly sensitive to ε -------------
    let v = scale(full, 24, 18);
    let prep = kmedoids(48, 3, Scheme::Positive { l: 8, v }, 0xAB20);
    for eps in [0.01, 0.02, 0.05, 0.1, 0.2, 0.4] {
        let point = (&*format!("eps={eps}"), "", &prep);
        sweep(&mut emit, "ablation_epsilon", point, &[Hybrid], eps);
    }

    // --- dimensions: no effect (distances are precomputed scalars) ------
    for dims in [2usize, 3, 5, 8] {
        let (net, vt) = sensor_network(dims, 0xAB30, 14, 0xAB31);
        let (seconds, _) = timed_compile(&net, &vt, hybrid);
        let x = format!("dims={dims}");
        row("ablation_dimensions", "hybrid", (&x, ""), ok(seconds));
    }

    // --- target kinds: minor effect --------------------------------------
    let env = &prep.source.as_ref().expect("k-medoids pipeline").env;
    let centre: AddTargets = |tr| targets::add_all_bool_targets(tr, "Centre");
    let in_cl: AddTargets = |tr| targets::add_all_bool_targets(tr, "InCl");
    let same_cluster: AddTargets = |tr| {
        targets::add_same_cluster_target(tr, "InCl", 2, 0, 1).expect("objects 0 and 1 exist");
        1
    };
    for (label, add_targets) in [
        ("medoid_selection", centre),
        ("object_membership", in_cl),
        ("co_occurrence", same_cluster),
    ] {
        let (net, n_targets) = kmedoids_network(env, add_targets);
        let (seconds, _) = timed_compile(&net, &prep.vt, hybrid);
        let x = format!("targets={n_targets}");
        row("ablation_targets", label, (&x, ""), ok(seconds));
    }

    // --- network growth: linear in objects and clusters ------------------
    for n in [16usize, 32, 64, 128] {
        let prep = kmedoids(n, 3, Scheme::Positive { l: 4, v: 12 }, 0xAB50);
        let stats = prep.net.stats();
        let x = format!("n={n}");
        let detail = format!("nodes={};edges={}", stats.nodes, stats.edges);
        let m = ok(prep.build_seconds);
        row("ablation_network_size", "build", (&x, &detail), m);
    }

    // --- variable-order heuristics (design-choice ablation) -------------
    let (net, vt) = sensor_network(2, 0xAB61, 16, 0xAB60);
    for (label, order) in [
        ("sequential", VarOrder::Sequential),
        ("static_occurrence", VarOrder::StaticOccurrence),
        ("dynamic", VarOrder::Dynamic),
    ] {
        let opts = Options {
            order,
            ..Options::exact()
        };
        let (seconds, res) = timed_compile(&net, &vt, opts);
        let m = Measurement::bare(seconds, format!("branches={}", res.stats.branches));
        row("ablation_var_order", label, ("v=16", ""), m);
    }
}
