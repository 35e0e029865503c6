//! The program → probability workloads: `kmedoids_exact` and
//! `kmedoids_approx`. One op is the whole pipeline, from the program
//! text to the probabilities, on one seeded instance.

use crate::gen::{draw_weights, jitter_weights, Rng};
use crate::report::{end_to_end, repeat_setup, save_trace, Metrics, RunResult};
use crate::stats::{median, median_or_zero, Window};
use crate::trace::{self_seconds, Recorder};
use crate::{bitwise_eq, Config};
use enframe::core::{Event, VarTable};
use enframe::data::{kmedoids_workload, LineageOpts, Scheme};
use enframe::lang::{parse, programs::K_MEDOIDS};
use enframe::network::Network;
use enframe::obdd::dnnf::{DnnfEngine, DnnfOptions};
use enframe::prob::{compile, Options, Strategy};
use enframe::translate::{targets::add_all_bool_targets, translate};
use enframe::worlds::{extract::bool_matrix, naive_probabilities};
use std::time::Instant;

/// Absolute error bound of the approximate workload (the paper's ε).
const EPSILON: f64 = 0.1;
/// Engine-vs-engine agreement on exact answers.
const TOLERANCE: f64 = 1e-9;
/// `kmedoids_approx` moves each probability of an instance's base table
/// by at most this much per seed. The hybrid engine stops on a width
/// threshold, so its cost is a step function of the weights: redrawing
/// them moves one op between 0.12 s and 1.4 s on one structure, while
/// ±0.01 leaves the explored tree within ±9 % branches (measured) and
/// still makes every seed's answers bitwise different.
const APPROX_JITTER: f64 = 0.01;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// d-DNNF compile + weighted model count.
    Exact,
    /// Hybrid ε-approximation on the decision-tree engine.
    Approx,
}

/// Shape of one workload's instances. The structure (points, lineage)
/// of each instance comes from a listed structure seed — part of the
/// workload's definition, like `n` — because compile cost varies ±30 %
/// with it; `--seed` draws the probabilities and the visiting order.
#[derive(Debug, Clone, Copy)]
struct Shape {
    engine: Engine,
    structure_seeds: &'static [u64],
    n: usize,
    k: usize,
    iterations: usize,
    scheme: Scheme,
    certain_frac: f64,
}

const EXACT: Shape = Shape {
    engine: Engine::Exact,
    structure_seeds: &[1, 2, 3, 4, 5, 6, 7, 8],
    n: 16,
    k: 2,
    iterations: 2,
    scheme: Scheme::Positive { l: 8, v: 14 },
    certain_frac: 0.0,
};

const APPROX: Shape = Shape {
    engine: Engine::Approx,
    // Two structures whose hybrid run (≈0.4 s) weighs about as much as
    // their translate (≈0.5 s); on others it takes 0.1 s to 1.6 s.
    structure_seeds: &[2, 6],
    n: 80,
    k: 2,
    iterations: 3,
    scheme: Scheme::Positive { l: 8, v: 16 },
    certain_frac: 0.5,
};

impl Shape {
    /// The small twin (n=16, v=8) of this shape, where the naïve
    /// possible-worlds interpreter is affordable (256 worlds).
    fn twin(self) -> Shape {
        Shape {
            structure_seeds: &[],
            n: 16,
            scheme: Scheme::Positive { l: 4, v: 8 },
            ..self
        }
    }
}

struct Instance {
    structure_seed: u64,
    env: enframe::translate::ProbEnv,
    vt: VarTable,
    /// Tree-exact probabilities (exact workload, twin, `--verify-full`).
    reference: Option<Vec<f64>>,
}

/// What one op produced, kept for the checks after the timed region.
struct OpOutput {
    lower: Vec<f64>,
    upper: Vec<f64>,
    network_nodes: usize,
    dnnf_steps: u64,
    dnnf_nodes: usize,
}

/// The whole pipeline on one instance, one span per layer.
fn run_op(engine: Engine, inst: &Instance, rec: &mut Recorder) -> Result<OpOutput, String> {
    rec.span("op", |rec| {
        let ast = rec
            .span("lang.parse", |_| parse(K_MEDOIDS))
            .map_err(|e| format!("parse: {e}"))?;
        let tr = rec.span("translate.translate", |_| {
            translate(&ast, &inst.env).map(|mut tr| {
                add_all_bool_targets(&mut tr, "Centre");
                tr
            })
        });
        let tr = tr.map_err(|e| format!("translate: {e}"))?;
        let ground = rec
            .span("core.ground", |_| tr.ground())
            .map_err(|e| format!("ground: {e}"))?;
        let net = rec
            .span("network.build", |_| Network::build(&ground))
            .map_err(|e| format!("network: {e}"))?;
        let network_nodes = net.len();
        match engine {
            Engine::Exact => {
                let compiled = rec.span("obdd.dnnf_compile", |_| {
                    DnnfEngine::compile(&net, &DnnfOptions::default())
                });
                let compiled = compiled.map_err(|e| format!("d-DNNF compile: {e}"))?;
                let probs = rec.span("obdd.dnnf_wmc", |_| compiled.probabilities(&inst.vt));
                Ok(OpOutput {
                    lower: probs.clone(),
                    upper: probs,
                    network_nodes,
                    dnnf_steps: compiled.stats().expansion_steps,
                    dnnf_nodes: compiled.stats().nodes,
                })
            }
            Engine::Approx => {
                let res = rec.span("prob.hybrid", |_| {
                    compile(&net, &inst.vt, Options::approx(Strategy::Hybrid, EPSILON))
                });
                Ok(OpOutput {
                    lower: res.lower,
                    upper: res.upper,
                    network_nodes,
                    dnnf_steps: 0,
                    dnnf_nodes: 0,
                })
            }
        }
    })
}

/// Tree-exact probabilities of an instance: `enframe_prob`, an
/// independent crate and algorithm from the d-DNNF route.
fn tree_exact(inst: &Instance) -> Vec<f64> {
    let ast = parse(K_MEDOIDS).expect("canonical program parses");
    let mut tr = translate(&ast, &inst.env).expect("translation succeeds");
    add_all_bool_targets(&mut tr, "Centre");
    let net = Network::build(&tr.ground().expect("grounds")).expect("network builds");
    compile(&net, &inst.vt, Options::exact()).lower
}

/// Generates one instance per structure seed. A seed whose lineage is
/// degenerate (`certain_frac` can round every group certain, leaving a
/// two-node network that measures nothing) is re-derived until it is not.
fn generate(shape: Shape, structure_seeds: &[u64], weights: &mut Rng) -> Vec<Instance> {
    let opts = LineageOpts {
        certain_frac: shape.certain_frac,
        ..LineageOpts::default()
    };
    let mut out = Vec::new();
    for &listed in structure_seeds {
        let mut structure_seed = listed;
        let w = loop {
            let w = kmedoids_workload(
                shape.n,
                shape.k,
                shape.iterations,
                shape.scheme,
                &opts,
                structure_seed,
            );
            let objects = w.env.objects().expect("clustering env has objects");
            let uncertain = objects
                .lineage
                .iter()
                .filter(|e| !matches!(***e, Event::Tru))
                .count();
            if 4 * uncertain >= shape.n {
                break w;
            }
            structure_seed += 1_000;
        };
        let vt = match shape.engine {
            Engine::Exact => draw_weights(weights, w.vt.len()),
            Engine::Approx => jitter_weights(weights, &w.vt, APPROX_JITTER),
        };
        out.push(Instance {
            structure_seed,
            env: w.env,
            vt,
            reference: None,
        });
    }
    out
}

fn within(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| (x - y).abs() <= tol)
}

/// The checks on one op's output that do not need another engine.
fn output_is_sound(engine: Engine, out: &OpOutput, reference: Option<&Vec<f64>>) -> bool {
    let ordered = out
        .lower
        .iter()
        .zip(&out.upper)
        .all(|(&l, &u)| 0.0 <= l && l <= u && u <= 1.0);
    let tight = match engine {
        Engine::Exact => true,
        Engine::Approx => out
            .lower
            .iter()
            .zip(&out.upper)
            .all(|(l, u)| u - l <= 2.0 * EPSILON + 1e-12),
    };
    let agrees = reference.is_none_or(|r| match engine {
        Engine::Exact => within(&out.lower, r, TOLERANCE),
        Engine::Approx => {
            r.len() == out.lower.len()
                && r.iter()
                    .zip(out.lower.iter().zip(&out.upper))
                    .all(|(x, (l, u))| l - TOLERANCE <= *x && *x <= u + TOLERANCE)
        }
    });
    ordered && tight && agrees
}

/// The twin check: on a small instance from the same generator, the
/// engine under test, tree-exact and the naïve possible-worlds
/// interpreter agree — the independent check of translate, ground and
/// network. Returns whether they did and the naïve run's seconds.
fn twin_check(shape: Shape, seed: u64) -> (bool, f64) {
    let twin = shape.twin();
    let mut rng = Rng::derive(seed, 0x7717);
    // The twin's structure comes from the seed too: its cost (256
    // worlds) does not depend on it.
    let structure_seed = 1 + rng.next_u64() % 1_000_000;
    let mut inst = generate(twin, &[structure_seed], &mut rng).remove(0);
    inst.vt = draw_weights(&mut rng, inst.vt.len());
    let exact = tree_exact(&inst);
    let t0 = Instant::now();
    let ast = parse(K_MEDOIDS).expect("canonical program parses");
    let naive = naive_probabilities(
        &ast,
        &inst.env,
        &inst.vt,
        bool_matrix("Centre", twin.k, twin.n),
    );
    let naive_s = t0.elapsed().as_secs_f64();
    let ok = match (
        naive,
        run_op(shape.engine, &inst, &mut Recorder::disabled()),
    ) {
        (Ok(naive), Ok(out)) => {
            within(&naive.probabilities, &exact, TOLERANCE)
                && output_is_sound(shape.engine, &out, Some(&exact))
        }
        _ => false,
    };
    (ok, naive_s)
}

struct Setup {
    instances: Vec<Instance>,
    twin_ok: bool,
    warmup_ok: bool,
    generate_s: f64,
    exact_ref_s: f64,
    naive_twin_s: f64,
}

/// Everything before the first timed op: generation, reference
/// computation, the twin check and one warm-up op.
fn setup(shape: Shape, cfg: &Config) -> Setup {
    let t0 = Instant::now();
    let mut instances = generate(
        shape,
        shape.structure_seeds,
        &mut Rng::derive(cfg.seed, 0x3e19),
    );
    // The seed also picks where the round-robin starts.
    let start = (cfg.seed % instances.len() as u64) as usize;
    instances.rotate_left(start);
    let generate_s = t0.elapsed().as_secs_f64();
    let mut ref_times = Vec::new();
    if shape.engine == Engine::Exact || cfg.verify_full {
        for inst in &mut instances {
            let t = Instant::now();
            inst.reference = Some(tree_exact(inst));
            ref_times.push(t.elapsed().as_secs_f64());
        }
    }
    let (twin_ok, naive_twin_s) = twin_check(shape, cfg.seed);
    let warmup_ok = run_op(shape.engine, &instances[0], &mut Recorder::disabled()).is_ok();
    Setup {
        instances,
        twin_ok,
        warmup_ok,
        generate_s,
        exact_ref_s: median_or_zero(&ref_times),
        naive_twin_s,
    }
}

struct Loop {
    /// `(instance index, output)` per op.
    outputs: Vec<(usize, Result<OpOutput, String>)>,
    /// One window per round-robin cycle, holding its ops' wall times.
    cycles: Vec<Window>,
    wall_s: f64,
}

impl Loop {
    fn op_walls_ms(&self) -> Vec<f64> {
        self.cycles
            .iter()
            .flat_map(|c| c.latencies.iter().copied())
            .collect()
    }

    fn rate(&self) -> f64 {
        self.outputs.len() as f64 / self.wall_s
    }
}

/// The closed loop, one caller: whole round-robin cycles over the
/// instances until `seconds` have passed, so every instance is run
/// equally often.
fn timed_loop(shape: Shape, instances: &[Instance], seconds: f64, rec: &mut Recorder) -> Loop {
    let mut outputs = Vec::new();
    let mut cycles = Vec::new();
    let t0 = Instant::now();
    loop {
        let cycle_start = Instant::now();
        let mut latencies = Vec::with_capacity(instances.len());
        for (i, inst) in instances.iter().enumerate() {
            rec.set_op(outputs.len() as u64);
            let t = Instant::now();
            let out = std::hint::black_box(run_op(shape.engine, std::hint::black_box(inst), rec));
            latencies.push(t.elapsed().as_secs_f64() * 1e3);
            outputs.push((i, out));
        }
        cycles.push(Window {
            latencies,
            seconds: cycle_start.elapsed().as_secs_f64(),
        });
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    Loop {
        outputs,
        cycles,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Counts the ops of a finished loop that failed a check: errored,
/// unsound bounds, disagreement with tree-exact, or a repeat that is
/// not bitwise-equal to the instance's first answer.
fn count_failed(shape: Shape, instances: &[Instance], lp: &Loop) -> u64 {
    let mut first: Vec<Option<&OpOutput>> = vec![None; instances.len()];
    let mut failed = 0;
    for (i, out) in &lp.outputs {
        let ok = match out {
            Err(e) => {
                eprintln!(
                    "op on structure seed {} failed: {e}",
                    instances[*i].structure_seed
                );
                false
            }
            Ok(out) => {
                let f = *first[*i].get_or_insert(out);
                output_is_sound(shape.engine, out, instances[*i].reference.as_ref())
                    && bitwise_eq(&out.lower, &f.lower)
                    && bitwise_eq(&out.upper, &f.upper)
            }
        };
        failed += u64::from(!ok);
    }
    failed
}

pub fn run(engine: Engine, cfg: &Config) -> RunResult {
    let shape = match engine {
        Engine::Exact => EXACT,
        Engine::Approx => APPROX,
    };
    let (su, setup_s) = repeat_setup(cfg.setup_reps, |_| setup(shape, cfg));
    let seeds: Vec<u64> = su.instances.iter().map(|i| i.structure_seed).collect();
    println!("structure seeds (visiting order): {seeds:?}");

    let plain = timed_loop(
        shape,
        &su.instances,
        cfg.untraced_seconds(),
        &mut Recorder::disabled(),
    );
    let mut attempted = plain.outputs.len() as u64 + 2;
    let mut failed = count_failed(shape, &su.instances, &plain)
        + u64::from(!su.twin_ok)
        + u64::from(!su.warmup_ok);
    if !su.twin_ok {
        eprintln!("twin check failed: engine, tree-exact and naive disagree");
    }
    println!(
        "untraced: {} ops in {:.3} s ({} cycles; whole-run p50 {:.3} ms, {:.4} ops/s)",
        plain.outputs.len(),
        plain.wall_s,
        plain.cycles.len(),
        median(&plain.op_walls_ms()),
        plain.rate()
    );
    if !cfg.trace {
        return RunResult {
            attempted,
            failed,
            metrics: end_to_end(setup_s, &plain.cycles),
        };
    }

    enframe::telemetry::reset();
    enframe::telemetry::set_enabled(true);
    let mut rec = Recorder::new(true, Instant::now(), 0);
    let traced = timed_loop(shape, &su.instances, cfg.seconds / 2.0, &mut rec);
    enframe::telemetry::set_enabled(false);
    attempted += traced.outputs.len() as u64;
    failed += count_failed(shape, &su.instances, &traced);

    let mut metrics = Metrics::default();
    let stage = |name: &str| median_or_zero(&self_seconds(&rec.spans, name));
    metrics.set("lang.parse_s", stage("lang.parse"));
    metrics.set("translate.translate_s", stage("translate.translate"));
    metrics.set("core.ground_s", stage("core.ground"));
    metrics.set("network.build_s", stage("network.build"));
    metrics.set("prob.hybrid_s", stage("prob.hybrid"));
    metrics.set("obdd.dnnf_compile_s", stage("obdd.dnnf_compile"));
    metrics.set("obdd.dnnf_wmc_s", stage("obdd.dnnf_wmc"));
    metrics.set("prob.exact_ref_s", su.exact_ref_s);
    metrics.set("worlds.naive_twin_s", su.naive_twin_s);
    metrics.set("data.generate_s", su.generate_s);

    // Counts over one pass of the instance pool; they depend on the
    // structures only, so they repeat exactly across runs and seeds.
    let one_cycle = || {
        traced
            .outputs
            .iter()
            .take(su.instances.len())
            .filter_map(|(_, o)| o.as_ref().ok())
    };
    metrics.set(
        "network.nodes",
        one_cycle().map(|o| o.network_nodes as f64).sum(),
    );
    metrics.set(
        "obdd.dnnf_steps",
        one_cycle().map(|o| o.dnnf_steps as f64).sum(),
    );
    metrics.set(
        "obdd.dnnf_nodes",
        one_cycle().map(|o| o.dnnf_nodes as f64).sum(),
    );
    let wmc_s = stage("obdd.dnnf_wmc");
    if wmc_s > 0.0 {
        let nodes_per_op =
            one_cycle().map(|o| o.dnnf_nodes as f64).sum::<f64>() / su.instances.len() as f64;
        metrics.set("obdd.dnnf_wmc_nodes_per_s", nodes_per_op / wmc_s);
    }
    let max_width = traced
        .outputs
        .iter()
        .filter_map(|(_, o)| o.as_ref().ok())
        .flat_map(|o| o.lower.iter().zip(&o.upper).map(|(l, u)| u - l))
        .fold(0.0, f64::max);
    metrics.set("prob.max_width", max_width);

    // Coverage: the share of the ops' wall time that lies inside a
    // layer span. Below 0.9 a regression could hide between spans.
    let own = crate::trace::self_times_ns(&rec.spans);
    let (mut in_layers, mut in_ops) = (0u64, 0u64);
    for (s, own_ns) in rec.spans.iter().zip(&own) {
        if s.name == "op" {
            in_ops += s.dur_ns();
        } else {
            in_layers += own_ns;
        }
    }
    let coverage = in_layers as f64 / in_ops as f64;
    metrics.set("trace.coverage", coverage);
    metrics.set("trace.op_p50_ms", median(&traced.op_walls_ms()));
    metrics.set("trace.untraced_ops_per_s", plain.rate());
    metrics.set("trace.overhead_ratio", traced.rate() / plain.rate());
    if coverage < 0.9 {
        eprintln!("trace.coverage {coverage:.3} < 0.9: layer spans do not account for the op");
        failed += 1;
    }

    failed += save_trace(&cfg.workload, std::slice::from_ref(&rec));
    RunResult {
        attempted,
        failed,
        metrics,
    }
}
