//! The request → reply workloads: `serve_distinct`, `serve_repeat` and
//! `serve_churn`. A closed loop against one long-lived `QueryService`;
//! one op is one `query()`.

use crate::gen::{
    aligned_partners, churn_partners, draw_weights, lineage_query, LineageQuery, Rng, Zipf,
    CHURN_GROUPS,
};
use crate::json::Json;
use crate::report::{end_to_end, repeat_setup, save_trace, Metrics, RunResult};
use crate::stats::{median, percentile, tail_percentile, Window, WINDOWS};
use crate::trace::Recorder;
use crate::{bitwise_eq, host, Config};
use enframe::core::budget::Budget;
use enframe::core::VarTable;
use enframe::obdd::dnnf::{DnnfEngine, DnnfOptions};
use enframe::obdd::{ObddEngine, ObddOptions};
use enframe::serve::{Answer, Lineage, QueryService, ServeOptions};
use enframe::store::{fingerprint_dnnf, ArtifactStore};
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Two request streams, fixed regardless of the host. The end-to-end
/// metrics drive both from **one** caller thread; two caller threads
/// are a per-layer diagnostic (`serve.qps_2c`). With two busy threads
/// on the sizing host's two vCPUs the same sweep took 1.93 ms or 2.8 ms
/// for minutes at a time, depending on whether the hypervisor had the
/// vCPUs on one physical core (ten-run spreads of 9–27 % on structure-
/// identical work, against ≈2 % with one thread), so no bound would
/// hold on a two-caller number.
const CALLERS: usize = 2;
const TOLERANCE: f64 = 1e-9;
/// One reply in this many is kept and recomputed with the OBDD engine.
const SAMPLE_EVERY: u64 = 256;
const HOT_VECTORS: usize = 8;
/// `serve_churn`: lineages per caller (64 in all, against the default
/// memory tier of 32), and how often a caller swaps one out.
const CHURN_TABLE: usize = 32;
const CHURN_REPLACE_EVERY: u64 = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One resident lineage, a fresh weight vector per request.
    Distinct,
    /// One resident lineage, weights from a pool of eight hot vectors.
    Repeat,
    /// 64 lineages behind a 32-entry memory tier, with replacements.
    Churn,
}

/// One lineage of the working set: the service handle and the query it
/// was built from (kept for the reference engine).
struct Entry {
    lineage: Lineage,
    query: LineageQuery,
}

/// Structure `number` of a workload. `serve_distinct`/`serve_repeat`
/// have one (mutex chain, 50 groups, ≈144 k d-DNNF nodes, ≈2 ms a
/// sweep); `serve_churn` numbers the members of an equal-cost family of
/// 40-group chains (see [`churn_partners`]). Structures do not depend
/// on `--seed`: sweep, reload and compile cost follow the node count,
/// and the seed's job is the request stream.
fn make_entry(kind: Kind, number: u64) -> Arc<Entry> {
    let query = match kind {
        Kind::Distinct | Kind::Repeat => lineage_query(50, &aligned_partners(50)),
        Kind::Churn => lineage_query(CHURN_GROUPS, &churn_partners(number)),
    };
    let lineage = Lineage::dnnf(Arc::clone(&query.net), DnnfOptions::default());
    Arc::new(Entry { lineage, query })
}

/// One closed-loop client and the request stream its seed defines.
struct Caller {
    kind: Kind,
    id: usize,
    rng: Rng,
    table: Vec<Arc<Entry>>,
    zipf: Zipf,
    hot: Arc<Vec<VarTable>>,
    issued: u64,
    next_structure: u64,
}

struct Request {
    entry: Arc<Entry>,
    vt: VarTable,
    hot: Option<usize>,
    /// The lineage this request's new lineage replaced (`serve_churn`).
    retired: Option<Arc<Entry>>,
}

impl Caller {
    fn next_request(&mut self) -> Request {
        self.issued += 1;
        let mut retired = None;
        let entry = if self.kind == Kind::Churn && self.issued.is_multiple_of(CHURN_REPLACE_EVERY) {
            // Retire a cold lineage (lower half of the Zipf ranks): the
            // hot set keeps its structures, so a hit costs the same on
            // every seed.
            let cold = self.table.len() / 2;
            let slot = cold + self.rng.below(self.table.len() - cold);
            let fresh = make_entry(self.kind, self.next_structure);
            self.next_structure += CALLERS as u64;
            retired = Some(std::mem::replace(&mut self.table[slot], Arc::clone(&fresh)));
            fresh
        } else {
            Arc::clone(&self.table[self.zipf.sample(&mut self.rng)])
        };
        let hot = (self.kind == Kind::Repeat).then(|| self.rng.below(HOT_VECTORS));
        let vt = match hot {
            Some(h) => self.hot[h].clone(),
            None => draw_weights(&mut self.rng, entry.query.n_vars),
        };
        Request {
            entry,
            vt,
            hot,
            retired,
        }
    }
}

/// A reply kept for the reference check after the run.
struct Sample {
    entry: Arc<Entry>,
    vt: VarTable,
    probs: Vec<f64>,
}

/// What one caller saw during one phase.
#[derive(Default)]
struct Drive {
    latency_ms: Vec<f64>,
    /// Seconds into the phase at which each reply arrived.
    done_at_s: Vec<f64>,
    samples: Vec<Sample>,
    failed: u64,
    loop_s: f64,
}

/// One thread's closed loop: issues requests until `seconds` have
/// passed, each after the previous reply arrived, taking them in turn
/// from `streams` (both streams on the one caller thread; one stream per
/// thread in the two-caller pass, so both have the same working set).
/// Only `query()` is inside the latency clock; building the request and
/// checking the reply are not.
fn drive(
    svc: &QueryService,
    store: &ArtifactStore,
    streams: &mut [Caller],
    seconds: f64,
    rec: &mut Recorder,
) -> Drive {
    let mut d = Drive::default();
    let mut hot_first: Vec<Option<Vec<f64>>> = vec![None; HOT_VECTORS];
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs_f64(seconds);
    let mut turn = 0;
    while Instant::now() < deadline {
        let caller = &mut streams[turn % streams.len()];
        turn += 1;
        let req = caller.next_request();
        rec.set_op(caller.issued * CALLERS as u64 + caller.id as u64);
        let t = Instant::now();
        let reply = rec.span("serve.query", |_| {
            svc.query(
                &req.entry.lineage,
                std::hint::black_box(&req.vt),
                Budget::unlimited(),
            )
        });
        d.latency_ms.push(t.elapsed().as_secs_f64() * 1e3);
        d.done_at_s.push(t0.elapsed().as_secs_f64());
        if let Some(old) = &req.retired {
            let gone = store.remove(old.lineage.kind(), old.lineage.fingerprint());
            d.failed += u64::from(gone.is_err());
        }
        // An error, or `Degraded` under an unlimited budget, is a failure.
        let Ok(Answer::Exact(probs)) = reply.map(|r| r.answer) else {
            d.failed += 1;
            continue;
        };
        if let Some(h) = req.hot {
            // Identical queries must get bitwise-identical answers.
            match &hot_first[h] {
                Some(first) => d.failed += u64::from(!bitwise_eq(first, &probs)),
                None => {
                    hot_first[h] = Some(probs.clone());
                    d.samples.push(Sample {
                        entry: Arc::clone(&req.entry),
                        vt: req.vt.clone(),
                        probs: probs.clone(),
                    });
                }
            }
        }
        if caller.issued.is_multiple_of(SAMPLE_EVERY) {
            d.samples.push(Sample {
                entry: req.entry,
                vt: req.vt,
                probs,
            });
        }
    }
    d.loop_s = t0.elapsed().as_secs_f64();
    d
}

fn reference_engine(entry: &Entry) -> ObddEngine {
    let opts = ObddOptions {
        groups: entry.query.groups.clone(),
        ..ObddOptions::default()
    };
    ObddEngine::compile(&entry.query.net, &opts).expect("reference OBDD compiles")
}

/// Recomputes every sample with the OBDD engine (a different compiled
/// form and counting algorithm) and counts the ones that disagree.
fn count_wrong(samples: &[Sample]) -> u64 {
    let mut cached: Option<(*const Entry, ObddEngine)> = None;
    let mut wrong = 0;
    for s in samples {
        let key = Arc::as_ptr(&s.entry);
        if cached.as_ref().is_none_or(|(k, _)| *k != key) {
            cached = Some((key, reference_engine(&s.entry)));
        }
        let expect = cached.as_ref().expect("just filled").1.probabilities(&s.vt);
        let ok = expect.len() == s.probs.len()
            && expect
                .iter()
                .zip(&s.probs)
                .all(|(a, b)| (a - b).abs() <= TOLERANCE);
        wrong += u64::from(!ok);
    }
    wrong
}

struct Setup {
    store_dir: PathBuf,
    store: ArtifactStore,
    svc: QueryService,
    callers: Vec<Caller>,
    generate_s: f64,
    first_resolve_failed: u64,
    first_resolves: u64,
}

impl Drop for Setup {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.store_dir);
    }
}

/// Everything before the first timed request: building the lineages, a
/// fresh store directory and service, and the first resolve (compile +
/// persist) of every lineage, each checked against the OBDD engine.
fn setup(kind: Kind, cfg: &Config, rep: usize) -> Setup {
    let store_dir = host::out_dir().join(format!("store-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = ArtifactStore::new(&store_dir);
    let svc = QueryService::new(ServeOptions {
        store: Some(store.clone()),
        ..ServeOptions::default()
    });
    let t0 = Instant::now();
    let shared = make_entry(kind, 0);
    let hot: Arc<Vec<VarTable>> = Arc::new({
        let mut rng = Rng::derive(cfg.seed, 0x407);
        (0..HOT_VECTORS)
            .map(|_| draw_weights(&mut rng, shared.query.n_vars))
            .collect()
    });
    let callers: Vec<Caller> = (0..CALLERS)
        .map(|id| {
            let table = match kind {
                Kind::Churn => (0..CHURN_TABLE)
                    .map(|i| make_entry(kind, (id * CHURN_TABLE + i) as u64))
                    .collect(),
                _ => vec![Arc::clone(&shared)],
            };
            Caller {
                kind,
                id,
                rng: Rng::derive(cfg.seed, 0x5e7 + id as u64),
                zipf: Zipf::new(table.len(), 1.0),
                table,
                hot: Arc::clone(&hot),
                issued: 0,
                next_structure: (CALLERS * CHURN_TABLE + id) as u64,
            }
        })
        .collect();
    let generate_s = t0.elapsed().as_secs_f64();

    let to_resolve: Vec<Arc<Entry>> = match kind {
        Kind::Churn => callers
            .iter()
            .flat_map(|c| c.table.iter().cloned())
            .collect(),
        _ => vec![shared],
    };
    let mut rng = Rng::derive(cfg.seed, 0xf125);
    let mut samples = Vec::new();
    let mut first_resolve_failed = 0;
    for entry in &to_resolve {
        let vt = draw_weights(&mut rng, entry.query.n_vars);
        match svc
            .query(&entry.lineage, &vt, Budget::unlimited())
            .map(|r| r.answer)
        {
            Ok(Answer::Exact(probs)) => samples.push(Sample {
                entry: Arc::clone(entry),
                vt,
                probs,
            }),
            _ => first_resolve_failed += 1,
        }
    }
    // Every lineage's first answer is checked on the single-lineage
    // workloads; on churn (64 reference compiles) one in eight is.
    let step = if kind == Kind::Churn { 8 } else { 1 };
    let checked: Vec<Sample> = samples.into_iter().step_by(step).collect();
    first_resolve_failed += count_wrong(&checked);
    Setup {
        store_dir,
        store,
        svc,
        first_resolves: to_resolve.len() as u64,
        callers,
        generate_s,
        first_resolve_failed,
    }
}

/// One closed-loop phase of the set-up's request streams.
struct Phase {
    drives: Vec<Drive>,
    recorders: Vec<Recorder>,
    wall_s: f64,
}

impl Phase {
    fn latencies(&self) -> Vec<f64> {
        self.drives
            .iter()
            .flat_map(|d| d.latency_ms.iter().copied())
            .collect()
    }

    /// The phase cut into `WINDOWS` consecutive windows of equally many
    /// replies (of all callers, in arrival order); a window lasts from
    /// the previous window's last reply to its own.
    fn windows(&self) -> Vec<Window> {
        let mut replies: Vec<(f64, f64)> = self
            .drives
            .iter()
            .flat_map(|d| {
                d.done_at_s
                    .iter()
                    .copied()
                    .zip(d.latency_ms.iter().copied())
            })
            .collect();
        replies.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut start = 0.0;
        replies
            .chunks(replies.len().div_ceil(WINDOWS).max(1))
            .map(|chunk| {
                let end = chunk[chunk.len() - 1].0;
                let window = Window {
                    latencies: chunk.iter().map(|r| r.1).collect(),
                    seconds: end - start,
                };
                start = end;
                window
            })
            .collect()
    }

    fn queries(&self) -> usize {
        self.drives.iter().map(|d| d.latency_ms.len()).sum()
    }

    fn qps(&self) -> f64 {
        self.queries() as f64 / self.wall_s
    }

    /// Failed requests plus sampled replies the reference engine rejects.
    fn failed(&self) -> u64 {
        self.drives
            .iter()
            .map(|d| d.failed + count_wrong(&d.samples))
            .sum()
    }
}

/// Runs the request streams on `threads` caller threads for `seconds`.
fn closed_loop(su: &mut Setup, threads: usize, seconds: f64, traced: bool) -> Phase {
    let barrier = Barrier::new(threads + 1);
    let epoch = Instant::now();
    let (svc, store) = (&su.svc, &su.store);
    let (results, wall_s) = std::thread::scope(|s| {
        let handles: Vec<_> = su
            .callers
            .chunks_mut(CALLERS / threads)
            .map(|streams| {
                let barrier = &barrier;
                s.spawn(move || {
                    let mut rec = Recorder::new(traced, epoch, streams[0].id as u32);
                    barrier.wait();
                    let d = drive(svc, store, streams, seconds, &mut rec);
                    (d, rec)
                })
            })
            .collect();
        // The clock starts before the release: callers cannot pass the
        // barrier until this thread arrives.
        let t0 = Instant::now();
        barrier.wait();
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("caller thread"))
            .collect();
        (results, t0.elapsed().as_secs_f64())
    });
    let (drives, recorders) = results.into_iter().unzip();
    Phase {
        drives,
        recorders,
        wall_s,
    }
}

pub fn run(kind: Kind, cfg: &Config) -> RunResult {
    let (mut su, setup_s) = repeat_setup(cfg.setup_reps, |rep| setup(kind, cfg, rep));
    let plain = closed_loop(&mut su, 1, cfg.untraced_seconds(), false);
    let mut attempted = plain.queries() as u64 + su.first_resolves;
    let mut failed = plain.failed() + su.first_resolve_failed;
    let lat = plain.latencies();
    println!(
        "untraced: {} queries by 1 caller in {:.3} s (whole-run p50 {:.4} ms, {:.2} queries/s)",
        lat.len(),
        plain.wall_s,
        median(&lat),
        plain.qps()
    );

    if !cfg.trace {
        return RunResult {
            attempted,
            failed,
            metrics: end_to_end(setup_s, &plain.windows()),
        };
    }

    let mut metrics = Metrics::default();
    let tail = tail_percentile(lat.len());
    metrics.set("serve.query_p90_ms", percentile(&lat, 90.0));
    metrics.set("serve.query_tail_ms", percentile(&lat, tail));
    metrics.set("serve.query_tail_pct", tail);
    metrics.set("trace.untraced_ops_per_s", plain.qps());
    metrics.set("data.generate_s", su.generate_s);

    // Traced phase: harness spans around query(), library telemetry on
    // for the counters only the service can see.
    enframe::telemetry::reset();
    enframe::telemetry::set_enabled(true);
    let traced = closed_loop(&mut su, 1, cfg.seconds / 4.0, true);
    let snapshot = Json::parse(&enframe::telemetry::snapshot().to_json());
    enframe::telemetry::set_enabled(false);
    attempted += traced.queries() as u64;
    failed += traced.failed();
    metrics.set("trace.op_p50_ms", median(&traced.latencies()));
    metrics.set("trace.overhead_ratio", traced.qps() / plain.qps());
    let in_query: u64 = traced
        .recorders
        .iter()
        .flat_map(|r| &r.spans)
        .map(|s| s.dur_ns())
        .sum();
    let in_loops: f64 = traced.drives.iter().map(|d| d.loop_s).sum();
    metrics.set("trace.coverage", in_query as f64 * 1e-9 / in_loops);
    // Counters are read by key name: a key a later PR drops leaves its
    // metric at 0 here instead of breaking the build.
    let counter = |key: &str| {
        snapshot
            .as_ref()
            .ok()
            .and_then(|s| s.get(key))
            .and_then(Json::as_f64)
    };
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    let resolves = counter("serve_mem_hits")
        .zip(counter("serve_mem_misses"))
        .map(|(h, m)| h + m);
    let loads = counter("store_hits")
        .zip(counter("store_misses"))
        .map(|(h, m)| h + m);
    for (name, value) in [
        (
            "serve.mem_hit_ratio",
            ratio(counter("serve_mem_hits"), resolves),
        ),
        ("serve.store_hit_ratio", ratio(counter("store_hits"), loads)),
        (
            "serve.coalesced_ratio",
            ratio(counter("serve_coalesces"), resolves),
        ),
        ("serve.compiles", counter("store_misses")),
    ] {
        if let Some(v) = value {
            metrics.set(name, v);
        }
    }
    failed += save_trace(&cfg.workload, &traced.recorders);

    // Two caller threads, one stream each: what a second client adds.
    let two = closed_loop(&mut su, CALLERS, cfg.seconds / 4.0, false);
    attempted += two.queries() as u64;
    failed += two.failed();
    metrics.set("serve.qps_2c", two.qps());
    metrics.set("serve.scaling_2c", two.qps() / plain.qps());
    // Layer probe, single-threaded: query() cannot be decomposed from
    // outside, so the layers under it are timed directly.
    probe_layers(&su, cfg, &mut metrics);

    RunResult {
        attempted,
        failed,
        metrics,
    }
}

/// Times the layers under `query()` directly on caller 0's hottest
/// lineage: d-DNNF compile and sweep, store save and load (with its
/// revalidation) and the OBDD route; and the service's own overhead.
fn probe_layers(su: &Setup, cfg: &Config, metrics: &mut Metrics) {
    let reps = if cfg.smoke { 2 } else { 5 };
    let sweeps = if cfg.smoke { 20 } else { 200 };
    let entry = &su.callers[0].table[0];
    let net = &entry.query.net;
    let opts = DnnfOptions::default();
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };

    let mut engine = None;
    let compile_s: Vec<f64> = (0..reps)
        .map(|_| {
            timed(&mut || engine = Some(DnnfEngine::compile(net, &opts).expect("probe compile")))
        })
        .collect();
    // A d-DNNF node's children are a heap vector each, so sweep speed
    // follows the heap the artifact was compiled into (2.09 ms for the
    // first compile of a process, 2.3–3.7 ms for later compiles of the
    // same 144 k-node lineage): this copy can sweep slower than the
    // service's resident one.
    let engine = engine.expect("compiled at least once");
    let nodes = engine.stats().nodes as f64;
    metrics.set("obdd.dnnf_compile_s", median(&compile_s));
    metrics.set("obdd.dnnf_steps", engine.stats().expansion_steps as f64);
    metrics.set("obdd.dnnf_nodes", nodes);
    metrics.set("network.nodes", net.len() as f64);

    let mut rng = Rng::derive(cfg.seed, 0x9a0b);
    let weights: Vec<VarTable> = (0..sweeps)
        .map(|_| draw_weights(&mut rng, entry.query.n_vars))
        .collect();
    let sweep_s: Vec<f64> = weights
        .iter()
        .map(|vt| timed(&mut || drop(std::hint::black_box(engine.probabilities(vt)))))
        .collect();
    metrics.set("obdd.dnnf_wmc_s", median(&sweep_s));
    metrics.set("obdd.dnnf_wmc_nodes_per_s", nodes / median(&sweep_s));

    // The service's own cost per request: query() on a resident
    // four-group lineage, whose sweep (a few dozen nodes) is noise.
    let tiny = lineage_query(4, &aligned_partners(4));
    let tiny_lineage = Lineage::dnnf(Arc::clone(&tiny.net), opts.clone());
    let tiny_vt = draw_weights(&mut rng, tiny.n_vars);
    let overhead_s: Vec<f64> = (0..=sweeps)
        .map(|_| timed(&mut || drop(std::hint::black_box(su.svc.query(&tiny_lineage, &tiny_vt, Budget::unlimited())))))
        .skip(1) // the first query compiles
        .collect();
    metrics.set("serve.overhead_us", median(&overhead_s) * 1e6);

    let probe_store = ArtifactStore::new(su.store_dir.join("probe"));
    let fp = fingerprint_dnnf(net, &opts);
    let save_s: Vec<f64> = (0..reps)
        .map(|_| {
            timed(&mut || {
                drop(
                    probe_store
                        .save_dnnf(fp, &engine, &weights[0])
                        .expect("probe save"),
                )
            })
        })
        .collect();
    let load_s: Vec<f64> = (0..reps)
        .map(|_| timed(&mut || drop(probe_store.load_dnnf(fp, 1).expect("probe load"))))
        .collect();
    metrics.set("store.save_s", median(&save_s));
    metrics.set("store.load_s", median(&load_s));
    let bytes =
        std::fs::metadata(probe_store.path_for(entry.lineage.kind(), fp)).map_or(0, |m| m.len());
    metrics.set("store.bytes_per_node", bytes as f64 / nodes);

    let mut reference = None;
    let bdd_compile_s: Vec<f64> = (0..reps)
        .map(|_| timed(&mut || reference = Some(reference_engine(entry))))
        .collect();
    let reference = reference.expect("compiled at least once");
    let bdd_wmc_s: Vec<f64> = weights
        .iter()
        .map(|vt| timed(&mut || drop(std::hint::black_box(reference.probabilities(vt)))))
        .collect();
    metrics.set("obdd.bdd_compile_s", median(&bdd_compile_s));
    metrics.set("obdd.bdd_wmc_s", median(&bdd_wmc_s));
}
