//! Whole-suite commands: `run-all` (every workload, untraced and
//! traced, each in its own child process so `peak_rss_mb` is clean),
//! `labels` (the gates that check each workload measures what it is
//! labelled with) and `agree` (two sets of runs of the same code must
//! agree within the benchmark's own bounds).

use crate::json::Json;
use crate::report::{END_TO_END, PER_LAYER};
use crate::stats::{median, spread};
use crate::{host, Args, WORKLOADS};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};

/// Counts that depend on the inputs' structure only and must therefore
/// be identical in every traced run of a workload.
const EXACT_COUNTS: [&str; 3] = ["network.nodes", "obdd.dnnf_steps", "obdd.dnnf_nodes"];

/// One child run's result.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    pub workload: String,
    pub trace: bool,
    pub seed: u64,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Run {
    /// Reads a run from a result line (`{"metrics": {name: {"value": v}}}`,
    /// identity supplied by the caller) or from a set file entry
    /// (`{"workload": …, "metrics": {name: v}}`).
    fn from_json(j: &Json, identity: Option<(&str, bool, u64)>) -> Option<Run> {
        let (workload, trace, seed) = match identity {
            Some(id) => id,
            None => (
                j.get("workload")?.as_str()?,
                j.get("trace")?.as_f64()? != 0.0,
                j.get("seed")?.as_f64()? as u64,
            ),
        };
        let Json::Obj(ms) = j.get("metrics")? else {
            return None;
        };
        let value = |m: &Json| m.as_f64().or_else(|| m.get("value")?.as_f64());
        Some(Run {
            workload: workload.to_string(),
            trace,
            seed,
            attempted: j.get("attempted")?.as_f64()? as u64,
            failed: j.get("failed")?.as_f64()? as u64,
            metrics: ms
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), value(m)?)))
                .collect(),
        })
    }

    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"workload\": \"{}\", \"trace\": {}, \"seed\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.workload,
            u8::from(self.trace),
            self.seed,
            self.attempted,
            self.failed
        );
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{k}\": {v}");
        }
        out.push_str("}}");
        out
    }
}

fn write_set(path: &Path, runs: &[Run]) -> std::io::Result<()> {
    let body: Vec<String> = runs.iter().map(|r| format!("  {}", r.to_json())).collect();
    std::fs::create_dir_all(path.parent().expect("set file has a directory"))?;
    std::fs::write(path, format!("{{\"runs\": [\n{}\n]}}\n", body.join(",\n")))
}

fn read_set(path: &str) -> Result<Vec<Run>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let j = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let runs = j
        .get("runs")
        .and_then(Json::as_arr)
        .ok_or(format!("{path}: no runs array"))?;
    runs.iter()
        .map(|r| Run::from_json(r, None).ok_or(format!("{path}: malformed run")))
        .collect()
}

/// Runs one workload in a child process of this same executable and
/// parses the result line it prints last.
fn spawn_run(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stderr(Stdio::inherit());
    if smoke {
        cmd.arg("--smoke");
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let (body, line) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{body}");
    let run = Json::parse(line)
        .ok()
        .and_then(|j| Run::from_json(&j, Some((workload, trace, seed))))
        .ok_or(format!("{workload}: no result line; exit {}", out.status))?;
    if !out.status.success() {
        eprintln!(
            "{workload}: exit {} with {} failed of {}",
            out.status, run.failed, run.attempted
        );
    }
    Ok(run)
}

fn values(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.trace == trace)
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect()
}

fn med(runs: &[Run], workload: &str, trace: bool, metric: &str) -> Option<f64> {
    let v = values(runs, workload, trace, metric);
    (!v.is_empty()).then(|| median(&v))
}

/// Run-to-run spread of a set's values as a share of their median:
/// the interquartile range from four runs on, the full range below.
fn set_spread(xs: &[f64]) -> f64 {
    if xs.len() >= 4 {
        return spread(xs);
    }
    let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    (hi - lo) / median(xs)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Agree,
    /// The medians differ by more than the bound.
    Differ,
    /// A set's own run-to-run spread exceeds the bound, so the sets
    /// can neither be said to agree nor to differ.
    Unresolved,
}

pub fn verdict(a: &[f64], b: &[f64], bound: f64) -> Verdict {
    if a.len() >= 2 && b.len() >= 2 && (set_spread(a) > bound || set_spread(b) > bound) {
        return Verdict::Unresolved;
    }
    let (ma, mb) = (median(a), median(b));
    // Both directions: B worse than A, or A worse than B.
    if (mb - ma).abs() / ma.min(mb) > bound {
        Verdict::Differ
    } else {
        Verdict::Agree
    }
}

/// Compares two sets on every workload × end-to-end metric and on the
/// counts that must repeat exactly. Returns whether they agree.
pub fn agree(a: &[Run], b: &[Run]) -> bool {
    let mut ok = true;
    println!(
        "\nagree: workload / metric: median A, median B, spread A, spread B, bound -> verdict"
    );
    for (w, _) in WORKLOADS {
        for d in &END_TO_END {
            let (va, vb) = (values(a, w, false, d.name), values(b, w, false, d.name));
            if va.is_empty() || vb.is_empty() {
                println!("  {w} / {}: missing in a set -> unresolved", d.name);
                ok = false;
                continue;
            }
            let v = verdict(&va, &vb, d.bound);
            let spread_of = |xs: &[f64]| if xs.len() >= 2 { set_spread(xs) } else { 0.0 };
            println!(
                "  {w} / {}: {:.6} {:.6} {} ({} is better), spread {:.3} {:.3}, bound {:.2} -> {}",
                d.name,
                median(&va),
                median(&vb),
                d.unit,
                d.better.as_str(),
                spread_of(&va),
                spread_of(&vb),
                d.bound,
                match v {
                    Verdict::Agree => "agree",
                    Verdict::Differ => "DIFFER",
                    Verdict::Unresolved => "UNRESOLVED",
                }
            );
            ok &= v == Verdict::Agree;
        }
        for name in EXACT_COUNTS {
            let mut all = values(a, w, true, name);
            all.extend(values(b, w, true, name));
            if all.windows(2).any(|p| p[0] != p[1]) {
                println!("  {w} / {name}: counts do not repeat exactly: {all:?}");
                ok = false;
            }
        }
    }
    ok
}

/// The gates that check every workload still measures what it is
/// labelled with. `(description, holds)`; a gate whose inputs are
/// missing does not hold.
pub fn label_gates(runs: &[Run]) -> Vec<(String, bool)> {
    let layer = |w: &str, m: &str| med(runs, w, true, m);
    let e2e = |w: &str, m: &str| med(runs, w, false, m);
    let mut gates = Vec::new();
    let mut gate = |desc: String, holds: Option<bool>| gates.push((desc, holds.unwrap_or(false)));
    let share = |w: &str, m: &str| Some(layer(w, m)? * 1e3 / layer(w, "trace.op_p50_ms")?);

    let s = share("kmedoids_exact", "obdd.dnnf_compile_s");
    gate(
        format!("kmedoids_exact: obdd.dnnf_compile_s is {s:.3?} of the op (>= 0.8)"),
        s.map(|s| s >= 0.8),
    );
    let s = share("kmedoids_approx", "translate.translate_s");
    gate(
        format!("kmedoids_approx: translate.translate_s is {s:.3?} of the op (>= 0.3)"),
        s.map(|s| s >= 0.3),
    );
    let s = share("kmedoids_approx", "prob.hybrid_s");
    gate(
        format!("kmedoids_approx: prob.hybrid_s is {s:.3?} of the op (>= 0.25)"),
        s.map(|s| s >= 0.25),
    );

    // What is not the service's own cost per request is the sweep.
    let s = layer("serve_distinct", "serve.overhead_us")
        .zip(e2e("serve_distinct", "op_p50_ms"))
        .map(|(overhead_us, p50_ms)| 1.0 - overhead_us * 1e-3 / p50_ms);
    gate(
        format!("serve_distinct: the sweep (op_p50_ms less serve.overhead_us) is {s:.3?} of op_p50_ms (>= 0.8)"),
        s.map(|s| s >= 0.8),
    );

    let s = e2e("serve_repeat", "op_p50_ms")
        .zip(e2e("serve_distinct", "op_p50_ms"))
        .map(|(r, d)| r / d);
    gate(
        format!("serve_repeat: op_p50_ms is {s:.3?} of serve_distinct's (within 10%: nothing is reused yet)"),
        s.map(|s| (0.9..=1.1).contains(&s)),
    );

    let hit = layer("serve_churn", "serve.mem_hit_ratio");
    gate(
        format!("serve_churn: serve.mem_hit_ratio {hit:.3?} within [0.5, 0.9]"),
        hit.map(|h| (0.5..=0.9).contains(&h)),
    );
    let c = "serve_churn";
    let p90 = layer(c, "serve.query_p90_ms");
    let load = layer(c, "store.load_s").map(|s| s * 1e3);
    let rebuild = layer(c, "obdd.dnnf_compile_s")
        .zip(layer(c, "store.save_s"))
        .map(|(a, b)| (a + b) * 1e3);
    gate(
        format!("serve_churn: store.load_s {load:.3?} ms <= serve.query_p90_ms {p90:.3?} <= compile+save {rebuild:.3?} ms"),
        (|| Some(load? <= p90? && p90? <= rebuild?))(),
    );
    gates
}

fn print_summary(runs: &[Run]) {
    println!("\nsummary (median over runs):");
    for (w, _) in WORKLOADS {
        println!("{w}");
        let (attempted, failed) = runs
            .iter()
            .filter(|r| r.workload == w)
            .fold((0, 0), |(a, f), r| (a + r.attempted, f + r.failed));
        for (defs, trace) in [(&END_TO_END[..], false), (&PER_LAYER[..], true)] {
            for d in defs {
                if let Some(v) = med(runs, w, trace, d.name) {
                    let n = values(runs, w, trace, d.name).len();
                    println!("  {:<28} {:>16.6} {:<6} (n={n})", d.name, v, d.unit);
                }
            }
        }
        let ratio = failed as f64 / attempted.max(1) as f64;
        println!(
            "  {:<28} {ratio:>16.6} ratio  ({failed} failed of {attempted} attempted)",
            "failed_ratio"
        );
    }
}

/// `run-all` and, with `strict_labels`, `labels`.
pub fn run_all(args: &Args, strict_labels: bool) -> Result<ExitCode, String> {
    let sets: usize = args.parsed("--sets", 1)?;
    let runs: usize = args.parsed("--runs", 1)?;
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let smoke = args.has("--smoke");
    println!(
        "run-all sets={sets} runs={runs} seconds={seconds} seed={seed} smoke={smoke} {}",
        host::describe()
    );
    let mut all_sets: Vec<Vec<Run>> = Vec::new();
    let mut ok = true;
    for set in 0..sets {
        let mut this = Vec::new();
        for run in 0..runs {
            for (w, _) in WORKLOADS {
                this.push(spawn_run(w, seed + run as u64, seconds, false, smoke)?);
                // One traced run per set gives the per-layer numbers;
                // it is never the source of an end-to-end number.
                if run == 0 {
                    this.push(spawn_run(w, seed, seconds, true, smoke)?);
                }
            }
        }
        let path = host::out_dir().join(format!("set-{set}.json"));
        write_set(&path, &this).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nset {set}: {}", path.display());
        print_summary(&this);
        ok &= this.iter().all(|r| r.failed == 0);
        for (desc, holds) in label_gates(&this) {
            // Outside `labels` a violated label is information, not a
            // failure: an optimisation may legitimately shift a share,
            // and the workload then needs a benchmark issue to re-size.
            println!(
                "  {} {desc}",
                if holds { "label-ok   " } else { "label-drift" }
            );
            ok &= holds || !strict_labels || smoke;
        }
        all_sets.push(this);
    }
    if !smoke {
        for pair in all_sets.windows(2) {
            ok &= agree(&pair[0], &pair[1]);
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `agree A.json B.json`
pub fn agree_files(args: &Args) -> Result<ExitCode, String> {
    let files = args.positional();
    let [a, b] = files[..] else {
        return Err("usage: benchmark agree A.json B.json".into());
    };
    let ok = agree(&read_set(a)?, &read_set(b)?);
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(workload: &str, trace: bool, metrics: &[(&str, f64)]) -> Run {
        Run {
            workload: workload.to_string(),
            trace,
            seed: 1,
            attempted: 10,
            failed: 0,
            metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
        }
    }

    #[test]
    fn verdicts() {
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[103.0, 104.0, 102.0], 0.05),
            Verdict::Agree
        );
        assert_eq!(
            verdict(&[100.0, 101.0, 99.0], &[110.0, 111.0, 109.0], 0.05),
            Verdict::Differ
        );
        // Both directions.
        assert_eq!(
            verdict(&[110.0, 111.0, 109.0], &[100.0, 101.0, 99.0], 0.05),
            Verdict::Differ
        );
        // A spread wider than the bound resolves nothing.
        assert_eq!(
            verdict(&[100.0, 120.0, 90.0], &[100.0, 101.0, 99.0], 0.05),
            Verdict::Unresolved
        );
        assert_eq!(verdict(&[100.0], &[104.0], 0.05), Verdict::Agree);
    }

    #[test]
    fn set_files_round_trip() {
        let runs = vec![
            run(
                "serve_churn",
                false,
                &[("op_p50_ms", 0.1375), ("ops_per_s", 1500.25)],
            ),
            run("serve_churn", true, &[("network.nodes", 321.0)]),
        ];
        let dir = host::out_dir().join(format!("test-{}", std::process::id()));
        let path = dir.join("set.json");
        write_set(&path, &runs).unwrap();
        let back = read_set(path.to_str().unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, runs);
    }

    #[test]
    fn result_line_parses_into_a_run() {
        let line = r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 1.5, "unit": "s"}}}"#;
        let id = Some(("kmedoids_exact", false, 3));
        let r = Run::from_json(&Json::parse(line).unwrap(), id).unwrap();
        assert_eq!((r.attempted, r.failed, r.seed), (7, 0, 3));
        assert_eq!(r.metrics["setup_s"], 1.5);
        assert!(Run::from_json(&Json::parse("{}").unwrap(), id).is_none());
    }

    #[test]
    fn counts_must_repeat_exactly() {
        let mut a = Vec::new();
        let mut b = Vec::new();
        for (w, _) in WORKLOADS {
            let e2e: Vec<(&str, f64)> = END_TO_END.iter().map(|d| (d.name, 2.0)).collect();
            a.push(run(w, false, &e2e));
            b.push(run(w, false, &e2e));
            a.push(run(w, true, &[("network.nodes", 100.0)]));
            b.push(run(w, true, &[("network.nodes", 100.0)]));
        }
        assert!(agree(&a, &b));
        b.last_mut()
            .unwrap()
            .metrics
            .insert("network.nodes".into(), 101.0);
        assert!(!agree(&a, &b));
    }

    #[test]
    fn label_gates_hold_and_drift() {
        let mut runs = vec![
            run(
                "kmedoids_exact",
                true,
                &[("obdd.dnnf_compile_s", 0.22), ("trace.op_p50_ms", 230.0)],
            ),
            run(
                "kmedoids_approx",
                true,
                &[
                    ("translate.translate_s", 0.5),
                    ("prob.hybrid_s", 0.4),
                    ("trace.op_p50_ms", 1000.0),
                ],
            ),
            run("serve_distinct", true, &[("serve.overhead_us", 1.5)]),
            run("serve_distinct", false, &[("op_p50_ms", 2.1)]),
            run("serve_repeat", false, &[("op_p50_ms", 2.0)]),
            run(
                "serve_churn",
                true,
                &[
                    ("serve.mem_hit_ratio", 0.7),
                    ("serve.query_p90_ms", 4.0),
                    ("store.load_s", 0.003),
                    ("store.save_s", 0.002),
                    ("obdd.dnnf_compile_s", 0.019),
                ],
            ),
        ];
        assert!(label_gates(&runs).iter().all(|(_, ok)| *ok));
        // A memo lands: serve_repeat pulls away from serve_distinct.
        runs[4].metrics.insert("op_p50_ms".into(), 0.2);
        let drifted: Vec<_> = label_gates(&runs)
            .into_iter()
            .filter(|(_, ok)| !ok)
            .collect();
        assert_eq!(drifted.len(), 1);
        assert!(drifted[0].0.starts_with("serve_repeat"));
        // Missing inputs never pass.
        assert!(label_gates(&[]).iter().all(|(_, ok)| !ok));
    }
}
