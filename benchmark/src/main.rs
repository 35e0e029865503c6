//! The repo's perf ledger. Drives every layer from outside through the
//! `enframe` facade's public functions, on five named workloads, and
//! checks every output against an independent engine. See `README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark run-all [--sets N] [--runs N] [--seconds S] [--seed N] [--smoke]
//! benchmark labels  [--seconds S] [--seed N]
//! benchmark agree A.json B.json
//! ```

mod gen;
mod host;
mod json;
mod pipeline;
mod report;
mod serve;
mod stats;
mod suite;
mod trace;

use std::process::ExitCode;

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: [(&str, &str); 5] = [
    (
        "kmedoids_exact",
        "exact program->probability; d-DNNF compile is ~97% of the op, so compile work shows here and front-end work does not",
    ),
    (
        "kmedoids_approx",
        "hybrid eps=0.1 at n=80; translate and the decision-tree engine both carry the op and obdd does nothing",
    ),
    (
        "serve_distinct",
        "warm serving, fresh weights every request: the WMC sweep is ~99% of a query, a memo must show no change",
    ),
    (
        "serve_repeat",
        "same artifact, weights from 8 hot vectors: identical queries, where an answer memo or coalescing shows and only here",
    ),
    (
        "serve_churn",
        "64 lineages behind a 32-entry memory tier with replacements: store reloads, compiles and cache logic do the work",
    ),
];

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Set-up repetitions; `setup_s` is their median.
    pub setup_reps: usize,
    /// 1/16 of the measuring time, one set-up, small probe counts.
    pub smoke: bool,
    /// `kmedoids_approx`: also check containment of tree-exact
    /// (≈50 s per instance).
    pub verify_full: bool,
}

impl Config {
    /// A traced run spends half its time on the untraced baseline.
    pub fn untraced_seconds(&self) -> f64 {
        if self.trace {
            self.seconds / 2.0
        } else {
            self.seconds
        }
    }
}

/// The determinism contract's comparison: same length, same bits.
pub fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// `--flag value` pairs and bare flags after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn value(&self, flag: &str) -> Option<&str> {
        let i = self.0.iter().position(|a| a == flag)?;
        self.0.get(i + 1).map(String::as_str)
    }

    pub fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {flag}: {v}")),
        }
    }

    pub fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }

    pub fn positional(&self) -> Vec<&str> {
        self.0
            .iter()
            .filter(|a| !a.starts_with("--"))
            .map(String::as_str)
            .collect()
    }
}

fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let workload = args
        .value("--workload")
        .ok_or("missing --workload")?
        .to_string();
    let smoke = args.has("--smoke");
    let seconds: f64 = args.parsed("--seconds", 10.0)?;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err(format!("--seconds {seconds} is outside (0, 60]"));
    }
    let verify_full = args.has("--verify-full");
    let cfg = Config {
        seed: args.parsed("--seed", 1)?,
        seconds: if smoke { seconds / 16.0 } else { seconds },
        trace: args.parsed::<u8>("--trace", 0)? != 0,
        setup_reps: if smoke || verify_full { 1 } else { 5 },
        smoke,
        verify_full,
        workload,
    };
    println!(
        "workload={} seed={} seconds={} trace={} {}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        host::describe()
    );
    let result = match cfg.workload.as_str() {
        "kmedoids_exact" => pipeline::run(pipeline::Engine::Exact, &cfg),
        "kmedoids_approx" => pipeline::run(pipeline::Engine::Approx, &cfg),
        "serve_distinct" => serve::run(serve::Kind::Distinct, &cfg),
        "serve_repeat" => serve::run(serve::Kind::Repeat, &cfg),
        "serve_churn" => serve::run(serve::Kind::Churn, &cfg),
        other => return Err(format!("unknown workload {other}")),
    };
    result.print_table(cfg.trace);
    println!("{}", result.to_json_line(cfg.trace));
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    // Before anything else: ambient knobs must not change the program
    // measured, and no thread exists yet that could read them.
    let scrubbed = host::scrub_env();
    if !scrubbed.is_empty() {
        eprintln!("unset for this run: {}", scrubbed.join(" "));
    }
    if host::nproc() < 2 {
        eprintln!(
            "refusing to run on a 1-core host: the serve workloads need two callers on two cores"
        );
        return ExitCode::from(2);
    }
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let sub = match argv.first() {
        Some(a) if !a.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let outcome = match sub.as_str() {
        "" => run_workload(&args),
        "run-all" => suite::run_all(&args, false),
        "labels" => suite::run_all(&args, true),
        "agree" => suite::agree_files(&args),
        other => Err(format!("unknown subcommand {other}")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::report::{END_TO_END, PER_LAYER};

    fn read(relative: &str) -> String {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
    }

    /// The `key = value` lines of a manifest's `[profile.release]` table.
    fn release_profile(manifest: &str) -> Vec<String> {
        let mut lines: Vec<String> = manifest
            .lines()
            .skip_while(|l| l.trim() != "[profile.release]")
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with('['))
            .map(|l| {
                l.split('#')
                    .next()
                    .unwrap_or("")
                    .split_whitespace()
                    .collect::<String>()
            })
            .filter(|l| !l.is_empty())
            .collect();
        lines.sort();
        lines
    }

    #[test]
    fn release_profile_equals_the_root_manifests() {
        let root = release_profile(&read("../Cargo.toml"));
        assert_eq!(root, ["codegen-units=1", "lto=true"]);
        assert_eq!(release_profile(&read("Cargo.toml")), root);
    }

    #[test]
    fn benchmark_json_declares_exactly_what_the_binary_reports() {
        let j = Json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses");
        let field =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).map(str::to_string);
        let list = |key: &str| j.get(key).and_then(Json::as_arr).expect(key).to_vec();

        let declared: Vec<_> = list("workloads")
            .iter()
            .map(|w| (field(w, "name"), field(w, "why")))
            .collect();
        let ours: Vec<_> = WORKLOADS
            .iter()
            .map(|&(n, w)| (Some(n.to_string()), Some(w.to_string())))
            .collect();
        assert_eq!(declared, ours);
        assert!(WORKLOADS
            .iter()
            .all(|(_, why)| why.len() <= 200 && !why.contains('\n')));

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let declared = list(key);
            assert_eq!(declared.len(), defs.len(), "{key}");
            for (entry, d) in declared.iter().zip(defs) {
                assert_eq!(field(entry, "name").as_deref(), Some(d.name));
                assert_eq!(field(entry, "unit").as_deref(), Some(d.unit), "{}", d.name);
                assert_eq!(
                    field(entry, "better").as_deref(),
                    Some(d.better.as_str()),
                    "{}",
                    d.name
                );
                let bound = entry.get("bound").and_then(Json::as_f64);
                assert_eq!(
                    bound,
                    (key == "end_to_end").then_some(d.bound),
                    "{}",
                    d.name
                );
            }
        }
        assert_eq!(list("paths"), [Json::Str("benchmark".into())]);
    }
}
