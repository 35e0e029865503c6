//! The metric registry (names and units are the contract `BENCHMARK.json`
//! and later issues cite) and the result a run prints.

use crate::host;
use crate::stats::{best_window, median, Window};
use crate::trace::{write_chrome_trace, Recorder};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the reference median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// What a user of the system sees; measured with tracing off and
/// telemetry at its library default (disabled). Every workload reports
/// all of them.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("op_p50_ms", "ms", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.15),
];

use Better::{Higher, Lower};

/// Per-layer numbers of the traced run. A layer that does no work on a
/// workload reports 0 there.
pub const PER_LAYER: [MetricDef; 34] = [
    layer("lang.parse_s", "s", Lower),
    layer("translate.translate_s", "s", Lower),
    layer("core.ground_s", "s", Lower),
    layer("network.build_s", "s", Lower),
    layer("network.nodes", "count", Lower),
    layer("prob.hybrid_s", "s", Lower),
    layer("prob.max_width", "prob", Lower),
    layer("prob.exact_ref_s", "s", Lower),
    layer("obdd.dnnf_compile_s", "s", Lower),
    layer("obdd.dnnf_steps", "count", Lower),
    layer("obdd.dnnf_nodes", "count", Lower),
    layer("obdd.dnnf_wmc_s", "s", Lower),
    layer("obdd.dnnf_wmc_nodes_per_s", "1/s", Higher),
    layer("obdd.bdd_compile_s", "s", Lower),
    layer("obdd.bdd_wmc_s", "s", Lower),
    layer("store.save_s", "s", Lower),
    layer("store.load_s", "s", Lower),
    layer("store.bytes_per_node", "B", Lower),
    layer("serve.overhead_us", "us", Lower),
    layer("serve.qps_2c", "1/s", Higher),
    layer("serve.scaling_2c", "ratio", Higher),
    layer("serve.query_p90_ms", "ms", Lower),
    layer("serve.query_tail_ms", "ms", Lower),
    layer("serve.query_tail_pct", "%", Higher),
    layer("serve.mem_hit_ratio", "ratio", Higher),
    layer("serve.store_hit_ratio", "ratio", Higher),
    layer("serve.coalesced_ratio", "ratio", Higher),
    layer("serve.compiles", "count", Lower),
    layer("worlds.naive_twin_s", "s", Lower),
    layer("data.generate_s", "s", Lower),
    layer("trace.op_p50_ms", "ms", Lower),
    layer("trace.untraced_ops_per_s", "1/s", Higher),
    layer("trace.coverage", "ratio", Higher),
    layer("trace.overhead_ratio", "ratio", Higher),
];

pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(&PER_LAYER).find(|d| d.name == name)
}

/// Named measurements collected during a run.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(&'static str, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            lookup(name).is_some(),
            "metric {name} is not in the registry"
        );
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

/// The outcome of one workload run.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// Runs `setup(rep)` `reps` times, dropping each result (and whatever
/// it holds on disk) before the next, and returns the last one with the
/// median of the times — so one slow start does not decide `setup_s`.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(setup(rep));
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}

/// The end-to-end metrics of an untraced phase cut into `windows`.
pub fn end_to_end(setup_s: f64, windows: &[Window]) -> Metrics {
    let per_window: Vec<String> = windows
        .iter()
        .filter(|w| !w.latencies.is_empty())
        .map(|w| {
            let rate = w.latencies.len() as f64 / w.seconds;
            format!("{:.4}ms@{rate:.2}/s", median(&w.latencies))
        })
        .collect();
    println!("windows (p50@rate): {}", per_window.join(" "));
    let (latency_ms, rate) = best_window(windows);
    let mut metrics = Metrics::default();
    metrics.set("setup_s", setup_s);
    metrics.set("op_p50_ms", latency_ms);
    metrics.set("ops_per_s", rate);
    metrics.set("peak_rss_mb", host::peak_rss_mb());
    metrics
}

/// Writes `benchmark/out/<workload>.trace.json`; returns the number of
/// failures (0 or 1) to add to the run's count.
pub fn save_trace(workload: &str, recorders: &[Recorder]) -> u64 {
    let path = host::out_dir().join(format!("{workload}.trace.json"));
    match write_chrome_trace(&path, recorders) {
        Ok(()) => {
            println!("trace: {}", path.display());
            0
        }
        Err(e) => {
            eprintln!("writing {}: {e}", path.display());
            1
        }
    }
}

impl RunResult {
    /// The driver's result line: every metric of the mode's registry,
    /// by name with its unit, values with all their digits.
    pub fn to_json_line(&self, traced: bool) -> String {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted,
            self.failed
        );
        for (i, d) in defs.iter().enumerate() {
            let v = match self.metrics.get(d.name) {
                Some(v) => v,
                None if traced => 0.0,
                None => panic!("end-to-end metric {} was not measured", d.name),
            };
            assert!(v.is_finite(), "metric {} is not finite", d.name);
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Human-readable listing, one `name value unit` line per metric.
    pub fn print_table(&self, traced: bool) {
        let defs: &[MetricDef] = if traced { &PER_LAYER } else { &END_TO_END };
        for d in defs {
            if let Some(v) = self.metrics.get(d.name) {
                println!("  {:<28} {:>16.6} {}", d.name, v, d.unit);
            }
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        println!(
            "  {:<28} {:>16.6} ratio ({} failed of {} attempted)",
            "failed_ratio", ratio, self.failed, self.attempted
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
    }

    #[test]
    fn result_line_is_json_with_every_metric_of_the_mode() {
        let mut metrics = Metrics::default();
        for (i, d) in END_TO_END.iter().enumerate() {
            metrics.set(d.name, 1.5 + i as f64);
        }
        metrics.set("network.nodes", 7.0);
        let r = RunResult {
            attempted: 10,
            failed: 0,
            metrics,
        };
        let line = Json::parse(&r.to_json_line(false)).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        for d in &END_TO_END {
            let m = line.get("metrics").and_then(|m| m.get(d.name)).unwrap();
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(d.unit));
        }
        let traced = Json::parse(&r.to_json_line(true)).unwrap();
        let m = traced.get("metrics").unwrap();
        assert_eq!(
            m.get("network.nodes")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(7.0)
        );
        assert_eq!(
            m.get("lang.parse_s")
                .and_then(|v| v.get("value"))
                .and_then(Json::as_f64),
            Some(0.0)
        );
        assert!(m.get("op_p50_ms").is_none());
    }
}
