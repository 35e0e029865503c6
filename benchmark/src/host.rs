//! Host and environment hygiene: what the run is measured on, and
//! making sure ambient state cannot change the program measured.

use std::path::PathBuf;
use std::process::Command;

/// Environment variables the libraries read; any of them changes what
/// is measured (worker counts, fault injection, serve knobs, telemetry).
const SCRUBBED_EXACT: [&str; 5] = [
    "ENFRAME_WORKERS",
    "ENFRAME_FAILPOINTS",
    "ENFRAME_TRACE",
    "ENFRAME_TELEMETRY",
    "ENFRAME_BENCH_FULL",
];
const SCRUBBED_PREFIX: &str = "ENFRAME_SERVE_";

/// Unsets every `ENFRAME_*` knob and returns the names that were set.
/// Must run before any thread is spawned and before any library call.
pub fn scrub_env() -> Vec<String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| SCRUBBED_EXACT.contains(&k.as_str()) || k.starts_with(SCRUBBED_PREFIX))
        .collect();
    for k in &set {
        std::env::remove_var(k);
    }
    set
}

/// Logical cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// One line describing the host, toolchain and commit, printed with
/// every result.
pub fn describe() -> String {
    format!(
        "nproc={} rustc=\"{}\" commit={}",
        nproc(),
        command_line("rustc", &["--version"]),
        command_line("git", &["rev-parse", "--short", "HEAD"]),
    )
}

/// `benchmark/out/`: traces, run files and the per-process store
/// directories all live here, inside the checkout.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Extracts `VmHWM` (peak resident set, kB) from `/proc/self/status`
/// text and returns it in MB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = rest.trim().strip_suffix("kB")?.trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set of this process so far, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_vm_hwm_mb(&s))
        .expect("VmHWM in /proc/self/status (Linux only)")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tbenchmark\nVmPeak:\t  300000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t 4096 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(50.0));
        assert_eq!(parse_vm_hwm_mb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots\n"), None);
    }

    #[test]
    fn reads_own_peak_rss() {
        assert!(peak_rss_mb() > 0.0);
    }
}
