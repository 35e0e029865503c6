//! Worker-count resolution shared by every parallel engine.
//!
//! All `workers` knobs in the workspace follow one convention:
//!
//! * `workers = 0` means **auto**: consult the `ENFRAME_WORKERS`
//!   environment variable, and fall back to an engine-specific default
//!   when it is unset or unparsable.
//! * `workers >= 1` is an explicit request and always wins over the
//!   environment.
//!
//! Centralising this here keeps d-DNNF's target fan-out and the
//! distributed decision tree — and the bench binaries — in agreement,
//! and gives CI a single lever (`ENFRAME_WORKERS=1` /
//! `ENFRAME_WORKERS=8`) that re-runs the whole test suite under
//! different thread counts.

/// Name of the environment variable consulted when a `workers` option
/// is left at `0` (auto).
pub const ENV_WORKERS: &str = "ENFRAME_WORKERS";

/// Resolves a requested worker count to an effective one (always ≥ 1).
///
/// `requested > 0` is returned as-is. `requested == 0` (auto) reads
/// [`ENV_WORKERS`]; a positive parse wins, anything else falls back to
/// `fallback.max(1)`.
///
/// ```
/// use enframe_core::workers::resolve;
/// assert_eq!(resolve(3, 1), 3); // explicit request wins
/// assert!(resolve(0, 4) >= 1); // auto resolves to env or fallback
/// ```
pub fn resolve(requested: usize, fallback: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    match std::env::var(ENV_WORKERS) {
        Ok(s) => match s.trim().parse::<usize>() {
            Ok(n) if n > 0 => n,
            _ => fallback.max(1),
        },
        Err(_) => fallback.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::resolve;

    // Env-var behaviour is covered indirectly by CI's thread-matrix job;
    // mutating the process environment from unit tests would race with
    // the rest of the (multi-threaded) test harness.

    #[test]
    fn explicit_request_wins() {
        assert_eq!(resolve(1, 8), 1);
        assert_eq!(resolve(6, 1), 6);
    }

    #[test]
    fn auto_is_at_least_one() {
        assert!(resolve(0, 0) >= 1);
        assert!(resolve(0, 4) >= 1);
    }
}
