//! Resource budgets and cooperative cancellation.
//!
//! A [`Budget`] declares *limits* — wall-clock deadline, live BDD/d-DNNF
//! nodes, expansion/exploration steps, resident bytes. A [`BudgetScope`]
//! is the *shared runtime state* of one budgeted computation: a step
//! accumulator and a cancellation flag, cheap to clone across worker
//! threads (one `Arc`). Engines call the `check_*` methods at their
//! existing safe points (`maybe_maintain`, d-DNNF expansion steps, WMC
//! sweep strides, unit-prop trail pushes, worker recv loops); the
//! first check that observes an exhausted limit records an [`Exceeded`]
//! verdict and flips the cancellation flag, so every sibling worker
//! observes the same structured failure instead of hanging or OOMing.
//!
//! The unlimited scope is the default and costs nothing: every check
//! short-circuits on `limited == false` before touching any atomic.
//! Budgeted runs therefore cannot perturb the bitwise-determinism
//! guarantees of unbudgeted ones.

use enframe_telemetry::{self as telemetry, Counter};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Which limit a budgeted computation ran out of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Resource {
    /// The wall-clock deadline passed.
    Time,
    /// Live node count crossed `max_nodes`.
    Nodes,
    /// Expansion/exploration steps crossed `max_steps`.
    Steps,
    /// Estimated resident bytes crossed `max_bytes`.
    Bytes,
    /// Cancelled externally (sibling worker failure, caller request).
    Cancelled,
}

impl Resource {
    /// Stable snake_case name (for errors, CSV, and logs).
    pub fn name(self) -> &'static str {
        match self {
            Resource::Time => "time",
            Resource::Nodes => "nodes",
            Resource::Steps => "steps",
            Resource::Bytes => "bytes",
            Resource::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for Resource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The structured verdict of an exhausted budget: which resource ran
/// out, and how much of it had been spent when the check fired (ns for
/// [`Resource::Time`], counts otherwise).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exceeded {
    /// The limit that was crossed.
    pub resource: Resource,
    /// Amount spent at detection time.
    pub spent: u64,
}

impl std::fmt::Display for Exceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "budget exceeded: {} (spent {})",
            self.resource, self.spent
        )
    }
}

/// Declarative resource limits for one computation. `None` means
/// unlimited along that axis; [`Budget::default`] is fully unlimited.
///
/// The deadline is an *absolute* instant, so handing the same `Budget`
/// to a fallback engine after a partial failure naturally grants only
/// the remaining wall-clock time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Budget {
    /// Absolute wall-clock deadline.
    pub deadline: Option<Instant>,
    /// Maximum live decision/d-DNNF nodes per manager.
    pub max_nodes: Option<usize>,
    /// Maximum expansion/exploration steps (shared across workers).
    pub max_steps: Option<u64>,
    /// Maximum estimated resident bytes per manager.
    pub max_bytes: Option<usize>,
}

impl Budget {
    /// The fully unlimited budget.
    pub fn unlimited() -> Budget {
        Budget::default()
    }

    /// A budget with a deadline `timeout` from now.
    pub fn with_timeout(timeout: Duration) -> Budget {
        Budget {
            deadline: Some(Instant::now() + timeout),
            ..Budget::default()
        }
    }

    /// Whether any limit is set at all.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
            || self.max_nodes.is_some()
            || self.max_steps.is_some()
            || self.max_bytes.is_some()
    }
}

/// How many step increments pass between wall-clock reads. `Instant::
/// now()` is far too expensive for per-trail-push checks; limits stay
/// sharp because steps/nodes/bytes are still checked on every call.
const TIME_CHECK_STRIDE: u64 = 256;

#[derive(Debug)]
struct ScopeInner {
    budget: Budget,
    /// Steps spent so far, shared across all workers of the scope.
    steps: AtomicU64,
    /// Cooperative cancellation flag: set once by the first failure.
    cancelled: AtomicBool,
    /// The verdict behind the flag (kept separate so the hot-path read
    /// is a single relaxed load).
    verdict: Mutex<Option<Exceeded>>,
    /// Number of budget checks performed (for telemetry surfacing).
    checks: AtomicU64,
    started: Instant,
}

/// Shared runtime state of one budgeted computation; clone freely into
/// worker threads. See the module docs for the checking protocol.
#[derive(Debug, Clone)]
pub struct BudgetScope {
    inner: Arc<ScopeInner>,
    /// Snapshot of `budget.is_limited()`: lets every check short-circuit
    /// without touching shared state when the scope is unlimited.
    limited: bool,
}

impl Default for BudgetScope {
    fn default() -> Self {
        BudgetScope::new(Budget::unlimited())
    }
}

impl BudgetScope {
    /// A new scope enforcing `budget`.
    pub fn new(budget: Budget) -> BudgetScope {
        BudgetScope {
            limited: budget.is_limited(),
            inner: Arc::new(ScopeInner {
                budget,
                steps: AtomicU64::new(0),
                cancelled: AtomicBool::new(false),
                verdict: Mutex::new(None),
                checks: AtomicU64::new(0),
                started: Instant::now(),
            }),
        }
    }

    /// The unlimited scope: every check is a near-free no-op.
    pub fn unlimited() -> BudgetScope {
        BudgetScope::new(Budget::unlimited())
    }

    /// The budget this scope enforces.
    pub fn budget(&self) -> Budget {
        self.inner.budget
    }

    /// Whether any limit is set (unlimited scopes skip all bookkeeping).
    pub fn is_limited(&self) -> bool {
        self.limited
    }

    /// Whether a failure has been recorded (cheap: one relaxed load).
    /// External cancellation works on *any* scope, limited or not —
    /// panic isolation relies on it even for unbudgeted runs.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Relaxed)
    }

    /// The verdict recorded by the first failing check, if any.
    pub fn verdict(&self) -> Option<Exceeded> {
        if !self.is_cancelled() {
            return None;
        }
        *self.inner.verdict.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Number of budget checks performed so far in this scope.
    pub fn checks(&self) -> u64 {
        self.inner.checks.load(Ordering::Relaxed)
    }

    /// Folds this scope's budget-governance activity — checks made,
    /// whether it ended cancelled — into the telemetry counters. Call
    /// once, when the computation the scope governed is over.
    pub fn record_telemetry(&self) {
        telemetry::count_n(Counter::BudgetCheck, self.checks());
        if self.is_cancelled() {
            telemetry::count(Counter::Cancellation);
        }
    }

    /// Records `verdict` and flips the cancellation flag. The first
    /// verdict wins; later ones are dropped so every worker reports the
    /// same failure.
    fn cancel(&self, verdict: Exceeded) {
        let mut slot = self.inner.verdict.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(verdict);
        }
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Cancels without a resource verdict (sibling failure, shutdown).
    pub fn cancel_external(&self) {
        self.cancel(Exceeded {
            resource: Resource::Cancelled,
            spent: 0,
        });
    }

    fn fail(&self, resource: Resource, spent: u64) -> Exceeded {
        let verdict = Exceeded { resource, spent };
        self.cancel(verdict);
        // Report the *first* recorded verdict, not necessarily ours.
        self.verdict().unwrap_or(verdict)
    }

    fn check_deadline(&self) -> Result<(), Exceeded> {
        if let Some(deadline) = self.inner.budget.deadline {
            let now = Instant::now();
            if now >= deadline {
                let spent = now.duration_since(self.inner.started).as_nanos() as u64;
                return Err(self.fail(Resource::Time, spent));
            }
        }
        Ok(())
    }

    fn observe_cancelled(&self) -> Result<(), Exceeded> {
        if self.inner.cancelled.load(Ordering::Acquire) {
            return Err(self.verdict().unwrap_or(Exceeded {
                resource: Resource::Cancelled,
                spent: 0,
            }));
        }
        Ok(())
    }

    /// The cheap safe-point check: cancelled flag plus deadline. Use in
    /// recv loops and per-stride WMC polls. The cancellation flag
    /// is observed on every scope; resource limits only on limited ones.
    pub fn checkpoint(&self) -> Result<(), Exceeded> {
        self.observe_cancelled()?;
        if !self.limited {
            return Ok(());
        }
        self.inner.checks.fetch_add(1, Ordering::Relaxed);
        self.check_deadline()
    }

    /// Charges `n` steps against the scope-wide step budget; the
    /// wall-clock deadline is read every `TIME_CHECK_STRIDE` steps.
    /// Use at expansion steps and trail pushes.
    pub fn check_steps(&self, n: u64) -> Result<(), Exceeded> {
        self.observe_cancelled()?;
        if !self.limited {
            return Ok(());
        }
        self.inner.checks.fetch_add(1, Ordering::Relaxed);
        let spent = self.inner.steps.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(max) = self.inner.budget.max_steps {
            if spent > max {
                return Err(self.fail(Resource::Steps, spent));
            }
        }
        if spent / TIME_CHECK_STRIDE != (spent - n) / TIME_CHECK_STRIDE {
            self.check_deadline()?;
        }
        Ok(())
    }

    /// Checks the per-manager size limits (live nodes, resident bytes)
    /// plus the deadline. Use at `maybe_maintain`-style safe points
    /// where a size snapshot is already at hand.
    pub fn check_usage(&self, nodes: usize, bytes: usize) -> Result<(), Exceeded> {
        self.observe_cancelled()?;
        if !self.limited {
            return Ok(());
        }
        self.inner.checks.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = self.inner.budget.max_nodes {
            if nodes > max {
                return Err(self.fail(Resource::Nodes, nodes as u64));
            }
        }
        if let Some(max) = self.inner.budget.max_bytes {
            if bytes > max {
                return Err(self.fail(Resource::Bytes, bytes as u64));
            }
        }
        self.check_deadline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_scope_never_fails() {
        let scope = BudgetScope::unlimited();
        assert!(!scope.is_limited());
        for _ in 0..10_000 {
            scope.check_steps(1).unwrap();
        }
        scope.check_usage(usize::MAX, usize::MAX).unwrap();
        scope.checkpoint().unwrap();
        assert_eq!(scope.checks(), 0, "unlimited checks do no bookkeeping");
        assert!(scope.verdict().is_none());
    }

    #[test]
    fn step_budget_fires_at_the_limit() {
        let scope = BudgetScope::new(Budget {
            max_steps: Some(10),
            ..Budget::default()
        });
        for _ in 0..10 {
            scope.check_steps(1).unwrap();
        }
        let err = scope.check_steps(1).unwrap_err();
        assert_eq!(err.resource, Resource::Steps);
        assert_eq!(err.spent, 11);
        // Once cancelled, every safe point observes the same verdict.
        assert_eq!(scope.checkpoint().unwrap_err(), err);
        assert_eq!(scope.verdict(), Some(err));
    }

    #[test]
    fn node_and_byte_limits_fire() {
        let scope = BudgetScope::new(Budget {
            max_nodes: Some(100),
            max_bytes: Some(1 << 20),
            ..Budget::default()
        });
        scope.check_usage(100, 1 << 20).unwrap();
        let err = BudgetScope::new(Budget {
            max_nodes: Some(100),
            ..Budget::default()
        })
        .check_usage(101, 0)
        .unwrap_err();
        assert_eq!(err.resource, Resource::Nodes);
        let err = scope.check_usage(5, (1 << 20) + 1).unwrap_err();
        assert_eq!(err.resource, Resource::Bytes);
    }

    #[test]
    fn expired_deadline_fires_immediately() {
        let scope = BudgetScope::new(Budget {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Budget::default()
        });
        let err = scope.checkpoint().unwrap_err();
        assert_eq!(err.resource, Resource::Time);
        assert!(scope.is_cancelled());
    }

    #[test]
    fn external_cancellation_propagates_to_clones() {
        // Even an *unlimited* scope observes external cancellation:
        // panic isolation cancels siblings on unbudgeted runs too.
        let scope = BudgetScope::unlimited();
        let sibling = scope.clone();
        sibling.cancel_external();
        assert!(scope.is_cancelled());
        let err = scope.checkpoint().unwrap_err();
        assert_eq!(err.resource, Resource::Cancelled);
        assert_eq!(
            scope.check_steps(1).unwrap_err().resource,
            Resource::Cancelled
        );
    }

    #[test]
    fn first_verdict_wins() {
        let scope = BudgetScope::new(Budget {
            max_steps: Some(1),
            ..Budget::default()
        });
        scope.cancel(Exceeded {
            resource: Resource::Time,
            spent: 42,
        });
        scope.cancel(Exceeded {
            resource: Resource::Nodes,
            spent: 7,
        });
        assert_eq!(
            scope.verdict(),
            Some(Exceeded {
                resource: Resource::Time,
                spent: 42
            })
        );
    }

    #[test]
    fn remaining_deadline_carries_to_a_second_scope() {
        // The ladder hands the same Budget to the fallback engine: the
        // absolute deadline means only the remaining time is granted.
        let budget = Budget::with_timeout(Duration::from_secs(3600));
        let first = BudgetScope::new(budget);
        first.checkpoint().unwrap();
        let second = BudgetScope::new(first.budget());
        second.checkpoint().unwrap();
        assert_eq!(first.budget().deadline, second.budget().deadline);
    }
}
