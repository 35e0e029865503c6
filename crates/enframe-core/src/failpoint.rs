//! Deterministic fault injection for chaos testing.
//!
//! A *failpoint* is a named site in the engines (allocation, worker
//! spawn, queue receive, merge) that can be armed to fire deterministically
//! every N-th visit. Armed via the `ENFRAME_FAILPOINTS` environment
//! variable — a comma-separated list of `site:every-N` clauses:
//!
//! ```text
//! ENFRAME_FAILPOINTS=spawn:every-1            # every worker spawn faults
//! ENFRAME_FAILPOINTS=alloc:every-1000,recv:every-4
//! ```
//!
//! Site names are [`Site::name`] values: `alloc`, `spawn`, `recv`,
//! `merge`, the artifact-store I/O sites `store_write`,
//! `store_fsync`, `store_rename`, `store_read` (simulated torn writes,
//! lost durability, and read failures — the store surfaces them as
//! `StoreError::Io`), and the query-service admission site
//! `serve_admit`. Unparseable clauses are ignored (chaos harnesses must never
//! take the process down themselves).
//!
//! What a hit *means* is decided at the call site: spawn sites panic
//! (exercising panic isolation), alloc/merge sites return a structured
//! error, recv sites stall briefly (exercising cancellation-aware
//! polling). The facility itself only answers "should this visit fault?".
//!
//! ## Plans
//!
//! A fault schedule is a value: a [`Plan`] owns its per-site periods
//! *and its own visit counters*, and is a cheap handle to clone. Every
//! thread consults exactly one plan in [`hit`]:
//!
//! * by default the **environment plan** — `ENFRAME_FAILPOINTS` parsed
//!   once, lazily; its counters are the only process-level state here,
//!   so an env-armed run counts visits across all threads;
//! * or the plan the thread [adopted](Plan::adopt). A test
//!   [`arm`]s its own schedule for its own thread and sibling tests
//!   never see it; `arm("")` masks an env-armed schedule the same way.
//!
//! Threads do not inherit a plan by themselves. The one engine-side
//! spawn site, [`crate::pool`], captures the spawning thread's
//! [`Plan::current`] and has every worker adopt it; a test that spawns
//! its own client threads hands the plan over the same way. When
//! nothing is armed, [`hit`] is one thread-local read — no lock,
//! effectively free in production.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// The injectable fault sites wired through the engines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// Node allocation in a manager (simulated allocation failure).
    Alloc,
    /// A pool worker starting on a job (simulated worker panic).
    Spawn,
    /// A pool worker taking its next job off the queue (simulated stall).
    Recv,
    /// Merging a worker's result into the shared store.
    Merge,
    /// Artifact-store payload write (simulated torn/failed write).
    StoreWrite,
    /// Artifact-store fsync before the atomic rename (lost durability).
    StoreFsync,
    /// Artifact-store atomic rename into place.
    StoreRename,
    /// Artifact-store read of a persisted frame.
    StoreRead,
    /// Query-service admission: a request entering the serve layer
    /// (simulated admission failure — the service surfaces it as a
    /// structured `ServeError`, never a hang).
    ServeAdmit,
}

/// All sites, in declaration order.
pub const SITES: [Site; 9] = [
    Site::Alloc,
    Site::Spawn,
    Site::Recv,
    Site::Merge,
    Site::StoreWrite,
    Site::StoreFsync,
    Site::StoreRename,
    Site::StoreRead,
    Site::ServeAdmit,
];

impl Site {
    /// The stable name used in `ENFRAME_FAILPOINTS` clauses.
    pub fn name(self) -> &'static str {
        match self {
            Site::Alloc => "alloc",
            Site::Spawn => "spawn",
            Site::Recv => "recv",
            Site::Merge => "merge",
            Site::StoreWrite => "store_write",
            Site::StoreFsync => "store_fsync",
            Site::StoreRename => "store_rename",
            Site::StoreRead => "store_read",
            Site::ServeAdmit => "serve_admit",
        }
    }

    /// Position in [`SITES`] (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

impl std::fmt::Display for Site {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Environment variable holding the failpoint spec.
pub const ENV_FAILPOINTS: &str = "ENFRAME_FAILPOINTS";

/// Per-site periods (0 = disarmed, N = fire every N-th visit) and the
/// visits counted against them.
#[derive(Debug, Default)]
struct Armed {
    every: [u64; SITES.len()],
    visits: [AtomicU64; SITES.len()],
}

/// A fault schedule with its own visit counters; clones share both.
/// See the [module docs](self) for how threads come to consult one.
#[derive(Debug, Clone, Default)]
pub struct Plan(Option<Arc<Armed>>);

impl Plan {
    /// Parses `alloc:every-1000,spawn:every-1` into a fresh plan (all
    /// counters zero); unknown/ill-formed clauses are skipped, and a
    /// spec that arms nothing yields the disarmed plan.
    pub fn parse(spec: &str) -> Plan {
        let mut every = [0u64; SITES.len()];
        for clause in spec.split(',') {
            let Some((site, period)) = clause.trim().split_once(':') else {
                continue;
            };
            let Some(site) = SITES.iter().copied().find(|s| s.name() == site.trim()) else {
                continue;
            };
            let Some(n) = period.trim().strip_prefix("every-") else {
                continue;
            };
            if let Ok(n) = n.parse::<u64>() {
                every[site.index()] = n;
            }
        }
        if every.iter().all(|&n| n == 0) {
            return Plan(None);
        }
        Plan(Some(Arc::new(Armed {
            every,
            visits: Default::default(),
        })))
    }

    /// The plan the calling thread consults: the one it adopted, else
    /// the environment plan.
    pub fn current() -> Plan {
        CURRENT.with(|c| c.borrow().clone())
    }

    /// Makes this plan the calling thread's until the guard drops (the
    /// previous one is restored, so adoptions nest).
    pub fn adopt(&self) -> PlanGuard {
        PlanGuard {
            previous: CURRENT.with(|c| c.replace(self.clone())),
            _this_thread: std::marker::PhantomData,
        }
    }

    /// Whether this visit to `site` faults: the K-th visit counted by
    /// this plan does iff K is a multiple of the site's period.
    fn hit(&self, site: Site) -> bool {
        let Some(armed) = &self.0 else { return false };
        let every = armed.every[site.index()];
        every != 0 && (armed.visits[site.index()].fetch_add(1, Ordering::Relaxed) + 1) % every == 0
    }
}

/// The environment plan: `ENFRAME_FAILPOINTS`, parsed on first use.
fn env_plan() -> Plan {
    static ENV_PLAN: OnceLock<Plan> = OnceLock::new();
    ENV_PLAN
        .get_or_init(|| Plan::parse(&std::env::var(ENV_FAILPOINTS).unwrap_or_default()))
        .clone()
}

thread_local! {
    /// The plan this thread consults; the environment's until it adopts one.
    static CURRENT: RefCell<Plan> = RefCell::new(env_plan());
}

/// Restores the thread's previous plan on drop; see [`Plan::adopt`].
/// Not `Send`: an adoption belongs to the thread that made it.
#[must_use = "the plan is dropped again when the guard is"]
pub struct PlanGuard {
    previous: Plan,
    _this_thread: std::marker::PhantomData<*const ()>,
}

impl Drop for PlanGuard {
    fn drop(&mut self) {
        // `try_with`: a guard dropped during thread teardown has
        // nothing left to restore.
        let _ = CURRENT.try_with(|c| c.replace(std::mem::take(&mut self.previous)));
    }
}

/// Arms `spec` (the `ENFRAME_FAILPOINTS` grammar) as a fresh plan for
/// the calling thread — what a chaos test does first. The empty spec
/// masks an env-armed schedule.
pub fn arm(spec: &str) -> PlanGuard {
    Plan::parse(spec).adopt()
}

/// Whether this visit to `site` should fault under the calling thread's
/// plan. No lock is taken, armed or not.
#[inline]
pub fn hit(site: Site) -> bool {
    CURRENT.with(|c| c.borrow().hit(site))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn periods(spec: &str) -> [u64; SITES.len()] {
        Plan::parse(spec).0.map_or([0; SITES.len()], |a| a.every)
    }

    #[test]
    fn parser_reads_the_documented_grammar() {
        assert!(SITES.iter().enumerate().all(|(i, s)| s.index() == i));
        let every = periods("alloc:every-1000, spawn:every-1");
        assert_eq!(every[Site::Alloc.index()], 1000);
        assert_eq!(every[Site::Spawn.index()], 1);
        assert_eq!(every[Site::Recv.index()], 0);
        assert_eq!(every[Site::Merge.index()], 0);
    }

    #[test]
    fn parser_skips_garbage_clauses() {
        let every =
            periods("bogus:every-3,alloc:sometimes,recv:every-0,merge:every-x,,spawn:every-2");
        assert_eq!(every, [0, 2, 0, 0, 0, 0, 0, 0, 0]);
        assert!(Plan::parse("").0.is_none());
        assert!(Plan::parse("recv:every-0").0.is_none());
    }

    #[test]
    fn parser_reads_the_store_io_sites() {
        let every = periods(
            "store_write:every-3,store_fsync:every-5,store_rename:every-7,store_read:every-2",
        );
        assert_eq!(every[Site::StoreWrite.index()], 3);
        assert_eq!(every[Site::StoreFsync.index()], 5);
        assert_eq!(every[Site::StoreRename.index()], 7);
        assert_eq!(every[Site::StoreRead.index()], 2);
    }

    #[test]
    fn parser_reads_the_serve_admission_site() {
        assert_eq!(periods("serve_admit:every-4")[Site::ServeAdmit.index()], 4);
    }

    #[test]
    fn override_fires_every_nth_visit_and_restores() {
        let outer = arm("");
        {
            let _guard = arm("recv:every-3");
            let hits: Vec<bool> = (0..9).map(|_| hit(Site::Recv)).collect();
            assert_eq!(
                hits,
                [false, false, true, false, false, true, false, false, true]
            );
            assert!(!hit(Site::Alloc), "unarmed sites never fire");
        }
        // Guard dropped: back to the enclosing (disarmed) plan.
        for _ in 0..10 {
            assert!(!hit(Site::Recv));
        }
        drop(outer);
    }

    #[test]
    fn every_one_fires_always() {
        let _guard = arm("spawn:every-1");
        assert!(hit(Site::Spawn));
        assert!(hit(Site::Spawn));
    }

    /// The point of plans being values: a schedule armed on one thread
    /// is invisible to its siblings until they adopt it, and adopters
    /// share its visit counters.
    #[test]
    fn a_plan_reaches_other_threads_only_by_adoption() {
        let _guard = arm("merge:every-2");
        let plan = Plan::current();
        std::thread::scope(|s| {
            s.spawn(|| {
                let _calm = arm("");
                assert!(!hit(Site::Merge) && !hit(Site::Merge));
            });
        });
        assert!(!hit(Site::Merge), "visit 1 of this plan");
        std::thread::scope(|s| {
            s.spawn(|| {
                let _adopted = plan.adopt();
                assert!(hit(Site::Merge), "visit 2, counted across threads");
            });
        });
        assert!(!hit(Site::Merge), "visit 3");
    }
}
