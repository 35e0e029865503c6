//! The one worker pool every parallel engine runs on.
//!
//! [`run`] spawns `workers` scoped threads over a shared [`Queue`] of
//! jobs and joins them all before it returns. An engine supplies what
//! is its own — a body that builds its per-worker state, pulls jobs
//! with [`Worker::next_job`] until told to stop, and returns what it made
//! for the merge — and the pool owns what every fan-out needs:
//!
//! * **Shutdown without sentinels.** The queue counts *outstanding*
//!   jobs (queued or in a worker's hands). A worker may fork more jobs
//!   with [`Queue::push`] while it holds one, so the count reaches zero
//!   exactly when all work, forked work included, is done — and that
//!   is when every waiting [`Worker::next_job`] returns `None`.
//! * **Cancellation.** A waiting worker re-reads the [`BudgetScope`]
//!   every [`POLL`], so budget exhaustion or a sibling's failure stops
//!   the pool within that bound whatever is still outstanding.
//! * **Panic isolation.** A panic in a body is caught on its worker and
//!   becomes the engine's own error, naming the job in hand
//!   ([`JobError::from_panic`]); like an `Err` from a body it cancels
//!   the scope. Nothing unwinds out of the pool, no thread outlives it.
//! * **One reported failure.** Of all workers' failures the pool
//!   returns the one with the smallest job index, preferring primary
//!   failures to the cancellation echoes siblings return once the scope
//!   is cancelled ([`JobError::is_cancellation`]).
//! * **Fault plan hand-off.** Workers adopt the spawning thread's
//!   [`failpoint::Plan`]; [`Worker::next_job`] visits the `recv` (stall) and
//!   `spawn` (panic) failpoints around each hand-out.
//!
//! This module holds every thread the engines spawn and every wait they
//! block on; the only other condvar in the workspace is the serving
//! layer's single-flight (`enframe-serve`).

use crate::budget::BudgetScope;
use crate::error::CoreError;
use crate::failpoint::{self, Plan, Site};
use enframe_telemetry::{self as telemetry, Counter, Phase};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// How long a worker waits on the queue before re-checking the
/// cancellation flag — bounds the shutdown latency of a cancelled pool
/// without busy-waiting.
pub const POLL: Duration = Duration::from_millis(20);

/// The injected stall of an armed `recv` failpoint.
const RECV_STALL: Duration = Duration::from_millis(40);

/// An engine's error type, as far as the pool needs to know it.
pub trait JobError {
    /// Whether this is the secondary "cancelled because a sibling
    /// failed" error rather than a primary failure.
    fn is_cancellation(&self) -> bool;

    /// The error for a body that panicked with `message` on worker
    /// `worker`, holding job `job` (jobs are numbered in push order, so
    /// a queue built from `0..n` numbers job `i` as `i`; 0 if it held
    /// none).
    fn from_panic(job: usize, worker: usize, message: String) -> Self;
}

impl JobError for CoreError {
    fn is_cancellation(&self) -> bool {
        false
    }

    fn from_panic(_job: usize, worker: usize, message: String) -> Self {
        CoreError::WorkerPanicked { worker, message }
    }
}

struct QueueState<J> {
    jobs: VecDeque<(usize, J)>,
    /// Jobs pushed so far: the next job's index.
    pushed: usize,
    /// Jobs pushed and not yet finished — queued or in a worker's hands.
    outstanding: usize,
}

/// The pool's job queue; see the [module docs](self) for its shutdown
/// and cancellation protocol.
pub struct Queue<J> {
    state: Mutex<QueueState<J>>,
    ready: Condvar,
}

impl<J> Queue<J> {
    /// A queue pre-filled with `jobs`, numbered from 0 in order.
    pub fn new(jobs: impl IntoIterator<Item = J>) -> Self {
        let jobs: VecDeque<(usize, J)> = jobs.into_iter().enumerate().collect();
        Queue {
            state: Mutex::new(QueueState {
                pushed: jobs.len(),
                outstanding: jobs.len(),
                jobs,
            }),
            ready: Condvar::new(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, QueueState<J>> {
        self.state
            .lock()
            .expect("the queue lock is never held while a job runs")
    }

    /// Queues one more job — forked off the job the calling worker has
    /// in hand, so the pool stays up until it is finished too.
    pub fn push(&self, job: J) {
        let mut q = self.lock();
        let index = q.pushed;
        q.pushed += 1;
        q.outstanding += 1;
        q.jobs.push_back((index, job));
        drop(q);
        self.ready.notify_one();
    }

    /// Marks one handed-out job finished; the last one wakes everybody
    /// up to exit.
    fn finish(&self) {
        let mut q = self.lock();
        q.outstanding -= 1;
        if q.outstanding == 0 {
            drop(q);
            self.ready.notify_all();
        }
    }

    /// The next job, waiting while jobs are outstanding but none is
    /// queued. `None` means stop: nothing is outstanding any more, or
    /// `scope` was cancelled (observed within [`POLL`]).
    fn pop(&self, scope: &BudgetScope) -> Option<(usize, J)> {
        let mut q = self.lock();
        loop {
            if scope.is_cancelled() {
                return None;
            }
            if let Some(job) = q.jobs.pop_front() {
                return Some(job);
            }
            if q.outstanding == 0 {
                return None;
            }
            q = self
                .ready
                .wait_timeout(q, POLL)
                .expect("the queue lock is never held while a job runs")
                .0;
        }
    }
}

/// A worker's handle on the pool, passed to the body [`run`] is given.
pub struct Worker<'a, J> {
    queue: &'a Queue<J>,
    scope: &'a BudgetScope,
    /// Index of the job in hand.
    job: Option<usize>,
}

impl<J> Worker<'_, J> {
    /// Finishes the job in hand and takes the next one; `None` means
    /// the pool is done or cancelled and the body should return. This
    /// is a fan-out's dispatch point: an armed `recv` failpoint stalls
    /// it, an armed `spawn` failpoint panics with the new job in hand.
    pub fn next_job(&mut self) -> Option<J> {
        let job = {
            let _wait = telemetry::span(Phase::QueueWait);
            telemetry::count(Counter::QueueWait);
            if failpoint::hit(Site::Recv) {
                std::thread::sleep(RECV_STALL);
            }
            self.finish();
            let (index, job) = self.queue.pop(self.scope)?;
            self.job = Some(index);
            job
        };
        if failpoint::hit(Site::Spawn) {
            panic!("injected worker panic (failpoint `spawn`)");
        }
        Some(job)
    }

    fn finish(&mut self) -> Option<usize> {
        let job = self.job.take()?;
        self.queue.finish();
        Some(job)
    }
}

/// Runs `body` on `workers` threads over `queue` and joins them all.
/// Returns every worker's result in worker order, or — if any body
/// returned an error or panicked — the one error the module docs single
/// out, having cancelled `scope` so the siblings stopped at their next
/// safe point. A scope cancelled from outside (budget verdict, caller
/// request) is not a failure: the workers return early and the caller
/// reads [`BudgetScope::verdict`].
pub fn run<J, R, E, F>(
    scope: &BudgetScope,
    workers: usize,
    queue: &Queue<J>,
    body: F,
) -> Result<Vec<R>, E>
where
    J: Send,
    R: Send,
    E: JobError + Send,
    F: Fn(&mut Worker<'_, J>) -> Result<R, E> + Sync,
{
    let plan = Plan::current();
    let run_worker = |index: usize| {
        let _plan = plan.adopt();
        let _span = telemetry::worker_span(Phase::Worker, index);
        let mut worker = Worker {
            queue,
            scope,
            job: None,
        };
        // A panic escaping the thread would resurface at scope exit and
        // take the caller down with it.
        let outcome = catch_unwind(AssertUnwindSafe(|| body(&mut worker)));
        // However the body ended, its job must not stay outstanding:
        // the siblings would wait for it forever.
        let job = worker.finish().unwrap_or(0);
        let error = match outcome {
            Ok(Ok(result)) => return Ok(result),
            Ok(Err(error)) => error,
            Err(payload) => {
                telemetry::count(Counter::Cancellation);
                let message = match payload.downcast::<String>() {
                    Ok(s) => *s,
                    Err(payload) => match payload.downcast::<&str>() {
                        Ok(s) => s.to_string(),
                        Err(_) => "non-string panic payload".to_string(),
                    },
                };
                E::from_panic(job, index, message)
            }
        };
        scope.cancel_external();
        Err((job, error))
    };
    let outcomes: Vec<Result<R, (usize, E)>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|index| {
                let run_worker = &run_worker;
                s.spawn(move || run_worker(index))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panics are caught on the worker"))
            .collect()
    });
    let mut results = Vec::with_capacity(workers);
    let mut failures = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(result) => results.push(result),
            Err(failure) => failures.push(failure),
        }
    }
    match failures
        .into_iter()
        .min_by_key(|(job, error)| (error.is_cancellation(), *job))
    {
        Some((_, error)) => Err(error),
        None => Ok(results),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::time::Instant;

    /// What a job of these tests can fail with.
    #[derive(Debug, PartialEq)]
    enum Failed {
        Job(usize),
        Echo,
        Panic(usize, String),
    }

    impl JobError for Failed {
        fn is_cancellation(&self) -> bool {
            *self == Failed::Echo
        }

        fn from_panic(job: usize, _worker: usize, message: String) -> Self {
            Failed::Panic(job, message)
        }
    }

    /// Waits for a sibling, but not for ever: a protocol bug fails the
    /// test instead of hanging the binary.
    fn wait_until(what: &str, cond: impl Fn() -> bool) {
        let t0 = Instant::now();
        while !cond() {
            assert!(t0.elapsed().as_secs() < 20, "gave up waiting until {what}");
            std::thread::yield_now();
        }
    }

    /// Current thread count of this process (Linux `/proc`); `None`
    /// where unsupported, which skips the leak assertion.
    fn thread_count() -> Option<usize> {
        let status = std::fs::read_to_string("/proc/self/status").ok()?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("Threads:"))
            .and_then(|v| v.trim().parse().ok())
    }

    #[test]
    fn every_prefilled_index_is_handed_out_exactly_once() {
        for workers in [1, 2, 3, 8] {
            let queue = Queue::new(0..500);
            let taken = run(&BudgetScope::unlimited(), workers, &queue, |w| {
                let mut mine = Vec::new();
                while let Some(i) = w.next_job() {
                    mine.push(i);
                }
                Ok::<_, Failed>(mine)
            })
            .unwrap();
            assert_eq!(taken.len(), workers, "one result per worker");
            let mut all: Vec<usize> = taken.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..500).collect::<Vec<_>>(), "workers={workers}");
        }
    }

    /// Job 0 forks job 1 and refuses to finish until job 1 has run — so
    /// job 1 is run by *another* worker, one that stayed in the pool
    /// although the queue was empty when it first looked. The binary
    /// tree forked below job 1 is run too, and `run` returns only then.
    #[test]
    fn forked_jobs_keep_the_pool_up_until_the_last_one_finishes() {
        let queue = Queue::new([(0usize, 6u32)]);
        let second_ran = AtomicBool::new(false);
        let ran = AtomicUsize::new(0);
        run(&BudgetScope::unlimited(), 3, &queue, |w| {
            while let Some((id, depth)) = w.next_job() {
                ran.fetch_add(1, Ordering::SeqCst);
                if id == 0 {
                    queue.push((1, depth));
                    wait_until("a sibling ran the forked job", || {
                        second_ran.load(Ordering::SeqCst)
                    });
                } else {
                    second_ran.store(true, Ordering::SeqCst);
                    for _ in 0..if depth > 0 { 2 } else { 0 } {
                        queue.push((2, depth - 1));
                    }
                }
            }
            Ok::<_, Failed>(())
        })
        .unwrap();
        assert_eq!(ran.load(Ordering::SeqCst), 1 + ((1 << 7) - 1));
    }

    /// Worker B waits on an empty queue while worker A holds the only
    /// job and will not finish it before B is out: only cancellation
    /// can end B's wait.
    #[test]
    fn a_waiting_worker_observes_cancellation() {
        let queue = Queue::new([()]);
        let scope = BudgetScope::unlimited();
        let asking = AtomicUsize::new(0);
        let cancelled_at = Mutex::new(None);
        let b_left_at = Mutex::new(None);
        run(&scope, 2, &queue, |w| {
            asking.fetch_add(1, Ordering::SeqCst);
            if w.next_job().is_some() {
                wait_until("B asks for a job", || asking.load(Ordering::SeqCst) == 2);
                *cancelled_at.lock().unwrap() = Some(Instant::now());
                scope.cancel_external();
                wait_until("B is out", || b_left_at.lock().unwrap().is_some());
            } else {
                *b_left_at.lock().unwrap() = Some(Instant::now());
            }
            Ok::<_, Failed>(())
        })
        .unwrap();
        let (left, cancelled) = (b_left_at.into_inner(), cancelled_at.into_inner());
        let waited = left.unwrap().unwrap() - cancelled.unwrap().unwrap();
        // One poll interval in theory; the slack is for a loaded host.
        assert!(
            waited < 50 * POLL,
            "cancellation took {waited:?} to be seen"
        );
    }

    #[test]
    fn a_worker_that_stops_early_does_not_strand_its_siblings() {
        let queue = Queue::new(0..2);
        // Both bodies return holding a job; `run` must still come back.
        let held = run(&BudgetScope::unlimited(), 2, &queue, |w| {
            Ok::<_, Failed>(w.next_job())
        });
        assert_eq!(held.unwrap().iter().flatten().count(), 2);
    }

    #[test]
    fn a_panicking_job_is_reported_and_every_thread_joined() {
        let before = thread_count();
        for _ in 0..50 {
            let queue = Queue::new(0..64);
            let scope = BudgetScope::unlimited();
            let failed = run(&scope, 8, &queue, |w| {
                while let Some(i) = w.next_job() {
                    assert!(i != 5, "boom at {i}");
                }
                Ok::<_, Failed>(())
            });
            let Err(Failed::Panic(5, message)) = failed else {
                panic!("expected job 5's panic, got {failed:?}");
            };
            assert!(message.contains("boom at 5"), "{message}");
            assert!(scope.is_cancelled(), "siblings are told to stop");
        }
        // 50 rounds of 8 workers: a pool that left threads behind would
        // show hundreds (the slack is for sibling tests' own threads).
        if let (Some(b), Some(a)) = (before, thread_count()) {
            assert!(a <= b + 64, "leaked threads: {b} before, {a} after");
        }
    }

    /// Jobs `a < b` both fail, in either order in time, while job 0
    /// answers the cancellation with an echo: the report is always `a`
    /// — not the echo's smaller index, not whichever failed first.
    #[test]
    fn the_smallest_failing_index_is_reported_whatever_the_schedule() {
        let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
        let mut draw = |n: usize| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) as usize % n
        };
        for schedule in 0..100 {
            let n = 12;
            let a = 1 + draw(n - 2);
            let b = a + 1 + draw(n - 1 - a);
            let (b_first, workers) = (draw(2) == 0, 3 + draw(4));
            let queue = Queue::new(0..n);
            let scope = BudgetScope::unlimited();
            let [a_failed, b_taken, b_failed] = [(); 3].map(|()| AtomicBool::new(false));
            let set = |flag: &AtomicBool| flag.store(true, Ordering::SeqCst);
            let is_set = |flag: &AtomicBool| flag.load(Ordering::SeqCst);
            let failed = run(&scope, workers, &queue, |w| {
                while let Some(i) = w.next_job() {
                    if i == 0 {
                        wait_until("a sibling failed", || scope.is_cancelled());
                        return Err(Failed::Echo);
                    } else if i == a {
                        let before = if b_first { &b_failed } else { &b_taken };
                        wait_until("b is far enough", || is_set(before));
                        set(&a_failed);
                        return Err(Failed::Job(a));
                    } else if i == b {
                        set(&b_taken);
                        wait_until("a failed", || b_first || is_set(&a_failed));
                        set(&b_failed);
                        return Err(Failed::Job(b));
                    }
                }
                Ok(())
            });
            assert_eq!(
                failed,
                Err(Failed::Job(a)),
                "schedule {schedule}: a={a} b={b} b_first={b_first} workers={workers}"
            );
        }
    }
}
