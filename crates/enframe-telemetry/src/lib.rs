//! Workspace-wide instrumentation: hierarchical spans, typed counters,
//! and worker timelines, with two exporters.
//!
//! Every hot subsystem (`enframe-obdd`'s manager/compilers/WMC,
//! `enframe-prob`'s distributed engine, the bench harness) reports into
//! this crate instead of hand-threading ad-hoc statistics:
//!
//! * **[Spans](span)** — hierarchical, monotonic-clock timed, one per
//!   pipeline [`Phase`] (network construction, BDD apply, d-DNNF
//!   expansion, unit propagation, WMC sweep, GC, reorder, parallel
//!   merge). A thread-local span stack tracks nesting; the guard closes
//!   its span on drop, so spans survive panics and early returns. [`worker_span`] additionally labels the calling
//!   thread as a worker track, so parallel fan-out runs produce a
//!   per-thread timeline.
//! * **[Counters](Counter)** — typed, registry-keyed relaxed atomics:
//!   cache hits/misses/evictions (ite, WMC, d-DNNF memo), unique-table
//!   probes and resizes, trail pushes/backtracks, nodes
//!   allocated/freed, queue waits per worker, and the serving layer's
//!   cache-tier/single-flight/epoch counters (including the
//!   [`count_max`]-maintained queue-depth high-water mark).
//! * **Exporters** — [`snapshot`] returns the counter and per-phase
//!   aggregates as a value (serialised to flat JSON by
//!   [`Snapshot::to_json`], merged into every bench row), and
//!   [`write_trace_if_armed`] dumps the collected span events in
//!   [Chrome Trace Event Format] so timelines open directly in
//!   `chrome://tracing` / [Perfetto](https://ui.perfetto.dev).
//!
//! The layer is near-zero-cost when disabled: every instrumentation
//! call first checks one global `enabled` flag (a relaxed atomic load
//! of an almost-always-clean cache line) and does nothing else. That
//! bound is not gated: the benchmark reports the *enabled* cost
//! (`trace.overhead_ratio`, traced ÷ untraced), and a compiled-out build
//! to hold the disabled path against is still open (ROADMAP item 1b).
//! The flag starts **off**; benchmarks opt in via
//! [`set_enabled`] / [`init_from_env`] (`ENFRAME_TELEMETRY=1`, or
//! `ENFRAME_TRACE=path` which also arms the trace exporter).
//!
//! [Chrome Trace Event Format]:
//!     https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use std::cell::{Cell, RefCell};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Global switches and the shared clock.
// ---------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);
static TRACING: AtomicBool = AtomicBool::new(false);
static TRACE_PATH: Mutex<Option<String>> = Mutex::new(None);

/// Is telemetry collection on? One relaxed load — this is the check
/// every counter and span performs first, and the whole disabled-mode
/// cost of the layer.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns telemetry collection on or off (counters, span aggregation,
/// and — if armed — trace events). Defaults to off.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Configures telemetry from the environment: `ENFRAME_TRACE=path`
/// enables collection *and* arms the Chrome Trace exporter to write
/// `path` on [`write_trace_if_armed`]; `ENFRAME_TELEMETRY=1`/`0`
/// force-enables/-disables collection. Returns whether collection ended
/// up enabled.
pub fn init_from_env() -> bool {
    if let Ok(path) = std::env::var("ENFRAME_TRACE") {
        if !path.is_empty() {
            arm_trace(path);
        }
    }
    match std::env::var("ENFRAME_TELEMETRY").as_deref() {
        Ok("0") => set_enabled(false),
        Ok(_) => set_enabled(true),
        Err(_) => {}
    }
    enabled()
}

/// Enables collection and arms the trace exporter: span events are
/// buffered from now on and [`write_trace_if_armed`] will write them to
/// `path`.
pub fn arm_trace(path: impl Into<String>) {
    *TRACE_PATH.lock().unwrap() = Some(path.into());
    TRACING.store(true, Ordering::Relaxed);
    set_enabled(true);
}

/// The single monotonic epoch all span timestamps are measured from, so
/// events from different threads share one timeline.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

// ---------------------------------------------------------------------
// Typed counters.
// ---------------------------------------------------------------------

/// The typed counter registry. Each variant is one relaxed [`AtomicU64`]
/// keyed by its stable snake_case [name](Counter::name) — the key used
/// in every exported snapshot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)] // The name() strings below are the documentation.
pub enum Counter {
    IteHit,
    IteMiss,
    IteEviction,
    WmcHit,
    WmcMiss,
    WmcInvalidation,
    MemoHit,
    MemoMiss,
    UniqueProbe,
    UniqueResize,
    NodeAlloc,
    NodeFree,
    TrailPush,
    TrailBacktrack,
    QueueWait,
    BudgetCheck,
    Cancellation,
    Fallback,
    StoreHit,
    StoreMiss,
    StoreCorruption,
    StoreRevalidation,
    ServeMemHit,
    ServeMemMiss,
    ServeCoalesce,
    ServeEpochSwing,
    ServeQueueDepth,
}

const N_COUNTERS: usize = 27;

impl Counter {
    /// Every counter, in registry order (the order snapshots export).
    pub const ALL: [Counter; N_COUNTERS] = [
        Counter::IteHit,
        Counter::IteMiss,
        Counter::IteEviction,
        Counter::WmcHit,
        Counter::WmcMiss,
        Counter::WmcInvalidation,
        Counter::MemoHit,
        Counter::MemoMiss,
        Counter::UniqueProbe,
        Counter::UniqueResize,
        Counter::NodeAlloc,
        Counter::NodeFree,
        Counter::TrailPush,
        Counter::TrailBacktrack,
        Counter::QueueWait,
        Counter::BudgetCheck,
        Counter::Cancellation,
        Counter::Fallback,
        Counter::StoreHit,
        Counter::StoreMiss,
        Counter::StoreCorruption,
        Counter::StoreRevalidation,
        Counter::ServeMemHit,
        Counter::ServeMemMiss,
        Counter::ServeCoalesce,
        Counter::ServeEpochSwing,
        Counter::ServeQueueDepth,
    ];

    /// The stable snake_case key this counter exports under.
    pub fn name(self) -> &'static str {
        match self {
            Counter::IteHit => "ite_hits",
            Counter::IteMiss => "ite_misses",
            Counter::IteEviction => "ite_evictions",
            Counter::WmcHit => "wmc_hits",
            Counter::WmcMiss => "wmc_misses",
            Counter::WmcInvalidation => "wmc_invalidations",
            Counter::MemoHit => "memo_hits",
            Counter::MemoMiss => "memo_misses",
            Counter::UniqueProbe => "unique_probes",
            Counter::UniqueResize => "unique_resizes",
            Counter::NodeAlloc => "nodes_allocated",
            Counter::NodeFree => "nodes_freed",
            Counter::TrailPush => "trail_pushes",
            Counter::TrailBacktrack => "trail_backtracks",
            Counter::QueueWait => "queue_waits",
            Counter::BudgetCheck => "budget_checks",
            Counter::Cancellation => "cancellations",
            Counter::Fallback => "fallbacks",
            Counter::StoreHit => "store_hits",
            Counter::StoreMiss => "store_misses",
            Counter::StoreCorruption => "store_corruptions",
            Counter::StoreRevalidation => "store_revalidations",
            Counter::ServeMemHit => "serve_mem_hits",
            Counter::ServeMemMiss => "serve_mem_misses",
            Counter::ServeCoalesce => "serve_coalesces",
            Counter::ServeEpochSwing => "serve_epoch_swings",
            Counter::ServeQueueDepth => "serve_queue_depth",
        }
    }
}

#[allow(clippy::declare_interior_mutable_const)] // array-init pattern
const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTERS: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];

/// Increments `c` by one (when telemetry is enabled; no-op otherwise).
#[inline]
pub fn count(c: Counter) {
    count_n(c, 1);
}

/// Adds `n` to `c` (when telemetry is enabled; no-op otherwise).
#[inline]
pub fn count_n(c: Counter, n: u64) {
    if enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises `c` to at least `n` (when telemetry is enabled; no-op
/// otherwise) — for high-water-mark counters like
/// [`Counter::ServeQueueDepth`], which report a peak rather than a sum.
#[inline]
pub fn count_max(c: Counter, n: u64) {
    if enabled() {
        COUNTERS[c as usize].fetch_max(n, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Phases and spans.
// ---------------------------------------------------------------------

/// The pipeline phases spans attribute time to. Each variant aggregates
/// total duration and span count under its stable snake_case
/// [name](Phase::name).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
#[allow(missing_docs)] // The name() strings below are the documentation.
pub enum Phase {
    /// Event-network construction (lineage build).
    Build,
    /// OBDD compilation: one span per target, covering its apply loop
    /// or its DP expansion and fold.
    BddApply,
    /// d-DNNF block expansion (residual-state DP).
    DnnfExpand,
    /// Three-valued priming / monotone unit propagation.
    UnitProp,
    /// Weighted model counting sweep (either engine).
    Wmc,
    /// Mark-and-sweep garbage collection.
    Gc,
    /// Dynamic variable reordering (group sifting).
    Reorder,
    /// Merging per-worker results (d-DNNF absorb).
    Merge,
    /// One parallel worker's whole run (fan-out or WMC wavefront).
    Worker,
    /// Time a worker spent blocked on the work queue.
    QueueWait,
    /// Degraded-mode fallback: the hybrid bounds engine running under
    /// the remaining budget after an exact engine exhausted its own.
    Degraded,
    /// Artifact-store load: read + decode of a persisted frame.
    StoreLoad,
    /// Artifact-store save: encode + crash-safe write of a frame.
    StoreSave,
    /// Artifact-store zero-trust revalidation of a loaded artifact.
    StoreVerify,
    /// Query-service request handling: admission, artifact resolution
    /// through the cache tiers, and the one evaluation sweep.
    Serve,
}

const N_PHASES: usize = 15;

impl Phase {
    /// Every phase, in registry order (the order snapshots export).
    pub const ALL: [Phase; N_PHASES] = [
        Phase::Build,
        Phase::BddApply,
        Phase::DnnfExpand,
        Phase::UnitProp,
        Phase::Wmc,
        Phase::Gc,
        Phase::Reorder,
        Phase::Merge,
        Phase::Worker,
        Phase::QueueWait,
        Phase::Degraded,
        Phase::StoreLoad,
        Phase::StoreSave,
        Phase::StoreVerify,
        Phase::Serve,
    ];

    /// The stable snake_case key this phase exports under
    /// (`phase_<name>_s` / `phase_<name>_n` in snapshots).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::BddApply => "bdd_apply",
            Phase::DnnfExpand => "dnnf_expand",
            Phase::UnitProp => "unit_prop",
            Phase::Wmc => "wmc",
            Phase::Gc => "gc",
            Phase::Reorder => "reorder",
            Phase::Merge => "merge",
            Phase::Worker => "worker",
            Phase::QueueWait => "queue_wait",
            Phase::Degraded => "degraded",
            Phase::StoreLoad => "store_load",
            Phase::StoreSave => "store_save",
            Phase::StoreVerify => "store_verify",
            Phase::Serve => "serve",
        }
    }
}

/// Per-phase aggregate: total nanoseconds and number of spans.
struct PhaseAgg {
    ns: AtomicU64,
    n: AtomicU64,
}

#[allow(clippy::declare_interior_mutable_const)] // array-init pattern
const AGG_ZERO: PhaseAgg = PhaseAgg {
    ns: AtomicU64::new(0),
    n: AtomicU64::new(0),
};
static PHASES: [PhaseAgg; N_PHASES] = [AGG_ZERO; N_PHASES];

/// One completed span destined for the Chrome Trace buffer.
struct TraceEvent {
    phase: Phase,
    /// Worker index, if this span was opened with [`worker_span`].
    worker: Option<u32>,
    /// Track (thread) id the span ran on.
    tid: u64,
    ts_us: u64,
    dur_us: u64,
}

static TRACE_BUF: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());
/// `thread_name` metadata rows: (tid, label).
static TRACE_META: Mutex<Vec<(u64, String)>> = Mutex::new(Vec::new());
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// This thread's stable track id (assigned on first span).
    static TID: Cell<u64> = const { Cell::new(u64::MAX) };
    /// Whether a `thread_name` metadata row was already emitted.
    static LABELED: Cell<bool> = const { Cell::new(false) };
    /// The open-span stack — names only, for nesting introspection.
    static STACK: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
}

fn thread_tid() -> u64 {
    TID.with(|t| {
        if t.get() == u64::MAX {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// An open span. Created by [`span`]/[`worker_span`]; closes (records
/// its duration into the phase aggregate and, when tracing is armed,
/// the trace buffer) when dropped — including during a panic unwind, so
/// the span stack always stays balanced.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing"]
pub struct SpanGuard {
    inner: Option<SpanInner>,
}

struct SpanInner {
    phase: Phase,
    worker: Option<u32>,
    start: Instant,
}

/// Opens a span attributing time to `phase` until the returned guard is
/// dropped. No-op (and allocation-free) when telemetry is disabled.
#[inline]
pub fn span(phase: Phase) -> SpanGuard {
    open(phase, None)
}

/// Opens a span for worker `worker`'s work in `phase`, labelling the
/// calling thread's trace track `worker-<n>` so fan-out runs render as
/// per-worker timelines in Perfetto. No-op when telemetry is disabled.
#[inline]
pub fn worker_span(phase: Phase, worker: usize) -> SpanGuard {
    open(phase, Some(worker as u32))
}

fn open(phase: Phase, worker: Option<u32>) -> SpanGuard {
    if !enabled() {
        return SpanGuard { inner: None };
    }
    if let Some(w) = worker {
        if TRACING.load(Ordering::Relaxed) {
            LABELED.with(|l| {
                if !l.get() {
                    l.set(true);
                    TRACE_META
                        .lock()
                        .unwrap()
                        .push((thread_tid(), format!("worker-{w}")));
                }
            });
        }
    }
    STACK.with(|s| s.borrow_mut().push(phase.name()));
    SpanGuard {
        inner: Some(SpanInner {
            phase,
            worker,
            start: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur = inner.start.elapsed();
        STACK.with(|s| {
            let mut s = s.borrow_mut();
            debug_assert_eq!(s.last().copied(), Some(inner.phase.name()));
            s.pop();
        });
        let agg = &PHASES[inner.phase as usize];
        agg.ns.fetch_add(dur.as_nanos() as u64, Ordering::Relaxed);
        agg.n.fetch_add(1, Ordering::Relaxed);
        if TRACING.load(Ordering::Relaxed) {
            TRACE_BUF.lock().unwrap().push(TraceEvent {
                phase: inner.phase,
                worker: inner.worker,
                tid: thread_tid(),
                ts_us: inner.start.duration_since(epoch()).as_micros() as u64,
                dur_us: dur.as_micros() as u64,
            });
        }
    }
}

/// The calling thread's currently-open span names, outermost first.
/// Intended for tests and debugging.
pub fn current_stack() -> Vec<&'static str> {
    STACK.with(|s| s.borrow().clone())
}

// ---------------------------------------------------------------------
// Snapshot exporter.
// ---------------------------------------------------------------------

/// A point-in-time copy of every counter and per-phase aggregate.
/// Values are cumulative since the last [`reset`], so successive
/// snapshots are monotone.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Counter values, indexed by [`Counter`] registry order.
    pub counters: [u64; N_COUNTERS],
    /// Total span nanoseconds per phase, [`Phase`] registry order.
    pub phase_ns: [u64; N_PHASES],
    /// Span counts per phase, [`Phase`] registry order.
    pub phase_n: [u64; N_PHASES],
}

impl Snapshot {
    /// The value of counter `c`.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Total seconds attributed to phase `p`.
    pub fn phase_seconds(&self, p: Phase) -> f64 {
        self.phase_ns[p as usize] as f64 * 1e-9
    }

    /// Number of spans recorded for phase `p`.
    pub fn phase_count(&self, p: Phase) -> u64 {
        self.phase_n[p as usize]
    }

    /// Seconds spent compiling, whichever route ran: BDD apply + d-DNNF
    /// expansion. Each route records exactly one of the two phases per
    /// target, never one nested in the other, so the sum counts no
    /// time twice.
    pub fn compile_seconds(&self) -> f64 {
        self.phase_seconds(Phase::BddApply) + self.phase_seconds(Phase::DnnfExpand)
    }

    /// Serialises the snapshot as one flat JSON object: every counter
    /// under its [`Counter::name`], and per phase `phase_<name>_s`
    /// (seconds, scientific notation) and `phase_<name>_n` (span
    /// count). The key set is fixed, whatever was recorded.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for c in Counter::ALL {
            let _ = write!(out, "\"{}\": {}, ", c.name(), self.counter(c));
        }
        for p in Phase::ALL {
            let _ = write!(
                out,
                "\"phase_{}_s\": {:.6e}, \"phase_{}_n\": {}, ",
                p.name(),
                self.phase_seconds(p),
                p.name(),
                self.phase_count(p)
            );
        }
        out.truncate(out.len() - 2); // trailing ", "
        out.push('}');
        out
    }
}

/// Reads every counter and phase aggregate into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let mut s = Snapshot::default();
    for (i, c) in COUNTERS.iter().enumerate() {
        s.counters[i] = c.load(Ordering::Relaxed);
    }
    for (i, p) in PHASES.iter().enumerate() {
        s.phase_ns[i] = p.ns.load(Ordering::Relaxed);
        s.phase_n[i] = p.n.load(Ordering::Relaxed);
    }
    s
}

/// Zeroes every counter and phase aggregate (the trace buffer is left
/// intact: traces accumulate over a whole process run, snapshots are
/// per-measurement).
pub fn reset() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    for p in &PHASES {
        p.ns.store(0, Ordering::Relaxed);
        p.n.store(0, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// Chrome Trace exporter.
// ---------------------------------------------------------------------

/// Serialises the buffered span events in Chrome Trace Event Format.
/// Each span is one complete (`"ph": "X"`) event on its thread's track;
/// worker threads carry a `thread_name` metadata row so Perfetto labels
/// their tracks `worker-<n>`.
fn render_trace() -> String {
    let buf = TRACE_BUF.lock().unwrap();
    let meta = TRACE_META.lock().unwrap();
    let mut out = String::from("{\"traceEvents\": [\n");
    for (tid, label) in meta.iter() {
        let _ = writeln!(
            out,
            "  {{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": {tid}, \
             \"args\": {{\"name\": \"{label}\"}}}},"
        );
    }
    for (i, e) in buf.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"name\": \"{}\", \"cat\": \"enframe\", \"ph\": \"X\", \"pid\": 1, \
             \"tid\": {}, \"ts\": {}, \"dur\": {}",
            e.phase.name(),
            e.tid,
            e.ts_us,
            e.dur_us
        );
        if let Some(w) = e.worker {
            let _ = write!(out, ", \"args\": {{\"worker\": {w}}}");
        }
        out.push('}');
        out.push_str(if i + 1 < buf.len() { ",\n" } else { "\n" });
    }
    out.push_str("], \"displayTimeUnit\": \"ms\"}\n");
    out
}

/// Writes the buffered trace to `path` (Chrome Trace Event Format, as
/// loaded by `chrome://tracing` and Perfetto).
pub fn write_trace(path: &str) -> std::io::Result<()> {
    std::fs::write(path, render_trace())
}

/// If [`arm_trace`]/`ENFRAME_TRACE` armed the exporter, writes the
/// trace to the armed path and returns it. Call once at process exit
/// (the bench binaries do).
pub fn write_trace_if_armed() -> Option<std::io::Result<String>> {
    let path = TRACE_PATH.lock().unwrap().clone()?;
    Some(write_trace(&path).map(|()| path))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Telemetry state is global; tests that flip it must not overlap.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn counters_only_count_when_enabled() {
        let _g = lock();
        set_enabled(false);
        reset();
        count(Counter::IteHit);
        assert_eq!(snapshot().counter(Counter::IteHit), 0);
        set_enabled(true);
        count(Counter::IteHit);
        count_n(Counter::IteHit, 2);
        assert_eq!(snapshot().counter(Counter::IteHit), 3);
        set_enabled(false);
    }

    #[test]
    fn count_max_keeps_the_high_water_mark() {
        let _g = lock();
        set_enabled(true);
        reset();
        count_max(Counter::ServeQueueDepth, 3);
        count_max(Counter::ServeQueueDepth, 9);
        count_max(Counter::ServeQueueDepth, 5);
        assert_eq!(snapshot().counter(Counter::ServeQueueDepth), 9);
        set_enabled(false);
        count_max(Counter::ServeQueueDepth, 100);
        assert_eq!(snapshot().counter(Counter::ServeQueueDepth), 9);
    }

    #[test]
    fn snapshots_are_monotone() {
        let _g = lock();
        set_enabled(true);
        reset();
        let mut prev = snapshot();
        for _ in 0..10 {
            count(Counter::MemoHit);
            count_n(Counter::TrailPush, 3);
            drop(span(Phase::Wmc));
            let cur = snapshot();
            for c in Counter::ALL {
                assert!(cur.counter(c) >= prev.counter(c));
            }
            for p in Phase::ALL {
                assert!(cur.phase_ns[p as usize] >= prev.phase_ns[p as usize]);
                assert!(cur.phase_count(p) >= prev.phase_count(p));
            }
            prev = cur;
        }
        assert_eq!(prev.counter(Counter::MemoHit), 10);
        assert_eq!(prev.counter(Counter::TrailPush), 30);
        assert_eq!(prev.phase_count(Phase::Wmc), 10);
        set_enabled(false);
    }

    #[test]
    fn spans_nest_and_close_in_lifo_order() {
        let _g = lock();
        set_enabled(true);
        reset();
        {
            let _outer = span(Phase::BddApply);
            assert_eq!(current_stack(), vec!["bdd_apply"]);
            {
                let _inner = span(Phase::UnitProp);
                assert_eq!(current_stack(), vec!["bdd_apply", "unit_prop"]);
            }
            assert_eq!(current_stack(), vec!["bdd_apply"]);
        }
        assert!(current_stack().is_empty());
        let s = snapshot();
        assert_eq!(s.phase_count(Phase::BddApply), 1);
        assert_eq!(s.phase_count(Phase::UnitProp), 1);
        set_enabled(false);
    }

    #[test]
    fn spans_close_across_panics() {
        let _g = lock();
        set_enabled(true);
        reset();
        let r = std::panic::catch_unwind(|| {
            let _s = span(Phase::Gc);
            panic!("mid-span");
        });
        assert!(r.is_err());
        // The drop-guard popped the span during unwind…
        assert!(current_stack().is_empty());
        // …and still recorded it.
        assert_eq!(snapshot().phase_count(Phase::Gc), 1);
        set_enabled(false);
    }

    #[test]
    fn span_stacks_are_per_thread() {
        let _g = lock();
        set_enabled(true);
        reset();
        let _main = span(Phase::Merge);
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    let _s = worker_span(Phase::Worker, w);
                    // Only this thread's own span is visible.
                    assert_eq!(current_stack(), vec!["worker"]);
                });
            }
        });
        assert_eq!(current_stack(), vec!["merge"]);
        drop(_main);
        let snap = snapshot();
        assert_eq!(snap.phase_count(Phase::Worker), 4);
        assert_eq!(snap.phase_count(Phase::Merge), 1);
        set_enabled(false);
    }

    #[test]
    fn disabled_spans_are_invisible() {
        let _g = lock();
        set_enabled(false);
        reset();
        let g = span(Phase::Wmc);
        assert!(current_stack().is_empty());
        drop(g);
        assert_eq!(snapshot().phase_count(Phase::Wmc), 0);
    }

    #[test]
    fn snapshot_json_has_the_full_key_set() {
        let _g = lock();
        set_enabled(true);
        reset();
        count(Counter::UniqueProbe);
        drop(span(Phase::DnnfExpand));
        let json = snapshot().to_json();
        for c in Counter::ALL {
            assert!(json.contains(&format!("\"{}\":", c.name())), "{json}");
        }
        for p in Phase::ALL {
            assert!(json.contains(&format!("\"phase_{}_s\":", p.name())));
            assert!(json.contains(&format!("\"phase_{}_n\":", p.name())));
        }
        assert!(json.starts_with('{') && json.ends_with('}'));
        set_enabled(false);
    }

    #[test]
    fn trace_renders_worker_tracks() {
        let _g = lock();
        set_enabled(true);
        reset();
        TRACE_BUF.lock().unwrap().clear();
        TRACE_META.lock().unwrap().clear();
        TRACING.store(true, Ordering::Relaxed);
        std::thread::scope(|s| {
            for w in 0..4 {
                s.spawn(move || {
                    let _s = worker_span(Phase::Worker, w);
                    let _inner = span(Phase::DnnfExpand);
                });
            }
        });
        TRACING.store(false, Ordering::Relaxed);
        let json = render_trace();
        assert!(json.contains("\"traceEvents\""));
        for w in 0..4 {
            assert!(json.contains(&format!("worker-{w}")), "{json}");
        }
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"ph\": \"M\""));
        set_enabled(false);
    }
}
