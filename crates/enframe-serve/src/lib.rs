//! # enframe-serve — concurrent query evaluation over epoch-snapshotted artifacts
//!
//! The compilation pipeline (`enframe-obdd`, `enframe-store`) answers
//! one query at a time: compile (or reload) the lineage, sweep, return.
//! A *service* answering many concurrent queries over a working set of
//! lineages wants two things the pipeline alone does not give:
//!
//! 1. **A two-tier artifact cache.** Each request's lineage
//!    [`Fingerprint`] resolves through an in-memory LRU of live compiled
//!    engines in front of the on-disk [`ArtifactStore`] tier. Concurrent
//!    misses on one fingerprint are **single-flighted**: one requester
//!    compiles (or reloads) while the rest wait for its result, so a
//!    thundering herd costs one compile, not N.
//! 2. **Epoch-snapshotted reads.** Queries evaluate lock-free against an
//!    immutable `Arc`-published snapshot ([`EpochCell`]); maintenance
//!    ([`QueryService::maintain`] — GC, reorder, recompile) builds a
//!    replacement off to the side and swings the epoch:
//!    publish-then-retire, no reader ever blocks on maintenance.
//!
//! Evaluation itself has one path: every request runs one WMC sweep of
//! the snapshot it loaded. Concurrent readers share that `Arc<Artifact>`.
//! For OBDD they do not share one warm [`enframe_obdd::WmcCache`]: a
//! sweep takes the engine's cache out while it runs, so a reader that
//! overlaps another sweeps from an empty cache, and the last one to
//! finish installs its own. Each answer is the sweep a sequential
//! caller would run: bitwise-equal for d-DNNF, within 1e-12 for OBDD
//! (reordering between epochs may permute the float reductions).
//!
//! Every request carries a [`Budget`] and rides the degradation ladder:
//! budget exhaustion — during a coalesced wait, during compilation, or
//! mid-sweep — degrades to the anytime bounds engine
//! ([`Answer::Degraded`]) under the *same* (absolute-deadline) budget,
//! never an error, and only for the request whose budget ran out.
//! Structural failures (unsupported lineage, injected faults, worker
//! panics) surface as structured [`ServeError`]s.
//!
//! `ENFRAME_FAILPOINTS=serve_admit:every-N` faults admission
//! deterministically ([`enframe_core::failpoint`]).

use enframe_core::budget::{Budget, BudgetScope};
use enframe_core::failpoint::{self, Site};
use enframe_core::fingerprint::Fingerprint;
use enframe_core::fxhash::FxHashMap;
use enframe_core::{EpochCell, VarTable};
use enframe_network::Network;
use enframe_obdd::dnnf::{DnnfEngine, DnnfOptions};
use enframe_obdd::{ObddEngine, ObddError, ObddOptions};
use enframe_prob::degrade_to_bounds;
use enframe_store::{fingerprint_dnnf, fingerprint_obdd, ArtifactStore, EngineKind};
use enframe_telemetry::{self as telemetry, Counter, Phase};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Errors of the serve layer. Budget exhaustion is deliberately *not*
/// here: an exhausted request degrades to bounds ([`Answer::Degraded`])
/// instead of failing.
#[derive(Debug, Clone)]
pub enum ServeError {
    /// The `serve_admit` failpoint fired (`ENFRAME_FAILPOINTS`); only
    /// reachable with the failpoint armed.
    Injected(&'static str),
    /// The request's variable table is shorter than the lineage's
    /// variable count; rejected at admission, before anything is
    /// resolved or swept.
    VarTableTooShort {
        /// Variables the request's table covers.
        have: usize,
        /// Variables the lineage's network declares.
        need: usize,
    },
    /// Compilation or evaluation failed structurally (unsupported
    /// lineage, worker panic, injected engine fault — everything except
    /// budget exhaustion, which degrades instead).
    Engine(ObddError),
    /// The single-flight leader panicked outside the engines' own panic
    /// isolation; the flight was resolved with this error so waiters
    /// never hang.
    Panicked(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Injected(site) => write!(f, "injected fault at failpoint `{site}`"),
            ServeError::VarTableTooShort { have, need } => write!(
                f,
                "variable table covers {have} variables but the lineage has {need}"
            ),
            ServeError::Engine(e) => write!(f, "engine failure while serving: {e}"),
            ServeError::Panicked(msg) => write!(f, "compile flight panicked: {msg}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ObddError> for ServeError {
    fn from(e: ObddError) -> Self {
        ServeError::Engine(e)
    }
}

impl ServeError {
    /// Whether this failure is budget exhaustion (degradable) rather
    /// than a structural error.
    fn is_budget(&self) -> bool {
        matches!(self, ServeError::Engine(ObddError::BudgetExceeded { .. }))
    }
}

// ---------------------------------------------------------------------
// Lineage handles and artifacts.
// ---------------------------------------------------------------------

/// Which compiled form a [`Lineage`] asks for, with its compile options.
#[derive(Debug, Clone)]
enum EngineSpec {
    Dnnf(DnnfOptions),
    Obdd(ObddOptions),
}

/// A request's lineage: the event network, the engine it should be
/// compiled with, and the **precomputed** fingerprint the artifact cache
/// is keyed by. Build one handle per working-set entry and clone it per
/// request — queries then never rehash the network on the hot path.
#[derive(Debug, Clone)]
pub struct Lineage {
    net: Arc<Network>,
    spec: EngineSpec,
    fp: Fingerprint,
}

impl Lineage {
    /// A lineage served from the d-DNNF engine.
    pub fn dnnf(net: Arc<Network>, opts: DnnfOptions) -> Lineage {
        let fp = fingerprint_dnnf(&net, &opts);
        Lineage {
            net,
            spec: EngineSpec::Dnnf(opts),
            fp,
        }
    }

    /// A lineage served from the OBDD engine.
    pub fn obdd(net: Arc<Network>, opts: ObddOptions) -> Lineage {
        let fp = fingerprint_obdd(&net, &opts);
        Lineage {
            net,
            spec: EngineSpec::Obdd(opts),
            fp,
        }
    }

    /// The artifact-cache key (workers and budget excluded — they shape
    /// how fast compilation runs, not what it produces).
    pub fn fingerprint(&self) -> Fingerprint {
        self.fp
    }

    /// The engine kind this lineage compiles to.
    pub fn kind(&self) -> EngineKind {
        match self.spec {
            EngineSpec::Dnnf(_) => EngineKind::Dnnf,
            EngineSpec::Obdd(_) => EngineKind::Obdd,
        }
    }

    /// The event network.
    pub fn network(&self) -> &Network {
        &self.net
    }
}

/// A live compiled form, either engine. Both engines are `Sync`, so
/// concurrent queries share one `Arc<Artifact>` snapshot and the one
/// warm WMC cache inside it.
#[derive(Debug)]
pub enum Artifact {
    /// A compiled d-DNNF engine.
    Dnnf(DnnfEngine),
    /// A compiled OBDD engine (boxed: a manager is much larger than a
    /// d-DNNF node array header).
    Obdd(Box<ObddEngine>),
}

impl Artifact {
    /// Which engine this artifact is.
    pub fn kind(&self) -> EngineKind {
        match self {
            Artifact::Dnnf(_) => EngineKind::Dnnf,
            Artifact::Obdd(_) => EngineKind::Obdd,
        }
    }

    /// Number of compiled targets.
    pub fn n_targets(&self) -> usize {
        match self {
            Artifact::Dnnf(e) => e.n_targets(),
            Artifact::Obdd(e) => e.n_targets(),
        }
    }

    /// One budget-aware WMC sweep over all targets.
    pub fn try_probabilities(
        &self,
        vt: &VarTable,
        scope: &BudgetScope,
    ) -> Result<Vec<f64>, ObddError> {
        match self {
            Artifact::Dnnf(e) => e.try_probabilities(vt, scope),
            Artifact::Obdd(e) => e.try_probabilities(vt, scope),
        }
    }
}

// ---------------------------------------------------------------------
// Service configuration and replies.
// ---------------------------------------------------------------------

/// Configuration of a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Capacity of the in-memory artifact tier (live engines). At least
    /// 1; least-recently-used entries are evicted past the cap.
    pub mem_capacity: usize,
    /// On-disk artifact tier behind the memory tier, or `None` to
    /// compile on every memory miss. Reloads are zero-trust revalidated
    /// by the store itself.
    pub store: Option<ArtifactStore>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            mem_capacity: 32,
            store: None,
        }
    }
}

/// The probabilistic content of a [`Reply`].
#[derive(Debug, Clone)]
pub enum Answer {
    /// Exact probability per target, in registration order.
    Exact(Vec<f64>),
    /// The request's budget ran out; sound `[L, U]` enclosures of the
    /// exact answers from the anytime bounds engine under the same
    /// (absolute-deadline) budget.
    Degraded {
        /// Lower bounds per target.
        lower: Vec<f64>,
        /// Upper bounds per target.
        upper: Vec<f64>,
    },
}

/// One answered query.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The answer (exact, or degraded bounds on budget exhaustion).
    pub answer: Answer,
    /// Epoch of the snapshot the answer was computed against (0 for
    /// degraded answers computed without a snapshot).
    pub epoch: u64,
}

// ---------------------------------------------------------------------
// Internal state: memory tier, single-flight.
// ---------------------------------------------------------------------

/// In-memory LRU tier: fingerprint → live epoch-snapshotted artifact.
#[derive(Debug)]
struct MemTier {
    cap: usize,
    tick: u64,
    entries: FxHashMap<Fingerprint, MemEntry>,
}

#[derive(Debug)]
struct MemEntry {
    last_used: u64,
    cell: Arc<EpochCell<Artifact>>,
}

impl MemTier {
    fn get(&mut self, fp: Fingerprint) -> Option<Arc<EpochCell<Artifact>>> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&fp).map(|e| {
            e.last_used = tick;
            Arc::clone(&e.cell)
        })
    }

    fn insert(&mut self, fp: Fingerprint, cell: Arc<EpochCell<Artifact>>) {
        self.tick += 1;
        while self.entries.len() >= self.cap && !self.entries.contains_key(&fp) {
            let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(fp, _)| fp)
            else {
                break;
            };
            self.entries.remove(&victim);
        }
        self.entries.insert(
            fp,
            MemEntry {
                last_used: self.tick,
                cell,
            },
        );
    }
}

/// A single-flight compile: one leader resolves the artifact, everyone
/// else waits on the condvar for the published result.
#[derive(Debug)]
struct Flight {
    state: Mutex<Option<Result<Arc<EpochCell<Artifact>>, ServeError>>>,
    cv: Condvar,
}

/// How long a waiter sleeps between re-checks of its own budget while
/// parked on a flight's condvar — bounds degradation latency without
/// busy-waiting.
const WAIT_POLL: Duration = Duration::from_millis(10);

impl Flight {
    /// Waits for the leader's published result, or until the waiter's
    /// own budget runs out (then degrades rather than waiting further).
    fn wait(&self, scope: &BudgetScope) -> Result<Arc<EpochCell<Artifact>>, ServeError> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(result) = (*st).clone() {
                return result;
            }
            scope
                .checkpoint()
                .map_err(|x| ServeError::Engine(x.into()))?;
            st = self
                .cv
                .wait_timeout(st, WAIT_POLL)
                .unwrap_or_else(|e| e.into_inner())
                .0;
        }
    }
}

/// Decrements the in-flight gauge even if evaluation panics, so the
/// queue-depth high-water mark stays truthful under chaos.
struct DepthGuard<'a>(&'a AtomicU64);

impl Drop for DepthGuard<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Relaxed);
    }
}

// ---------------------------------------------------------------------
// The service.
// ---------------------------------------------------------------------

/// A long-lived query service over a working set of compiled lineages.
/// All methods are `&self`; share one instance across client threads.
#[derive(Debug)]
pub struct QueryService {
    opts: ServeOptions,
    mem: Mutex<MemTier>,
    flights: Mutex<FxHashMap<Fingerprint, Arc<Flight>>>,
    active: AtomicU64,
}

impl QueryService {
    /// A service with the given options.
    pub fn new(opts: ServeOptions) -> QueryService {
        let cap = opts.mem_capacity.max(1);
        QueryService {
            opts,
            mem: Mutex::new(MemTier {
                cap,
                tick: 0,
                entries: FxHashMap::default(),
            }),
            flights: Mutex::new(FxHashMap::default()),
            active: AtomicU64::new(0),
        }
    }

    /// Answers one query: resolve the lineage through the cache tiers,
    /// sweep the current epoch snapshot once, and stamp the reply with
    /// the epoch it was computed against. Budget exhaustion anywhere on
    /// the path degrades to bounds; only structural failures error.
    pub fn query(
        &self,
        lineage: &Lineage,
        vt: &VarTable,
        budget: Budget,
    ) -> Result<Reply, ServeError> {
        let _span = telemetry::span(Phase::Serve);
        let depth = self.active.fetch_add(1, Ordering::Relaxed) + 1;
        let _guard = DepthGuard(&self.active);
        telemetry::count_max(Counter::ServeQueueDepth, depth);
        if failpoint::hit(Site::ServeAdmit) {
            return Err(ServeError::Injected(Site::ServeAdmit.name()));
        }
        // The table comes from outside; the sweeps index it by variable
        // and treat a miss as a broken invariant (a panic).
        let need = lineage.net.n_vars as usize;
        if vt.len() < need {
            return Err(ServeError::VarTableTooShort {
                have: vt.len(),
                need,
            });
        }
        let scope = BudgetScope::new(budget);
        let (art, epoch) = match self.resolve(lineage, vt, budget, &scope) {
            Ok(cell) => cell.load_with_epoch(),
            Err(e) if e.is_budget() => {
                return Ok(Reply {
                    answer: degrade(lineage, vt, budget),
                    epoch: 0,
                })
            }
            Err(e) => return Err(e),
        };
        let answer = match art.try_probabilities(vt, &scope) {
            Ok(probs) => Answer::Exact(probs),
            Err(ObddError::BudgetExceeded { .. }) => degrade(lineage, vt, budget),
            Err(e) => return Err(ServeError::Engine(e)),
        };
        Ok(Reply { answer, epoch })
    }

    /// Drops every in-memory artifact (the store tier is untouched).
    /// The next query per lineage resolves through the store tier or a
    /// fresh compile — the "cold" serving mode of the benchmarks.
    pub fn flush(&self) {
        self.mem
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .entries
            .clear();
    }

    /// Runs one maintenance pass over the lineage's resident artifact —
    /// OBDD: snapshot, rebuild, reorder, collect garbage; d-DNNF:
    /// recompile (canonical, so the rebuild is bitwise-identical) — and
    /// swings the epoch. Readers keep answering from the old snapshot
    /// throughout and it retires when the last one finishes. Returns the
    /// new epoch, or `None` when the artifact is not resident (nothing
    /// to maintain) or the rebuild failed (the old epoch stays live —
    /// maintenance must never take a working artifact down).
    pub fn maintain(&self, lineage: &Lineage) -> Option<u64> {
        let cell = {
            let mut mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
            mem.get(lineage.fp)?
        };
        let rebuilt = match &*cell.load() {
            Artifact::Obdd(e) => {
                let snap = e.export();
                let mut fresh = ObddEngine::import(&snap).ok()?;
                fresh.reorder();
                fresh.collect_garbage();
                Artifact::Obdd(Box::new(fresh))
            }
            Artifact::Dnnf(_) => {
                let EngineSpec::Dnnf(opts) = &lineage.spec else {
                    return None;
                };
                Artifact::Dnnf(DnnfEngine::compile(&lineage.net, opts).ok()?)
            }
        };
        // Racing maintainers may both publish; each publishes a complete,
        // equivalent artifact, so the last swing simply wins.
        let epoch = cell.publish(rebuilt);
        telemetry::count(Counter::ServeEpochSwing);
        Some(epoch)
    }

    /// Test hook (chaos): plants an arbitrary artifact in the memory
    /// tier under `fp`, bypassing compilation — used to prove that a
    /// corrupt in-memory entry is detected on hit, evicted, and
    /// re-resolved through the store tier.
    #[doc(hidden)]
    pub fn inject_mem_entry(&self, fp: Fingerprint, artifact: Artifact) {
        let mut mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
        mem.insert(fp, Arc::new(EpochCell::new(artifact)));
    }

    // -----------------------------------------------------------------
    // Tier resolution.
    // -----------------------------------------------------------------

    /// Resolves the lineage to its live artifact cell: memory tier,
    /// then (single-flighted) store tier, then compile.
    fn resolve(
        &self,
        lineage: &Lineage,
        vt: &VarTable,
        budget: Budget,
        scope: &BudgetScope,
    ) -> Result<Arc<EpochCell<Artifact>>, ServeError> {
        if let Some(cell) = self.mem_hit(lineage) {
            telemetry::count(Counter::ServeMemHit);
            return Ok(cell);
        }
        telemetry::count(Counter::ServeMemMiss);

        let (flight, leader) = {
            let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            match flights.get(&lineage.fp) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    // A flight that ended since our miss filled the
                    // memory tier before it retired: take its result
                    // rather than compile a second time.
                    if let Some(cell) = self.mem_hit(lineage) {
                        telemetry::count(Counter::ServeCoalesce);
                        return Ok(cell);
                    }
                    let f = Arc::new(Flight {
                        state: Mutex::new(None),
                        cv: Condvar::new(),
                    });
                    flights.insert(lineage.fp, Arc::clone(&f));
                    (f, true)
                }
            }
        };

        if leader {
            let built = catch_unwind(AssertUnwindSafe(|| {
                self.build_artifact(lineage, vt, budget)
            }))
            .unwrap_or_else(|payload| {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".into());
                Err(ServeError::Panicked(msg))
            });
            if let Ok(cell) = &built {
                self.mem
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .insert(lineage.fp, Arc::clone(cell));
            }
            // Retire the flight *before* publishing: requesters
            // arriving after a failure start a fresh flight instead of
            // reading a stale error.
            self.flights
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .remove(&lineage.fp);
            let mut st = flight.state.lock().unwrap_or_else(|e| e.into_inner());
            *st = Some(built.clone());
            drop(st);
            flight.cv.notify_all();
            return built;
        }

        telemetry::count(Counter::ServeCoalesce);
        match flight.wait(scope) {
            // The leader ran out of *its* budget, not ours: resolve again
            // under our own. The flight is already retired, so this
            // starts or joins a fresh one.
            Err(e) if e.is_budget() && scope.checkpoint().is_ok() => {
                self.resolve(lineage, vt, budget, scope)
            }
            result => result,
        }
    }

    /// The lineage's memory-tier entry, if it passes the screen. The
    /// memory tier holds live process memory, so unlike the zero-trust
    /// disk tier it is trusted — but a cheap structural screen (right
    /// engine, right target count) catches a poisoned or misfiled entry,
    /// evicts it, and falls back through the store tier instead of
    /// serving it.
    fn mem_hit(&self, lineage: &Lineage) -> Option<Arc<EpochCell<Artifact>>> {
        let mut mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
        let cell = mem.get(lineage.fp)?;
        let art = cell.load();
        if art.kind() == lineage.kind() && art.n_targets() == lineage.net.targets.len() {
            return Some(cell);
        }
        mem.entries.remove(&lineage.fp);
        None
    }

    /// Store tier, then compile; saves a fresh compile back to the
    /// store (best-effort — a failed save never fails the query).
    fn build_artifact(
        &self,
        lineage: &Lineage,
        vt: &VarTable,
        budget: Budget,
    ) -> Result<Arc<EpochCell<Artifact>>, ServeError> {
        if let Some(store) = &self.opts.store {
            let loaded = match &lineage.spec {
                EngineSpec::Dnnf(opts) => store
                    .load_dnnf(lineage.fp, opts.workers)
                    .map(Artifact::Dnnf),
                EngineSpec::Obdd(_) => store
                    .load_obdd(lineage.fp)
                    .map(|e| Artifact::Obdd(Box::new(e))),
            };
            // On any load failure — not-found, corrupt, version-skewed,
            // I/O-faulted — the store has already classified and counted
            // the outcome; every one of them falls back to a fresh
            // compile.
            if let Ok(art) = loaded {
                return Ok(Arc::new(EpochCell::new(art)));
            }
        }
        let art = match &lineage.spec {
            EngineSpec::Dnnf(opts) => {
                let opts = DnnfOptions {
                    budget,
                    ..opts.clone()
                };
                let engine = DnnfEngine::compile(&lineage.net, &opts)?;
                if let Some(store) = &self.opts.store {
                    // Best-effort write-back; the artifact serves from
                    // memory either way.
                    let _ = store.save_dnnf(lineage.fp, &engine, vt);
                }
                Artifact::Dnnf(engine)
            }
            EngineSpec::Obdd(opts) => {
                let opts = ObddOptions {
                    budget,
                    ..opts.clone()
                };
                let engine = ObddEngine::compile(&lineage.net, &opts)?;
                if let Some(store) = &self.opts.store {
                    let _ = store.save_obdd(lineage.fp, &engine, vt);
                }
                Artifact::Obdd(Box::new(engine))
            }
        };
        Ok(Arc::new(EpochCell::new(art)))
    }
}

/// The degradation ladder's last rung ([`degrade_to_bounds`] at
/// ε = 0.1): answer with a sound `[L, U]` enclosure.
fn degrade(lineage: &Lineage, vt: &VarTable, budget: Budget) -> Answer {
    let res = degrade_to_bounds(&lineage.net, vt, 0.1, budget);
    Answer::Degraded {
        lower: res.lower,
        upper: res.upper,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::{Program, Var};
    use std::sync::Barrier;

    /// Telemetry counters are process-global; tests that assert on them
    /// hold this lock so the harness's parallel threads cannot
    /// interleave their counts.
    fn telemetry_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        telemetry::set_enabled(true);
        telemetry::reset();
        guard
    }

    /// A mutex-chain lineage: k targets Φⱼ = ¬x₀ ∧ … ∧ xⱼ with the
    /// closed-form reference P(Φⱼ) = Πᵢ<ⱼ (1−pᵢ) · pⱼ.
    fn chain(k: usize) -> (Arc<Network>, VarTable, Vec<f64>) {
        let mut p = Program::new();
        let vars: Vec<Var> = (0..k).map(|_| p.fresh_var()).collect();
        for j in 0..k {
            let mut conj: Vec<_> = vars[..j].iter().map(|&x| Program::nvar(x)).collect();
            conj.push(Program::var(vars[j]));
            let e = p.declare_event(&format!("Phi{j}"), Program::and(conj));
            p.add_target(e);
        }
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::new((0..k).map(|i| 0.3 + 0.01 * i as f64).collect());
        let mut want = Vec::with_capacity(k);
        for j in 0..k {
            let mut w = vt.prob(Var(j as u32));
            for i in 0..j {
                w *= 1.0 - vt.prob(Var(i as u32));
            }
            want.push(w);
        }
        (Arc::new(net), vt, want)
    }

    fn exact(reply: &Reply) -> &[f64] {
        match &reply.answer {
            Answer::Exact(p) => p,
            Answer::Degraded { .. } => panic!("expected an exact answer, got degraded bounds"),
        }
    }

    fn temp_store(name: &str) -> (ArtifactStore, std::path::PathBuf) {
        let root =
            std::env::temp_dir().join(format!("enframe-serve-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        (ArtifactStore::new(&root), root)
    }

    #[test]
    fn second_query_hits_the_memory_tier() {
        let _t = telemetry_lock();
        let (net, vt, want) = chain(8);
        let svc = QueryService::new(ServeOptions::default());
        let lin = Lineage::dnnf(net, DnnfOptions::default());
        for _ in 0..2 {
            let reply = svc.query(&lin, &vt, Budget::unlimited()).unwrap();
            let got = exact(&reply);
            for j in 0..want.len() {
                assert!((got[j] - want[j]).abs() < 1e-12, "target {j}");
            }
            assert_eq!(reply.epoch, 0);
        }
        let snap = telemetry::snapshot();
        assert_eq!(snap.counter(Counter::ServeMemMiss), 1);
        assert_eq!(snap.counter(Counter::ServeMemHit), 1);
        assert!(snap.counter(Counter::ServeQueueDepth) >= 1);
        assert!(snap.phase_count(Phase::Serve) >= 2);
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_flight() {
        let _t = telemetry_lock();
        let (net, vt, want) = chain(10);
        let svc = Arc::new(QueryService::new(ServeOptions::default()));
        let lin = Lineage::obdd(net, ObddOptions::default());
        let n = 8;
        let barrier = Arc::new(Barrier::new(n));
        std::thread::scope(|s| {
            for _ in 0..n {
                let svc = Arc::clone(&svc);
                let lin = lin.clone();
                let vt = vt.clone();
                let barrier = Arc::clone(&barrier);
                let want = want.clone();
                s.spawn(move || {
                    barrier.wait();
                    let reply = svc.query(&lin, &vt, Budget::unlimited()).unwrap();
                    let got = exact(&reply);
                    for j in 0..want.len() {
                        assert!((got[j] - want[j]).abs() < 1e-12, "target {j}");
                    }
                });
            }
        });
        let snap = telemetry::snapshot();
        // Every query either hit the warm tier, led the one flight, or
        // coalesced behind it — so hits + coalesces account for all but
        // the leader.
        assert_eq!(
            snap.counter(Counter::ServeMemHit) + snap.counter(Counter::ServeCoalesce),
            n as u64 - 1
        );
        assert_eq!(
            snap.counter(Counter::ServeMemMiss),
            snap.counter(Counter::ServeCoalesce) + 1
        );
    }

    /// A waiter coalesced behind a leader whose own deadline runs out
    /// mid-compile must not inherit that exhaustion: it resolves again
    /// under its own (unlimited) budget and answers exactly.
    #[test]
    fn a_waiter_does_not_inherit_the_leaders_budget_failure() {
        let _t = telemetry_lock();
        let _calm = failpoint::arm("");
        let (net, vt, want) = chain(12);
        let lin = Lineage::dnnf(
            net,
            DnnfOptions {
                workers: 2,
                ..DnnfOptions::default()
            },
        );
        let mut coalesced = 0;
        for _ in 0..5 {
            let svc = QueryService::new(ServeOptions::default());
            let in_flight = || {
                svc.flights
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .contains_key(&lin.fp)
            };
            std::thread::scope(|s| {
                let leader = s.spawn(|| {
                    // A 40 ms stall per pool job: the 30 ms deadline
                    // runs out while the flight is registered.
                    let _stall = failpoint::arm("recv:every-1");
                    svc.query(&lin, &vt, Budget::with_timeout(Duration::from_millis(30)))
                });
                while !in_flight() && !leader.is_finished() {
                    std::thread::yield_now();
                }
                if in_flight() {
                    coalesced += 1;
                    let reply = svc.query(&lin, &vt, Budget::unlimited()).unwrap();
                    let got = exact(&reply);
                    for j in 0..want.len() {
                        assert!((got[j] - want[j]).abs() < 1e-12, "target {j}");
                    }
                }
                assert!(leader.join().unwrap().is_ok(), "the leader degrades");
            });
        }
        assert!(coalesced > 0, "no round caught the leader's flight");
    }

    #[test]
    fn budget_exhaustion_degrades_to_bounds_not_an_error() {
        let _t = telemetry_lock();
        let (net, vt, want) = chain(8);
        let svc = QueryService::new(ServeOptions::default());
        let lin = Lineage::dnnf(net, DnnfOptions::default());
        let reply = svc
            .query(&lin, &vt, Budget::with_timeout(Duration::ZERO))
            .unwrap();
        match &reply.answer {
            Answer::Degraded { lower, upper } => {
                assert_eq!(lower.len(), want.len());
                for j in 0..want.len() {
                    assert!(
                        lower[j] - 1e-12 <= want[j] && want[j] <= upper[j] + 1e-12,
                        "target {j}: [{}, {}] must enclose {}",
                        lower[j],
                        upper[j],
                        want[j]
                    );
                }
            }
            Answer::Exact(_) => panic!("a zero-deadline budget must degrade"),
        }
        assert!(telemetry::snapshot().counter(Counter::Fallback) >= 1);
    }

    #[test]
    fn maintenance_swings_the_epoch_without_changing_answers() {
        let _t = telemetry_lock();
        let (net, vt, want) = chain(10);
        let svc = QueryService::new(ServeOptions::default());
        let lin = Lineage::obdd(net, ObddOptions::default());
        let before = svc.query(&lin, &vt, Budget::unlimited()).unwrap();
        assert_eq!(before.epoch, 0);
        assert_eq!(svc.maintain(&lin), Some(1));
        let after = svc.query(&lin, &vt, Budget::unlimited()).unwrap();
        assert_eq!(after.epoch, 1);
        let (b, a) = (exact(&before), exact(&after));
        for j in 0..want.len() {
            assert!(
                (b[j] - a[j]).abs() < 1e-12,
                "target {j} changed across epochs"
            );
            assert!(
                (a[j] - want[j]).abs() < 1e-12,
                "target {j} wrong after swing"
            );
        }
        assert_eq!(telemetry::snapshot().counter(Counter::ServeEpochSwing), 1);
        // Nothing resident under a different lineage: nothing to maintain.
        let other = Lineage::dnnf(
            Arc::new(Network::clone(lin.network())),
            DnnfOptions::default(),
        );
        assert_eq!(svc.maintain(&other), None);
    }

    #[test]
    fn memory_misses_fall_back_to_the_store_tier() {
        let _t = telemetry_lock();
        let (net, vt, want) = chain(8);
        let (store, root) = temp_store("warm");
        let first = QueryService::new(ServeOptions {
            store: Some(store.clone()),
            ..ServeOptions::default()
        });
        let lin = Lineage::dnnf(net, DnnfOptions::default());
        let _ = first.query(&lin, &vt, Budget::unlimited()).unwrap();
        telemetry::reset();
        // A fresh service (cold memory tier) over the same store must
        // reload, not recompile.
        let second = QueryService::new(ServeOptions {
            store: Some(store),
            ..ServeOptions::default()
        });
        let reply = second.query(&lin, &vt, Budget::unlimited()).unwrap();
        let got = exact(&reply);
        for j in 0..want.len() {
            assert!((got[j] - want[j]).abs() < 1e-12, "target {j}");
        }
        let snap = telemetry::snapshot();
        assert_eq!(snap.counter(Counter::StoreHit), 1);
        assert_eq!(snap.counter(Counter::StoreMiss), 0);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn lru_evicts_the_least_recently_used_artifact() {
        let _t = telemetry_lock();
        let (net_a, vt_a, _) = chain(6);
        let (net_b, vt_b, _) = chain(7);
        let svc = QueryService::new(ServeOptions {
            mem_capacity: 1,
            ..ServeOptions::default()
        });
        let a = Lineage::dnnf(net_a, DnnfOptions::default());
        let b = Lineage::dnnf(net_b, DnnfOptions::default());
        let _ = svc.query(&a, &vt_a, Budget::unlimited()).unwrap(); // miss
        let _ = svc.query(&b, &vt_b, Budget::unlimited()).unwrap(); // miss, evicts a
        let _ = svc.query(&a, &vt_a, Budget::unlimited()).unwrap(); // miss again
        let snap = telemetry::snapshot();
        assert_eq!(snap.counter(Counter::ServeMemMiss), 3);
        assert_eq!(snap.counter(Counter::ServeMemHit), 0);
    }

    #[test]
    fn corrupt_memory_entry_is_screened_and_re_resolved() {
        let _t = telemetry_lock();
        let (net, vt, want) = chain(8);
        let (net_other, _, _) = chain(3);
        let svc = QueryService::new(ServeOptions::default());
        let lin = Lineage::dnnf(net, DnnfOptions::default());
        // Plant a wrong artifact (3 targets, not 8) under the lineage's key.
        let wrong = DnnfEngine::compile(&net_other, &DnnfOptions::default()).unwrap();
        svc.inject_mem_entry(lin.fingerprint(), Artifact::Dnnf(wrong));
        let reply = svc.query(&lin, &vt, Budget::unlimited()).unwrap();
        let got = exact(&reply);
        for j in 0..want.len() {
            assert!((got[j] - want[j]).abs() < 1e-12, "target {j}");
        }
        let snap = telemetry::snapshot();
        assert_eq!(snap.counter(Counter::ServeMemHit), 0, "screen must reject");
        assert_eq!(snap.counter(Counter::ServeMemMiss), 1);
    }

    #[test]
    fn armed_admission_failpoint_is_a_structured_error() {
        // Asserts on no counter, but its last query bumps them.
        let _t = telemetry_lock();
        let (net, vt, _) = chain(6);
        let svc = QueryService::new(ServeOptions::default());
        let lin = Lineage::dnnf(net, DnnfOptions::default());
        {
            let _guard = failpoint::arm("serve_admit:every-1");
            match svc.query(&lin, &vt, Budget::unlimited()) {
                Err(ServeError::Injected("serve_admit")) => {}
                other => panic!("expected the admission fault, got {other:?}"),
            }
        }
        // Disarmed again: the same service serves normally.
        assert!(svc.query(&lin, &vt, Budget::unlimited()).is_ok());
    }

    #[test]
    fn short_var_table_is_rejected_before_resolution() {
        let _t = telemetry_lock();
        let (net, vt, _) = chain(6);
        let svc = QueryService::new(ServeOptions::default());
        let lin = Lineage::dnnf(net, DnnfOptions::default());
        let short = VarTable::uniform(5, 0.5);
        match svc.query(&lin, &short, Budget::unlimited()) {
            Err(ServeError::VarTableTooShort { have: 5, need: 6 }) => {}
            other => panic!("expected the admission error, got {other:?}"),
        }
        let snap = telemetry::snapshot();
        assert_eq!(snap.counter(Counter::ServeMemMiss), 0, "nothing resolved");
        // A table that covers the lineage (or more) is served.
        assert!(svc.query(&lin, &vt, Budget::unlimited()).is_ok());
        let long = VarTable::uniform(9, 0.5);
        assert!(svc.query(&lin, &long, Budget::unlimited()).is_ok());
    }

    #[test]
    fn flush_forces_cold_resolution() {
        let _t = telemetry_lock();
        let (net, vt, _) = chain(6);
        let svc = QueryService::new(ServeOptions::default());
        let lin = Lineage::dnnf(net, DnnfOptions::default());
        let _ = svc.query(&lin, &vt, Budget::unlimited()).unwrap();
        svc.flush();
        let _ = svc.query(&lin, &vt, Budget::unlimited()).unwrap();
        let snap = telemetry::snapshot();
        assert_eq!(snap.counter(Counter::ServeMemMiss), 2);
        assert_eq!(snap.counter(Counter::ServeMemHit), 0);
    }
}
