//! Crash-safe compiled-artifact store (paper §6 infrastructure).
//!
//! Knowledge compilation dominates end-to-end latency (the paper's
//! Figure 9 measures it at orders of magnitude over inference), and the
//! compiled form is a pure function of the event network and the engine
//! options. This crate persists compiled artifacts — d-DNNF node arrays
//! and OBDD snapshots — on disk keyed by a **lineage fingerprint**
//! ([`fingerprint_network`]), so a re-run over unchanged lineage pays a
//! load instead of a recompile.
//!
//! Two properties make the cache safe to trust:
//!
//! * **Crash-safe writes.** [`ArtifactStore::save_dnnf`]/[`save_obdd`](
//!   ArtifactStore::save_obdd) write a temp file, fsync, then rename
//!   atomically — a crash mid-save leaves the previous artifact (or
//!   nothing), never a torn file under the final name.
//! * **Zero-trust loads.** The on-disk frame is versioned and
//!   checksummed (per-section CRC-32 plus a whole-file digest), and a
//!   load that passes the checksums is *still* revalidated: structural
//!   invariants are re-checked (d-DNNF decomposability via support
//!   bitsets and determinism of every OR; OBDD ordering, reduction, and
//!   complement-edge canonicity), and a stored per-target WMC digest is
//!   compared against a fresh sweep over the rebuilt artifact. Any
//!   mismatch is a structured [`StoreError`] — never a panic, never a
//!   silently wrong probability.
//!
//! A failed load (missing, corrupt, stale version, wrong fingerprint)
//! is the first rung of the degradation ladder: the caller recompiles
//! under its [`Budget`](enframe_core::budget::Budget), and if that is
//! exhausted too, falls back to network bounds. The store reports
//! `store_hits` / `store_misses` / `store_corruptions` /
//! `store_revalidations` counters and `store_load` / `store_save` /
//! `store_verify` phase spans through `enframe-telemetry`.

mod frame;

use enframe_core::event::CmpOp;
use enframe_core::fingerprint::{Fingerprint, FingerprintHasher};
use enframe_core::value::Value;
use enframe_core::var::{Var, VarTable};
use enframe_network::{Network, NodeKind};
use enframe_obdd::dnnf::{Dnnf, DnnfEngine, DnnfManager, DnnfNode, DnnfOptions};
use enframe_obdd::{ObddEngine, ObddOptions, ObddSnapshot, SnapshotNode};
use enframe_prob::order::VarOrder;
use enframe_telemetry::{self as telemetry, Counter, Phase};
use std::path::{Path, PathBuf};

/// Absolute tolerance for the OBDD WMC digest check. A rebuilt manager
/// re-derives every node, so summation order can differ from the saving
/// process at the last few ulps; the d-DNNF sweep is canonical and is
/// held to bitwise equality instead.
const OBDD_WMC_TOL: f64 = 1e-12;

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Why an artifact could not be saved or loaded.
///
/// Every variant carries the path it concerns. None of these are
/// fatal to the caller: each maps to "recompile from the network",
/// the next rung of the degradation ladder.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying I/O failed (including injected failpoint faults).
    /// `is_not_found` distinguishes a plain cache miss.
    Io {
        /// The artifact (or temp) path involved.
        path: PathBuf,
        /// The originating I/O error.
        source: std::io::Error,
    },
    /// The bytes are not a valid artifact: bad magic, checksum or
    /// digest mismatch, truncation, malformed payload, a structural
    /// invariant that no longer holds, or a WMC digest that disagrees
    /// with a fresh sweep.
    Corrupt {
        /// The artifact path.
        path: PathBuf,
        /// Human-readable description of the first violation found.
        detail: String,
    },
    /// The artifact was written by a different format version.
    VersionMismatch {
        /// The artifact path.
        path: PathBuf,
        /// Version found in the file header.
        found: u32,
        /// The version this build reads and writes.
        expected: u32,
    },
    /// The file is internally consistent but keyed by a different
    /// lineage fingerprint than the one requested — a stale or
    /// misplaced artifact.
    FingerprintMismatch {
        /// The artifact path.
        path: PathBuf,
        /// Fingerprint recorded in the file.
        found: Fingerprint,
        /// Fingerprint the caller asked for.
        expected: Fingerprint,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "artifact I/O failed at {}: {source}", path.display())
            }
            StoreError::Corrupt { path, detail } => {
                write!(f, "corrupt artifact at {}: {detail}", path.display())
            }
            StoreError::VersionMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "artifact at {} has format version {found}, this build reads {expected}",
                path.display()
            ),
            StoreError::FingerprintMismatch {
                path,
                found,
                expected,
            } => write!(
                f,
                "artifact at {} is keyed by fingerprint {found}, wanted {expected}",
                path.display()
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl StoreError {
    /// Whether this is a plain cache miss (the artifact file does not
    /// exist) rather than a fault or corruption.
    pub fn is_not_found(&self) -> bool {
        matches!(self, StoreError::Io { source, .. }
            if source.kind() == std::io::ErrorKind::NotFound)
    }
}

// ---------------------------------------------------------------------
// Engine kinds and lineage fingerprints.
// ---------------------------------------------------------------------

/// Which compiled form an artifact holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// A d-DNNF node array (`enframe_obdd::dnnf`).
    Dnnf,
    /// An OBDD snapshot (`enframe_obdd::ObddSnapshot`).
    Obdd,
}

impl EngineKind {
    /// Short name used in artifact file names.
    pub fn name(self) -> &'static str {
        match self {
            EngineKind::Dnnf => "dnnf",
            EngineKind::Obdd => "obdd",
        }
    }

    fn code(self) -> u8 {
        match self {
            EngineKind::Dnnf => 0,
            EngineKind::Obdd => 1,
        }
    }
}

/// The lineage fingerprint an artifact is keyed by: a content hash of
/// everything that determines the compiled *functions* — the full event
/// network (node kinds, payloads, wiring, constant values), the target
/// set and names, the engine kind, the variable-order heuristic, and
/// the var-groups. The key names the functions, whose answers agree
/// within 1e-12 however they were compiled, not the node layout: worker
/// count, budget and the OBDD maintenance switch are not hashed, and
/// [`ObddEngine::import`] always rebuilds with automatic maintenance.
pub fn fingerprint_network(
    net: &Network,
    kind: EngineKind,
    order: VarOrder,
    groups: &[Vec<Var>],
) -> Fingerprint {
    let mut h = FingerprintHasher::new("enframe-store/lineage");
    h.write_discriminant(kind.code() as u32);
    h.write_u32(net.n_vars);
    h.write_len(net.len());
    for node in net.nodes() {
        hash_kind(&mut h, &node.kind);
        h.write_len(node.children.len());
        for c in &node.children {
            h.write_u32(c.0);
        }
        hash_value(&mut h, node.value.as_ref());
    }
    h.write_len(net.targets.len());
    for t in &net.targets {
        h.write_u32(t.0);
    }
    h.write_len(net.target_names.len());
    for name in &net.target_names {
        h.write_str(name);
    }
    h.write_discriminant(match order {
        VarOrder::Sequential => 0,
        VarOrder::StaticOccurrence => 1,
        VarOrder::Dynamic => 2,
    });
    h.write_len(groups.len());
    for g in groups {
        h.write_len(g.len());
        for v in g {
            h.write_u32(v.0);
        }
    }
    h.finish()
}

/// [`fingerprint_network`] with the fields a d-DNNF compile reads from
/// its options.
pub fn fingerprint_dnnf(net: &Network, opts: &DnnfOptions) -> Fingerprint {
    fingerprint_network(net, EngineKind::Dnnf, opts.order, &[])
}

/// [`fingerprint_network`] with the fields an OBDD compile reads from
/// its options.
pub fn fingerprint_obdd(net: &Network, opts: &ObddOptions) -> Fingerprint {
    fingerprint_network(net, EngineKind::Obdd, opts.order, &opts.groups)
}

/// Node-kind discriminants are part of every stored key: renumbering one
/// orphans every artifact already on disk (`fingerprints_are_pinned`).
fn hash_kind(h: &mut FingerprintHasher, k: &NodeKind) {
    match k {
        NodeKind::Var(v) => {
            h.write_discriminant(0);
            h.write_u32(v.0);
        }
        NodeKind::ConstBool(b) => {
            h.write_discriminant(1);
            h.write_u32(*b as u32);
        }
        NodeKind::Not => h.write_discriminant(2),
        NodeKind::And => h.write_discriminant(3),
        NodeKind::Or => h.write_discriminant(4),
        NodeKind::Cmp(op) => {
            h.write_discriminant(5);
            h.write_u32(match op {
                CmpOp::Le => 0,
                CmpOp::Lt => 1,
                CmpOp::Ge => 2,
                CmpOp::Gt => 3,
                CmpOp::Eq => 4,
            });
        }
        NodeKind::ConstVal => h.write_discriminant(6),
        NodeKind::Cond => h.write_discriminant(7),
        NodeKind::Guard => h.write_discriminant(8),
        NodeKind::Sum => h.write_discriminant(9),
        NodeKind::Prod => h.write_discriminant(10),
        NodeKind::Inv => h.write_discriminant(11),
        NodeKind::Pow(e) => {
            h.write_discriminant(12);
            h.write_u64(*e as i64 as u64);
        }
        NodeKind::Dist => h.write_discriminant(13),
    }
}

fn hash_value(h: &mut FingerprintHasher, v: Option<&Value>) {
    match v {
        None => h.write_discriminant(0),
        Some(Value::Undef) => h.write_discriminant(1),
        Some(Value::Num(x)) => {
            h.write_discriminant(2);
            h.write_f64_bits(*x);
        }
        Some(Value::Point(p)) => {
            h.write_discriminant(3);
            h.write_len(p.len());
            for &x in p.iter() {
                h.write_f64_bits(x);
            }
        }
    }
}

// ---------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------

/// A directory of compiled artifacts, one file per (engine kind,
/// fingerprint) pair.
///
/// All methods are `&self` and safe to call from several processes at
/// once: saves are atomic renames (last writer wins with a complete
/// file either way) and loads never observe a partial write.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    root: PathBuf,
}

impl ArtifactStore {
    /// A store rooted at `root`. The directory is created lazily on the
    /// first save; a missing directory on load is just a miss.
    pub fn new(root: impl Into<PathBuf>) -> ArtifactStore {
        ArtifactStore { root: root.into() }
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The file an artifact with this key lives at.
    pub fn path_for(&self, kind: EngineKind, fp: Fingerprint) -> PathBuf {
        self.root.join(format!("{}-{fp}.efs", kind.name()))
    }

    /// Whether an artifact is present under this key. A cheap
    /// existence probe for cache-tier management — it does **not**
    /// validate the artifact (a later load may still find it corrupt;
    /// the zero-trust pipeline is the only judge of usability).
    pub fn contains(&self, kind: EngineKind, fp: Fingerprint) -> bool {
        self.path_for(kind, fp).is_file()
    }

    /// Evicts the artifact keyed by `(kind, fp)` from the disk tier.
    /// Returns whether an artifact was actually removed; a missing
    /// entry is `Ok(false)`, not an error, so eviction is idempotent
    /// (mirroring how loads treat a missing file as a plain miss).
    pub fn remove(&self, kind: EngineKind, fp: Fingerprint) -> Result<bool, StoreError> {
        let path = self.path_for(kind, fp);
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(source) => Err(StoreError::Io { path, source }),
        }
    }

    /// Persists a compiled d-DNNF engine under `fp`, including the
    /// weights in `vt` and the per-target probabilities they induce
    /// (the WMC digest future loads are checked against). Returns the
    /// artifact path.
    pub fn save_dnnf(
        &self,
        fp: Fingerprint,
        engine: &DnnfEngine,
        vt: &VarTable,
    ) -> Result<PathBuf, StoreError> {
        let path = self.path_for(EngineKind::Dnnf, fp);
        let _span = telemetry::span(Phase::StoreSave);
        let weights = table_weights(vt);
        let probs = engine.probabilities(vt);
        let f = frame::Frame {
            kind: EngineKind::Dnnf.code(),
            fingerprint: fp.0,
            sections: encode_dnnf(engine, &weights, &probs),
        };
        frame::write_atomic(&path, &f.encode()).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        Ok(path)
    }

    /// Loads, checks, and revalidates the d-DNNF artifact keyed by
    /// `fp`. `workers` configures the rebuilt engine's query
    /// parallelism (`0` = auto) — it does not affect the artifact.
    pub fn load_dnnf(&self, fp: Fingerprint, workers: usize) -> Result<DnnfEngine, StoreError> {
        let path = self.path_for(EngineKind::Dnnf, fp);
        let _span = telemetry::span(Phase::StoreLoad);
        let result = self.load_dnnf_at(&path, fp, workers);
        note_outcome(&result);
        result
    }

    fn load_dnnf_at(
        &self,
        path: &Path,
        fp: Fingerprint,
        workers: usize,
    ) -> Result<DnnfEngine, StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let f = read_frame(path, EngineKind::Dnnf, fp, 3)?;
        let nodes = decode_dnnf_nodes(&f.sections[0]).map_err(&corrupt)?;
        let man = DnnfManager::from_nodes(nodes).map_err(&corrupt)?;
        let (targets, names) = decode_targets(&f.sections[1]).map_err(&corrupt)?;
        let targets = targets.into_iter().map(Dnnf::from_index).collect();
        let engine = DnnfEngine::from_parts(man, targets, names, workers).map_err(&corrupt)?;
        let (weights, stored) = decode_weights(&f.sections[2]).map_err(&corrupt)?;

        let _verify = telemetry::span(Phase::StoreVerify);
        telemetry::count(Counter::StoreRevalidation);
        check_weights(&weights).map_err(&corrupt)?;
        let mentioned = engine
            .manager()
            .nodes()
            .iter()
            .filter_map(|n| match n {
                DnnfNode::Lit { var, .. } => Some(var.index()),
                _ => None,
            })
            .max();
        if let Some(m) = mentioned {
            if m >= weights.len() {
                return Err(corrupt(format!(
                    "stored weights cover {} variables but the artifact mentions x{m}",
                    weights.len()
                )));
            }
        }
        verify_dnnf(engine.manager()).map_err(&corrupt)?;
        if stored.len() != engine.n_targets() {
            return Err(corrupt(format!(
                "stored WMC digest has {} entries for {} targets",
                stored.len(),
                engine.n_targets()
            )));
        }
        let vt = VarTable::new(weights);
        let fresh = engine.probabilities(&vt);
        for (i, (&f, &s)) in fresh.iter().zip(stored.iter()).enumerate() {
            // The d-DNNF sweep reduces children canonically, so any
            // honest rebuild reproduces the save-time bits exactly.
            if f.to_bits() != s.to_bits() {
                return Err(corrupt(format!(
                    "WMC digest mismatch on target {i}: recomputed {f:e}, stored {s:e}"
                )));
            }
        }
        Ok(engine)
    }

    /// Persists a compiled OBDD engine under `fp` (unique-table
    /// contents reachable from the targets, variable order, blocks,
    /// weights, and the WMC digest). Returns the artifact path.
    pub fn save_obdd(
        &self,
        fp: Fingerprint,
        engine: &ObddEngine,
        vt: &VarTable,
    ) -> Result<PathBuf, StoreError> {
        let path = self.path_for(EngineKind::Obdd, fp);
        let _span = telemetry::span(Phase::StoreSave);
        let snap = engine.export();
        let weights = table_weights(vt);
        let probs = engine.probabilities(vt);
        let f = frame::Frame {
            kind: EngineKind::Obdd.code(),
            fingerprint: fp.0,
            sections: encode_obdd(&snap, &weights, &probs),
        };
        frame::write_atomic(&path, &f.encode()).map_err(|source| StoreError::Io {
            path: path.clone(),
            source,
        })?;
        Ok(path)
    }

    /// Loads, checks, and revalidates the OBDD artifact keyed by `fp`.
    pub fn load_obdd(&self, fp: Fingerprint) -> Result<ObddEngine, StoreError> {
        let path = self.path_for(EngineKind::Obdd, fp);
        let _span = telemetry::span(Phase::StoreLoad);
        let result = self.load_obdd_at(&path, fp);
        note_outcome(&result);
        result
    }

    fn load_obdd_at(&self, path: &Path, fp: Fingerprint) -> Result<ObddEngine, StoreError> {
        let corrupt = |detail: String| StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        };
        let f = read_frame(path, EngineKind::Obdd, fp, 4)?;
        let snap = decode_obdd_snapshot(&f.sections[0], &f.sections[1], &f.sections[2])
            .map_err(&corrupt)?;
        // `import` re-checks every structural invariant: blocks
        // partition the levels, no variable sits on two levels, edges
        // point strictly downward, stored hi edges are never
        // complemented, and no node is unreduced or duplicated.
        let engine = ObddEngine::import(&snap).map_err(&corrupt)?;
        let (weights, stored) = decode_weights(&f.sections[3]).map_err(&corrupt)?;

        let _verify = telemetry::span(Phase::StoreVerify);
        telemetry::count(Counter::StoreRevalidation);
        check_weights(&weights).map_err(&corrupt)?;
        if let Some(m) = snap.level_vars.iter().map(|v| v.index()).max() {
            if m >= weights.len() {
                return Err(corrupt(format!(
                    "stored weights cover {} variables but the order mentions x{m}",
                    weights.len()
                )));
            }
        }
        if stored.len() != engine.n_targets() {
            return Err(corrupt(format!(
                "stored WMC digest has {} entries for {} targets",
                stored.len(),
                engine.n_targets()
            )));
        }
        let vt = VarTable::new(weights);
        let fresh = engine.probabilities(&vt);
        for (i, (&f, &s)) in fresh.iter().zip(stored.iter()).enumerate() {
            // `partial_cmp` makes the NaN case explicit: an
            // incomparable pair (`None`) is corruption, not a pass.
            let within = matches!(
                (f - s).abs().partial_cmp(&OBDD_WMC_TOL),
                Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
            );
            if !within {
                return Err(corrupt(format!(
                    "WMC digest mismatch on target {i}: recomputed {f:e}, stored {s:e}"
                )));
            }
        }
        Ok(engine)
    }
}

fn note_outcome<T>(result: &Result<T, StoreError>) {
    match result {
        Ok(_) => telemetry::count(Counter::StoreHit),
        Err(e) if e.is_not_found() => telemetry::count(Counter::StoreMiss),
        // A transient I/O fault is neither a miss nor corruption;
        // the caller's recompile path covers it.
        Err(StoreError::Io { .. }) => {}
        Err(_) => telemetry::count(Counter::StoreCorruption),
    }
}

fn table_weights(vt: &VarTable) -> Vec<f64> {
    (0..vt.len()).map(|i| vt.prob(Var(i as u32))).collect()
}

fn check_weights(weights: &[f64]) -> Result<(), String> {
    for (i, w) in weights.iter().enumerate() {
        if !(w.is_finite() && (0.0..=1.0).contains(w)) {
            return Err(format!("stored weight for x{i} is {w:e}, outside [0, 1]"));
        }
    }
    Ok(())
}

fn read_frame(
    path: &Path,
    kind: EngineKind,
    fp: Fingerprint,
    n_sections: usize,
) -> Result<frame::Frame, StoreError> {
    let bytes = frame::read_file(path).map_err(|source| StoreError::Io {
        path: path.to_path_buf(),
        source,
    })?;
    let f = frame::Frame::decode(&bytes).map_err(|e| match e {
        frame::FrameError::Version { found } => StoreError::VersionMismatch {
            path: path.to_path_buf(),
            found,
            expected: frame::FORMAT_VERSION,
        },
        frame::FrameError::Corrupt(detail) => StoreError::Corrupt {
            path: path.to_path_buf(),
            detail,
        },
    })?;
    let corrupt = |detail: String| StoreError::Corrupt {
        path: path.to_path_buf(),
        detail,
    };
    if f.kind != kind.code() {
        return Err(corrupt(format!(
            "artifact holds engine kind {}, wanted {}",
            f.kind,
            kind.code()
        )));
    }
    if f.fingerprint != fp.0 {
        return Err(StoreError::FingerprintMismatch {
            path: path.to_path_buf(),
            found: Fingerprint(f.fingerprint),
            expected: fp,
        });
    }
    if f.sections.len() != n_sections {
        return Err(corrupt(format!(
            "expected {n_sections} sections, found {}",
            f.sections.len()
        )));
    }
    Ok(f)
}

// ---------------------------------------------------------------------
// d-DNNF payload codec.
// ---------------------------------------------------------------------

fn encode_dnnf(engine: &DnnfEngine, weights: &[f64], probs: &[f64]) -> Vec<Vec<u8>> {
    let mut s0 = frame::Writer::new();
    let nodes = engine.manager().nodes();
    s0.put_u64(nodes.len() as u64);
    for n in nodes {
        match n {
            DnnfNode::Const(b) => {
                s0.put_u8(0);
                s0.put_u8(*b as u8);
            }
            DnnfNode::Lit { var, positive } => {
                s0.put_u8(1);
                s0.put_u32(var.0);
                s0.put_u8(*positive as u8);
            }
            DnnfNode::And(cs) | DnnfNode::Or(cs) => {
                s0.put_u8(if matches!(n, DnnfNode::And(_)) { 2 } else { 3 });
                s0.put_u64(cs.len() as u64);
                for c in cs.iter() {
                    s0.put_u32(c.index() as u32);
                }
            }
        }
    }
    let mut s1 = frame::Writer::new();
    s1.put_u64(engine.n_targets() as u64);
    for i in 0..engine.n_targets() {
        s1.put_u32(engine.target(i).index() as u32);
    }
    s1.put_u64(engine.names().len() as u64);
    for name in engine.names() {
        s1.put_str(name);
    }
    vec![s0.finish(), s1.finish(), encode_weights(weights, probs)]
}

fn decode_dnnf_nodes(payload: &[u8]) -> Result<Vec<DnnfNode>, String> {
    let mut r = frame::Reader::new(payload);
    let n = r.take_count(2)?;
    let mut nodes = Vec::with_capacity(n);
    for _ in 0..n {
        let tag = r.take_u8()?;
        let node = match tag {
            0 => DnnfNode::Const(r.take_u8()? != 0),
            1 => DnnfNode::Lit {
                var: Var(r.take_u32()?),
                positive: r.take_u8()? != 0,
            },
            2 | 3 => {
                let k = r.take_count(4)?;
                let mut cs = Vec::with_capacity(k);
                for _ in 0..k {
                    cs.push(Dnnf::from_index(r.take_u32()?));
                }
                let cs = cs.into_boxed_slice();
                if tag == 2 {
                    DnnfNode::And(cs)
                } else {
                    DnnfNode::Or(cs)
                }
            }
            t => return Err(format!("unknown d-DNNF node tag {t}")),
        };
        nodes.push(node);
    }
    r.finish()?;
    Ok(nodes)
}

fn decode_targets(payload: &[u8]) -> Result<(Vec<u32>, Vec<String>), String> {
    let mut r = frame::Reader::new(payload);
    let nt = r.take_count(4)?;
    let mut targets = Vec::with_capacity(nt);
    for _ in 0..nt {
        targets.push(r.take_u32()?);
    }
    let nn = r.take_count(4)?;
    let mut names = Vec::with_capacity(nn);
    for _ in 0..nn {
        names.push(r.take_str()?);
    }
    r.finish()?;
    Ok((targets, names))
}

fn encode_weights(weights: &[f64], probs: &[f64]) -> Vec<u8> {
    let mut w = frame::Writer::new();
    w.put_u64(weights.len() as u64);
    for &x in weights {
        w.put_f64_bits(x);
    }
    w.put_u64(probs.len() as u64);
    for &p in probs {
        w.put_f64_bits(p);
    }
    w.finish()
}

fn decode_weights(payload: &[u8]) -> Result<(Vec<f64>, Vec<f64>), String> {
    let mut r = frame::Reader::new(payload);
    let nw = r.take_count(8)?;
    let mut weights = Vec::with_capacity(nw);
    for _ in 0..nw {
        weights.push(r.take_f64_bits()?);
    }
    let np = r.take_count(8)?;
    let mut probs = Vec::with_capacity(np);
    for _ in 0..np {
        probs.push(r.take_f64_bits()?);
    }
    r.finish()?;
    Ok((weights, probs))
}

// ---------------------------------------------------------------------
// OBDD payload codec.
// ---------------------------------------------------------------------

fn encode_obdd(snap: &ObddSnapshot, weights: &[f64], probs: &[f64]) -> Vec<Vec<u8>> {
    let mut s0 = frame::Writer::new();
    s0.put_u64(snap.level_vars.len() as u64);
    for v in &snap.level_vars {
        s0.put_u32(v.0);
    }
    s0.put_u64(snap.blocks.len() as u64);
    for &b in &snap.blocks {
        s0.put_u32(b);
    }
    let mut s1 = frame::Writer::new();
    s1.put_u64(snap.nodes.len() as u64);
    for n in &snap.nodes {
        s1.put_u32(n.level);
        s1.put_u32(n.hi);
        s1.put_u32(n.lo);
    }
    let mut s2 = frame::Writer::new();
    s2.put_u64(snap.targets.len() as u64);
    for &t in &snap.targets {
        s2.put_u32(t);
    }
    s2.put_u64(snap.names.len() as u64);
    for name in &snap.names {
        s2.put_str(name);
    }
    vec![
        s0.finish(),
        s1.finish(),
        s2.finish(),
        encode_weights(weights, probs),
    ]
}

fn decode_obdd_snapshot(
    order: &[u8],
    nodes: &[u8],
    targets: &[u8],
) -> Result<ObddSnapshot, String> {
    let mut r = frame::Reader::new(order);
    let nl = r.take_count(4)?;
    let mut level_vars = Vec::with_capacity(nl);
    for _ in 0..nl {
        level_vars.push(Var(r.take_u32()?));
    }
    let nb = r.take_count(4)?;
    let mut blocks = Vec::with_capacity(nb);
    for _ in 0..nb {
        blocks.push(r.take_u32()?);
    }
    r.finish()?;

    let mut r = frame::Reader::new(nodes);
    let nn = r.take_count(12)?;
    let mut snap_nodes = Vec::with_capacity(nn);
    for _ in 0..nn {
        snap_nodes.push(SnapshotNode {
            level: r.take_u32()?,
            hi: r.take_u32()?,
            lo: r.take_u32()?,
        });
    }
    r.finish()?;

    let (target_refs, names) = decode_targets(targets)?;
    Ok(ObddSnapshot {
        level_vars,
        blocks,
        nodes: snap_nodes,
        targets: target_refs,
        names,
    })
}

// ---------------------------------------------------------------------
// Semantic revalidation: the d-DNNF language invariants.
// ---------------------------------------------------------------------

/// Re-proves the two properties the single-pass model counter relies on
/// and no checksum can vouch for: every `And` is **decomposable**
/// (children mention pairwise disjoint variable sets — checked with
/// per-node support bitsets) and every `Or` is **deterministic** (the
/// two branches of the decision disagree on the decision variable at
/// top level, so they are logically inconsistent).
fn verify_dnnf(man: &DnnfManager) -> Result<(), String> {
    let nodes = man.nodes();
    let n_vars = nodes
        .iter()
        .filter_map(|n| match n {
            DnnfNode::Lit { var, .. } => Some(var.index() + 1),
            _ => None,
        })
        .max()
        .unwrap_or(0);
    let words = n_vars.div_ceil(64).max(1);
    // Flat support matrix: support[i*words..][..words] is node i's
    // variable set. Children precede parents (guaranteed by
    // `from_nodes`), so one forward pass suffices.
    let mut support = vec![0u64; nodes.len() * words];
    for i in 0..nodes.len() {
        let (done, rest) = support.split_at_mut(i * words);
        let mine = &mut rest[..words];
        match &nodes[i] {
            DnnfNode::Const(_) => {}
            DnnfNode::Lit { var, .. } => {
                mine[var.index() / 64] |= 1 << (var.index() % 64);
            }
            DnnfNode::And(cs) => {
                for c in cs.iter() {
                    let cw = &done[c.index() * words..c.index() * words + words];
                    for w in 0..words {
                        if mine[w] & cw[w] != 0 {
                            return Err(format!(
                                "AND node {i} is not decomposable: children share variables"
                            ));
                        }
                        mine[w] |= cw[w];
                    }
                }
            }
            DnnfNode::Or(cs) => {
                let a = top_literals(nodes, cs[0]);
                let b = top_literals(nodes, cs[1]);
                let deterministic = a.iter().any(|&(v, p)| b.contains(&(v, !p)));
                if !deterministic {
                    return Err(format!(
                        "OR node {i} is not deterministic: no variable separates its branches"
                    ));
                }
                for c in cs.iter() {
                    let cw = &done[c.index() * words..c.index() * words + words];
                    for w in 0..words {
                        mine[w] |= cw[w];
                    }
                }
            }
        }
    }
    Ok(())
}

/// The literals a sentence asserts at top level: the literal itself, or
/// the literal children of a conjunction. (This is exactly where the
/// compiler places the decision literal of every `Or` branch.)
fn top_literals(nodes: &[DnnfNode], f: Dnnf) -> Vec<(u32, bool)> {
    match &nodes[f.index()] {
        DnnfNode::Lit { var, positive } => vec![(var.0, *positive)],
        DnnfNode::And(cs) => cs
            .iter()
            .filter_map(|&c| match &nodes[c.index()] {
                DnnfNode::Lit { var, positive } => Some((var.0, *positive)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

// ---------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::{space, Program};

    fn mutex_chain(k: usize) -> Network {
        let mut p = Program::new();
        let vars: Vec<_> = (0..k).map(|_| p.fresh_var()).collect();
        for j in 0..k {
            let mut conj: Vec<_> = vars[..j].iter().map(|&x| Program::nvar(x)).collect();
            conj.push(Program::var(vars[j]));
            let e = p.declare_event(&format!("Phi{j}"), Program::and(conj));
            p.add_target(e);
        }
        Network::build(&p.ground().unwrap()).unwrap()
    }

    fn tmp_store(name: &str) -> ArtifactStore {
        let root =
            std::env::temp_dir().join(format!("enframe-store-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        ArtifactStore::new(root)
    }

    fn reference(k: usize, p: f64) -> (Network, VarTable, Vec<f64>) {
        let mut prog = Program::new();
        let vars: Vec<_> = (0..k).map(|_| prog.fresh_var()).collect();
        for j in 0..k {
            let mut conj: Vec<_> = vars[..j].iter().map(|&x| Program::nvar(x)).collect();
            conj.push(Program::var(vars[j]));
            let e = prog.declare_event(&format!("Phi{j}"), Program::and(conj));
            prog.add_target(e);
        }
        let g = prog.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let vt = VarTable::uniform(k, p);
        let want = space::target_probabilities(&g, &vt);
        (net, vt, want)
    }

    #[test]
    fn dnnf_round_trips_bitwise() {
        let (net, vt, want) = reference(7, 0.3);
        let opts = DnnfOptions::default();
        let fp = fingerprint_dnnf(&net, &opts);
        let engine = DnnfEngine::compile(&net, &opts).unwrap();
        let store = tmp_store("dnnf-rt");
        store.save_dnnf(fp, &engine, &vt).unwrap();
        let loaded = store.load_dnnf(fp, 1).unwrap();
        let orig = engine.probabilities(&vt);
        let back = loaded.probabilities(&vt);
        for i in 0..want.len() {
            assert_eq!(orig[i].to_bits(), back[i].to_bits(), "target {i}");
            assert!((back[i] - want[i]).abs() < 1e-9, "target {i} vs reference");
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn obdd_round_trips_within_tolerance() {
        let (net, vt, want) = reference(7, 0.45);
        let opts = ObddOptions::default();
        let fp = fingerprint_obdd(&net, &opts);
        let engine = ObddEngine::compile(&net, &opts).unwrap();
        let store = tmp_store("obdd-rt");
        store.save_obdd(fp, &engine, &vt).unwrap();
        let loaded = store.load_obdd(fp).unwrap();
        let back = loaded.probabilities(&vt);
        for i in 0..want.len() {
            assert!((back[i] - want[i]).abs() < 1e-9, "target {i} vs reference");
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn missing_artifact_is_a_miss() {
        let store = tmp_store("miss");
        let err = store.load_dnnf(Fingerprint(1), 1).unwrap_err();
        assert!(err.is_not_found(), "got {err}");
    }

    #[test]
    fn wrong_fingerprint_is_structured() {
        let net = mutex_chain(5);
        let vt = VarTable::uniform(5, 0.5);
        let opts = DnnfOptions::default();
        let fp = fingerprint_dnnf(&net, &opts);
        let engine = DnnfEngine::compile(&net, &opts).unwrap();
        let store = tmp_store("wrong-fp");
        let path = store.save_dnnf(fp, &engine, &vt).unwrap();
        // Misfile the artifact under a different key.
        let other = Fingerprint(fp.0 ^ 1);
        std::fs::copy(&path, store.path_for(EngineKind::Dnnf, other)).unwrap();
        match store.load_dnnf(other, 1) {
            Err(StoreError::FingerprintMismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, fp);
                assert_eq!(expected, other);
            }
            r => panic!("expected a fingerprint mismatch, got {r:?}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn fingerprint_tracks_lineage() {
        let a = mutex_chain(5);
        let b = mutex_chain(6);
        let opts = DnnfOptions::default();
        assert_eq!(fingerprint_dnnf(&a, &opts), fingerprint_dnnf(&a, &opts));
        assert_ne!(fingerprint_dnnf(&a, &opts), fingerprint_dnnf(&b, &opts));
        // Engine kind and order are part of the key.
        assert_ne!(
            fingerprint_network(&a, EngineKind::Dnnf, VarOrder::default(), &[]),
            fingerprint_network(&a, EngineKind::Obdd, VarOrder::default(), &[])
        );
        assert_ne!(
            fingerprint_network(&a, EngineKind::Obdd, VarOrder::Sequential, &[]),
            fingerprint_network(&a, EngineKind::Obdd, VarOrder::Dynamic, &[])
        );
    }

    #[test]
    fn tampered_wmc_digest_is_caught_semantically() {
        // Build a frame that passes every checksum (we re-encode it
        // honestly) but stores a wrong probability: only the fresh
        // WMC sweep can catch it.
        let net = mutex_chain(5);
        let vt = VarTable::uniform(5, 0.5);
        let opts = DnnfOptions::default();
        let fp = fingerprint_dnnf(&net, &opts);
        let engine = DnnfEngine::compile(&net, &opts).unwrap();
        let store = tmp_store("tamper-digest");
        let path = store.save_dnnf(fp, &engine, &vt).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut f = match frame::Frame::decode(&bytes) {
            Ok(f) => f,
            Err(_) => panic!("fresh artifact must decode"),
        };
        let last = f.sections[2].len() - 8;
        f.sections[2][last..].copy_from_slice(&0.123_f64.to_bits().to_le_bytes());
        std::fs::write(&path, f.encode()).unwrap();
        match store.load_dnnf(fp, 1) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("WMC digest"), "got: {detail}")
            }
            r => panic!("expected corruption, got {r:?}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    #[test]
    fn verify_rejects_non_decomposable_and() {
        let nodes = vec![
            DnnfNode::Const(true),
            DnnfNode::Const(false),
            DnnfNode::Lit {
                var: Var(0),
                positive: true,
            },
            DnnfNode::Lit {
                var: Var(0),
                positive: false,
            },
            DnnfNode::And(Box::new([Dnnf::from_index(2), Dnnf::from_index(3)])),
        ];
        let man = DnnfManager::from_nodes(nodes).unwrap();
        let err = verify_dnnf(&man).unwrap_err();
        assert!(err.contains("not decomposable"), "got: {err}");
    }

    #[test]
    fn verify_rejects_non_deterministic_or() {
        let nodes = vec![
            DnnfNode::Const(true),
            DnnfNode::Const(false),
            DnnfNode::Lit {
                var: Var(0),
                positive: true,
            },
            DnnfNode::Lit {
                var: Var(1),
                positive: true,
            },
            DnnfNode::Or(Box::new([Dnnf::from_index(2), Dnnf::from_index(3)])),
        ];
        let man = DnnfManager::from_nodes(nodes).unwrap();
        let err = verify_dnnf(&man).unwrap_err();
        assert!(err.contains("not deterministic"), "got: {err}");
    }

    #[test]
    fn out_of_range_weights_do_not_panic() {
        let net = mutex_chain(4);
        let vt = VarTable::uniform(4, 0.5);
        let opts = DnnfOptions::default();
        let fp = fingerprint_dnnf(&net, &opts);
        let engine = DnnfEngine::compile(&net, &opts).unwrap();
        let store = tmp_store("bad-weights");
        let path = store.save_dnnf(fp, &engine, &vt).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let mut f = match frame::Frame::decode(&bytes) {
            Ok(f) => f,
            Err(_) => panic!("fresh artifact must decode"),
        };
        // First stored weight → NaN; `VarTable::new` would assert on
        // this, so the store must reject it before construction.
        f.sections[2][8..16].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
        std::fs::write(&path, f.encode()).unwrap();
        match store.load_dnnf(fp, 1) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("outside [0, 1]"), "got: {detail}")
            }
            r => panic!("expected corruption, got {r:?}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }

    /// A three-target network with one node of every [`NodeKind`].
    fn every_kind_network() -> Network {
        use enframe_core::{CVal, Event};
        use std::rc::Rc;
        let lit = |v: Value| Rc::new(CVal::Const(v));
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let z = p.fresh_var();
        let cx = CVal::cond(Program::var(x), Value::Num(2.0));
        let gy = Rc::new(CVal::Guard(Program::nvar(y), lit(Value::Num(3.0))));
        let sum = Rc::new(CVal::Sum(vec![cx.clone(), gy]));
        let prod = Rc::new(CVal::Prod(vec![cx, lit(Value::Num(4.0))]));
        let dist = Rc::new(CVal::Dist(
            Rc::new(CVal::Inv(sum)),
            Rc::new(CVal::Pow(prod, 2)),
        ));
        let a = p.declare_event(
            "A",
            Rc::new(Event::Atom(CmpOp::Le, dist, lit(Value::Num(5.0)))),
        );
        let b = p.declare_event(
            "B",
            Program::and([
                Program::var(x),
                Program::or([Program::var(y), Program::var(z)]),
            ]),
        );
        let t = p.declare_event("T", Rc::new(Event::Tru));
        for id in [a, b, t] {
            p.add_target(id);
        }
        Network::build(&p.ground().unwrap()).unwrap()
    }

    /// Store identity is stable across builds: an artifact written by an
    /// earlier build of the same lineage must still be found. The pins
    /// were printed by the build that still had a fifteenth node kind
    /// (discriminant 14); deleting it moved none of them. Changing the
    /// fingerprint on purpose (a wider hash, a new field) updates them.
    #[test]
    fn fingerprints_are_pinned() {
        let net = every_kind_network();
        let kinds: std::collections::HashSet<_> = net
            .nodes()
            .iter()
            .map(|n| std::mem::discriminant(&n.kind))
            .collect();
        assert_eq!(kinds.len(), 14, "one node of every kind");
        assert_eq!(
            fingerprint_dnnf(&net, &DnnfOptions::default()),
            Fingerprint(0x9e67_5b76_c283_cb3a)
        );
        assert_eq!(
            fingerprint_obdd(&net, &ObddOptions::default()),
            Fingerprint(0x1df8_f3be_e450_6d80)
        );
    }

    #[test]
    fn wrong_engine_kind_is_corrupt() {
        let net = mutex_chain(4);
        let vt = VarTable::uniform(4, 0.5);
        let opts = ObddOptions::default();
        let fp = fingerprint_obdd(&net, &opts);
        let engine = ObddEngine::compile(&net, &opts).unwrap();
        let store = tmp_store("wrong-kind");
        let path = store.save_obdd(fp, &engine, &vt).unwrap();
        // Present the OBDD artifact as a d-DNNF one.
        std::fs::copy(&path, store.path_for(EngineKind::Dnnf, fp)).unwrap();
        match store.load_dnnf(fp, 1) {
            Err(StoreError::Corrupt { detail, .. }) => {
                assert!(detail.contains("engine kind"), "got: {detail}")
            }
            r => panic!("expected corruption, got {r:?}"),
        }
        let _ = std::fs::remove_dir_all(store.root());
    }
}
