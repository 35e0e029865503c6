//! Folded event networks (paper §4.2).
//!
//! "ENFrame offers two ways of encoding such loops in an event network:
//! *unfolded*, in which case the events at any loop iteration are
//! explicitly stored as distinct nodes in the network, or a more efficient
//! *folded* approach in which all iterations are captured into a single
//! set of nodes."
//!
//! A [`FoldedNetwork`] partitions a grounded event program into three
//! regions:
//!
//! * a **prologue** evaluated once (input lineage, initialisations, and any
//!   leading iterations whose structure diverges from the uniform tail —
//!   constant folding over certain data can make the first iteration
//!   cheaper than the rest, so folding starts at the first iteration from
//!   which all bodies are structurally isomorphic);
//! * one **body template** instantiated logically at every iteration
//!   `t ∈ 0..iters`; references to the previous iteration become
//!   [`NodeKind::LoopIn`] leaves wired by [`Carry`] records ("the network
//!   requires an additional node to perform the transition from iteration
//!   `t` to iteration `t + 1`");
//! * an **epilogue** evaluated once against the last iteration (targets
//!   declared after the loop, e.g. co-occurrence events).
//!
//! The builder discovers the carry structure by structurally *zipping*
//! consecutive iteration bodies of the grounded program: positions where
//! iteration `t + 1` references iteration `t` where iteration `t`
//! referenced its own predecessor become loop carries; positions where all
//! iterations reference the same prologue definition stay
//! iteration-independent. Programs whose iterations are not isomorphic
//! (beyond a foldable suffix) are rejected with [`FoldError::NotFoldable`]
//! — callers fall back to the unfolded [`crate::Network`].
//!
//! Masks for folded networks are two-dimensional (`M[t][v]`, paper §4.2);
//! that machinery lives in `enframe-prob`. This module owns the structure
//! and a direct per-world evaluator used to validate it.

use crate::build::NodeTable;
use crate::node::{Node, NodeId, NodeKind};
use enframe_core::fxhash::{FxHashMap, FxHashSet};
use enframe_core::{CVal, CoreError, Def, DefId, Event, GroundProgram, Valuation, Value, Var};
use std::collections::BTreeMap;
use std::rc::Rc;

/// Why a program could not be folded.
#[derive(Debug, Clone, PartialEq)]
pub enum FoldError {
    /// Fewer than two recorded loop iterations: nothing to fold.
    TooFewIterations {
        /// Number of iteration boundaries supplied.
        found: usize,
    },
    /// The iteration bodies are not structurally isomorphic (no foldable
    /// suffix exists); the payload describes the first obstruction found
    /// for the latest fold-start candidate.
    NotFoldable(String),
    /// A compilation target is not a Boolean event.
    Core(CoreError),
}

impl std::fmt::Display for FoldError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FoldError::TooFewIterations { found } => {
                write!(f, "folding needs at least 2 iterations, found {found}")
            }
            FoldError::NotFoldable(why) => write!(f, "program is not foldable: {why}"),
            FoldError::Core(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for FoldError {}

impl From<CoreError> for FoldError {
    fn from(e: CoreError) -> Self {
        FoldError::Core(e)
    }
}

/// Region of a node in the folded arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Region {
    /// Evaluated once, before the loop; iteration-independent.
    Pro,
    /// Part of the body template, instantiated at every iteration.
    Body,
    /// Evaluated once, against the last iteration.
    Epi,
}

/// Loop-carry wiring of one [`NodeKind::LoopIn`] leaf: at iteration 0 the
/// leaf mirrors `init` (a prologue node); at iteration `t > 0` it mirrors
/// `source` at iteration `t − 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Carry {
    /// The `LoopIn` leaf inside the body template.
    pub input: NodeId,
    /// Prologue node providing the iteration-0 value.
    pub init: NodeId,
    /// Node whose previous-iteration value feeds iterations `t ≥ 1`
    /// (usually in the body region; may sit in the prologue when the
    /// carried definition folded to an iteration-independent expression).
    pub source: NodeId,
}

/// Structural statistics of a folded network, including the size of the
/// equivalent unfolded expansion (the §4.2 memory trade-off).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FoldedStats {
    /// Nodes stored (prologue + template + epilogue).
    pub base_nodes: usize,
    /// Prologue nodes.
    pub pro_nodes: usize,
    /// Body-template nodes.
    pub body_nodes: usize,
    /// Epilogue nodes.
    pub epi_nodes: usize,
    /// Loop-carry inputs.
    pub carries: usize,
    /// Folded iterations.
    pub iters: usize,
    /// First folded iteration (earlier iterations live in the prologue).
    pub fold_start: usize,
    /// Size of the logically expanded network (`pro + iters·body + epi`).
    pub expanded_nodes: usize,
}

/// A folded event network: prologue + body template + epilogue.
#[derive(Debug, Clone)]
pub struct FoldedNetwork {
    nodes: Vec<Node>,
    /// Number of input random variables of the underlying program.
    pub n_vars: u32,
    n_pro: usize,
    n_body: usize,
    n_epi: usize,
    /// Number of folded iterations (logical body instantiations).
    pub iters: usize,
    /// Loop-carry wiring.
    pub carries: Vec<Carry>,
    /// Compilation targets (base node ids; body-region targets are read at
    /// the last iteration).
    pub targets: Vec<NodeId>,
    /// Human-readable names of the targets.
    pub target_names: Vec<String>,
    /// First folded iteration: iterations `0..fold_start` of the original
    /// program are absorbed into the prologue.
    pub fold_start: usize,
    var_nodes: Vec<Option<NodeId>>,
    carry_of: FxHashMap<NodeId, (NodeId, NodeId)>,
}

/// How a reference inside the body template resolves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RefClass {
    /// Iteration-independent reference into the prologue.
    Pro,
    /// Same-iteration reference to the body definition at this offset.
    Same(usize),
    /// Previous-iteration reference to the body definition at this offset.
    Carry {
        /// Body-definition offset of the carried value.
        source: usize,
    },
}

/// Structural zipper over two consecutive iteration bodies.
struct Zipper<'a> {
    /// End of the pre-region (`boundaries[fold_start]`).
    pre_end: usize,
    /// Start of the earlier body of the pair.
    p_lo: usize,
    /// Body length.
    l: usize,
    /// Whether this is the recording pair (`t == fold_start`); later pairs
    /// only verify.
    record: bool,
    class: &'a mut BTreeMap<usize, RefClass>,
    seen: FxHashSet<(usize, usize)>,
}

impl Zipper<'_> {
    fn fail(&self, why: impl Into<String>) -> FoldError {
        FoldError::NotFoldable(why.into())
    }

    fn zip_ref(&mut self, a: DefId, b: DefId) -> Result<(), FoldError> {
        let (ai, bi) = (a.index(), b.index());
        let class = if ai == bi && ai < self.pre_end {
            RefClass::Pro
        } else if ai >= self.p_lo && ai < self.p_lo + self.l && bi == ai + self.l {
            RefClass::Same(ai - self.p_lo)
        } else if ai < self.p_lo && bi >= self.p_lo && bi < self.p_lo + self.l {
            let source = bi - self.p_lo;
            if !self.record && ai != self.p_lo - self.l + source {
                return Err(self.fail(format!(
                    "carry chain broken: iteration refs def {ai} where its \
                     predecessor pattern expects def {}",
                    self.p_lo - self.l + source
                )));
            }
            RefClass::Carry { source }
        } else {
            return Err(self.fail(format!(
                "reference pair ({ai}, {bi}) fits no folding rule \
                 (pre_end={}, body=[{}, {}))",
                self.pre_end,
                self.p_lo,
                self.p_lo + self.l
            )));
        };
        if self.record {
            match self.class.entry(ai) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(class);
                }
                std::collections::btree_map::Entry::Occupied(e) => {
                    if *e.get() != class {
                        return Err(FoldError::NotFoldable(format!(
                            "def {ai} is referenced with conflicting roles \
                             ({:?} vs {class:?})",
                            e.get()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn zip_def(&mut self, a: &Def, b: &Def) -> Result<(), FoldError> {
        match (a, b) {
            (Def::Event(x), Def::Event(y)) => self.zip_event(x, y),
            (Def::CVal(x), Def::CVal(y)) => self.zip_cval(x, y),
            _ => Err(self.fail("event/c-value definition kinds differ across iterations")),
        }
    }

    fn zip_event(&mut self, a: &Rc<Event>, b: &Rc<Event>) -> Result<(), FoldError> {
        // Pair-memo: shared Rc subtrees would otherwise be re-zipped once
        // per sharing parent.
        if !self
            .seen
            .insert((Rc::as_ptr(a) as usize, Rc::as_ptr(b) as usize))
        {
            return Ok(());
        }
        match (&**a, &**b) {
            (Event::Tru, Event::Tru) | (Event::Fls, Event::Fls) => Ok(()),
            (Event::Var(x), Event::Var(y)) if x == y => Ok(()),
            (Event::Not(x), Event::Not(y)) => self.zip_event(x, y),
            (Event::And(xs), Event::And(ys)) | (Event::Or(xs), Event::Or(ys))
                if xs.len() == ys.len() =>
            {
                for (x, y) in xs.iter().zip(ys) {
                    self.zip_event(x, y)?;
                }
                Ok(())
            }
            (Event::Atom(o1, l1, r1), Event::Atom(o2, l2, r2)) if o1 == o2 => {
                self.zip_cval(l1, l2)?;
                self.zip_cval(r1, r2)
            }
            (Event::Ref(x), Event::Ref(y)) => self.zip_ref(*x, *y),
            _ => Err(self.fail("event structure differs across iterations")),
        }
    }

    fn zip_cval(&mut self, a: &Rc<CVal>, b: &Rc<CVal>) -> Result<(), FoldError> {
        if !self
            .seen
            .insert((Rc::as_ptr(a) as usize, Rc::as_ptr(b) as usize))
        {
            return Ok(());
        }
        match (&**a, &**b) {
            (CVal::Const(u), CVal::Const(v)) if u == v => Ok(()),
            (CVal::Cond(e1, v1), CVal::Cond(e2, v2)) if v1 == v2 => self.zip_event(e1, e2),
            (CVal::Guard(e1, c1), CVal::Guard(e2, c2)) => {
                self.zip_event(e1, e2)?;
                self.zip_cval(c1, c2)
            }
            (CVal::Sum(xs), CVal::Sum(ys)) | (CVal::Prod(xs), CVal::Prod(ys))
                if xs.len() == ys.len() =>
            {
                for (x, y) in xs.iter().zip(ys) {
                    self.zip_cval(x, y)?;
                }
                Ok(())
            }
            (CVal::Inv(x), CVal::Inv(y)) => self.zip_cval(x, y),
            (CVal::Pow(x, r1), CVal::Pow(y, r2)) if r1 == r2 => self.zip_cval(x, y),
            (CVal::Dist(l1, r1), CVal::Dist(l2, r2)) => {
                self.zip_cval(l1, l2)?;
                self.zip_cval(r1, r2)
            }
            (CVal::Ref(x), CVal::Ref(y)) => self.zip_ref(*x, *y),
            _ => Err(self.fail("c-value structure differs across iterations")),
        }
    }
}

/// Phase of the folded builder; selects how `Ref`s resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Pro,
    Body,
    Epi,
}

struct FBuilder<'g> {
    gp: &'g GroundProgram,
    table: NodeTable,
    region_of: Vec<Region>,
    ev_memo: FxHashMap<usize, NodeId>,
    cv_memo: FxHashMap<usize, NodeId>,
    var_nodes: Vec<Option<NodeId>>,
    phase: Phase,
    // Def-resolution tables.
    pre_end: usize,
    body_lo: usize,
    last_body_lo: usize,
    epi_lo: usize,
    class: BTreeMap<usize, RefClass>,
    pro_defs: Vec<NodeId>,
    body_defs: Vec<NodeId>,
    epi_defs: Vec<NodeId>,
    /// LoopIn nodes keyed by `(init def id, source body offset)`.
    loopins: BTreeMap<(usize, usize), NodeId>,
}

impl FBuilder<'_> {
    fn intern(&mut self, kind: NodeKind, children: &[NodeId], value: Option<&Value>) -> NodeId {
        let id = self.table.intern(kind, children, value);
        if id.index() == self.region_of.len() {
            self.region_of.push(match self.phase {
                Phase::Pro => Region::Pro,
                Phase::Body => Region::Body,
                Phase::Epi => Region::Epi,
            });
        }
        id
    }

    fn const_bool(&mut self, b: bool) -> NodeId {
        self.intern(NodeKind::ConstBool(b), &[], None)
    }

    fn is_const(&self, id: NodeId) -> Option<bool> {
        match self.table.nodes[id.index()].kind {
            NodeKind::ConstBool(b) => Some(b),
            _ => None,
        }
    }

    fn enter_phase(&mut self, phase: Phase) {
        self.phase = phase;
        // Pointer-memos must not leak across phases: the same shared
        // subtree resolves its references differently per phase.
        self.ev_memo.clear();
        self.cv_memo.clear();
    }

    fn resolve_ref(&mut self, d: DefId) -> Result<NodeId, FoldError> {
        let i = d.index();
        match self.phase {
            Phase::Pro => Ok(self.pro_defs[i]),
            Phase::Body => match self.class.get(&i) {
                Some(RefClass::Pro) => Ok(self.pro_defs[i]),
                Some(RefClass::Same(off)) => Ok(self.body_defs[*off]),
                Some(RefClass::Carry { source }) => Ok(self.loopin(i, *source)),
                None => Err(FoldError::NotFoldable(format!(
                    "body reference to def {i} was never classified"
                ))),
            },
            Phase::Epi => {
                if i < self.pre_end {
                    Ok(self.pro_defs[i])
                } else if i >= self.last_body_lo && i < self.epi_lo {
                    Ok(self.body_defs[i - self.last_body_lo])
                } else if i >= self.epi_lo {
                    Ok(self.epi_defs[i - self.epi_lo])
                } else {
                    Err(FoldError::NotFoldable(format!(
                        "epilogue references def {i} inside a non-final iteration"
                    )))
                }
            }
        }
    }

    fn loopin(&mut self, init_def: usize, source_off: usize) -> NodeId {
        if let Some(&id) = self.loopins.get(&(init_def, source_off)) {
            return id;
        }
        let boolish = self
            .gp
            .def(DefId((self.body_lo + source_off) as u32))
            .is_event();
        // LoopIn leaves are never interned/merged: each carry keeps its own
        // identity even if two carries were structurally identical.
        let id = NodeId(self.table.nodes.len() as u32);
        self.table.nodes.push(Node {
            kind: NodeKind::LoopIn { boolish },
            children: Vec::new(),
            parents: Vec::new(),
            value: None,
        });
        self.region_of.push(Region::Body);
        self.loopins.insert((init_def, source_off), id);
        id
    }

    fn event(&mut self, e: &Rc<Event>) -> Result<NodeId, FoldError> {
        let ptr = Rc::as_ptr(e) as usize;
        if let Some(&id) = self.ev_memo.get(&ptr) {
            return Ok(id);
        }
        let id = match &**e {
            Event::Tru => self.const_bool(true),
            Event::Fls => self.const_bool(false),
            Event::Var(v) => {
                let id = self.intern(NodeKind::Var(*v), &[], None);
                self.var_nodes[v.index()] = Some(id);
                id
            }
            Event::Not(inner) => {
                let c = self.event(inner)?;
                match self.is_const(c) {
                    Some(b) => self.const_bool(!b),
                    None => self.intern(NodeKind::Not, &[c], None),
                }
            }
            Event::And(parts) => {
                let mut kids = Vec::with_capacity(parts.len());
                let mut folded = None;
                for p in parts {
                    let c = self.event(p)?;
                    match self.is_const(c) {
                        Some(true) => {}
                        Some(false) => {
                            folded = Some(self.const_bool(false));
                            break;
                        }
                        None => kids.push(c),
                    }
                }
                match folded {
                    Some(f) => f,
                    None => match kids.len() {
                        0 => self.const_bool(true),
                        1 => kids[0],
                        _ => self.intern(NodeKind::And, &kids, None),
                    },
                }
            }
            Event::Or(parts) => {
                let mut kids = Vec::with_capacity(parts.len());
                let mut folded = None;
                for p in parts {
                    let c = self.event(p)?;
                    match self.is_const(c) {
                        Some(false) => {}
                        Some(true) => {
                            folded = Some(self.const_bool(true));
                            break;
                        }
                        None => kids.push(c),
                    }
                }
                match folded {
                    Some(f) => f,
                    None => match kids.len() {
                        0 => self.const_bool(false),
                        1 => kids[0],
                        _ => self.intern(NodeKind::Or, &kids, None),
                    },
                }
            }
            Event::Atom(op, a, b) => {
                let ca = self.cval(a)?;
                let cb = self.cval(b)?;
                // [c θ c] with θ ∈ {≤, ≥, =} is vacuously true (§3.2).
                if ca == cb
                    && matches!(
                        op,
                        enframe_core::CmpOp::Le | enframe_core::CmpOp::Ge | enframe_core::CmpOp::Eq
                    )
                {
                    self.const_bool(true)
                } else {
                    self.intern(NodeKind::Cmp(*op), &[ca, cb], None)
                }
            }
            Event::Ref(d) => self.resolve_ref(*d)?,
        };
        self.ev_memo.insert(ptr, id);
        Ok(id)
    }

    fn cval(&mut self, c: &Rc<CVal>) -> Result<NodeId, FoldError> {
        let ptr = Rc::as_ptr(c) as usize;
        if let Some(&id) = self.cv_memo.get(&ptr) {
            return Ok(id);
        }
        let id = match &**c {
            CVal::Const(v) => self.intern(NodeKind::ConstVal, &[], Some(v)),
            CVal::Cond(e, v) => {
                let g = self.event(e)?;
                match self.is_const(g) {
                    Some(true) => self.intern(NodeKind::ConstVal, &[], Some(v)),
                    Some(false) => self.intern(NodeKind::ConstVal, &[], Some(&Value::Undef)),
                    None => self.intern(NodeKind::Cond, &[g], Some(v)),
                }
            }
            CVal::Guard(e, inner) => {
                let g = self.event(e)?;
                let ci = self.cval(inner)?;
                match self.is_const(g) {
                    Some(true) => ci,
                    Some(false) => self.intern(NodeKind::ConstVal, &[], Some(&Value::Undef)),
                    None => self.intern(NodeKind::Guard, &[g, ci], None),
                }
            }
            CVal::Sum(parts) => {
                let kids = parts
                    .iter()
                    .map(|p| self.cval(p))
                    .collect::<Result<Vec<_>, _>>()?;
                match kids.len() {
                    0 => self.intern(NodeKind::ConstVal, &[], Some(&Value::Undef)),
                    1 => kids[0],
                    _ => self.intern(NodeKind::Sum, &kids, None),
                }
            }
            CVal::Prod(parts) => {
                let kids = parts
                    .iter()
                    .map(|p| self.cval(p))
                    .collect::<Result<Vec<_>, _>>()?;
                match kids.len() {
                    0 => self.intern(NodeKind::ConstVal, &[], Some(&Value::Num(1.0))),
                    1 => kids[0],
                    _ => self.intern(NodeKind::Prod, &kids, None),
                }
            }
            CVal::Inv(inner) => {
                let ci = self.cval(inner)?;
                self.intern(NodeKind::Inv, &[ci], None)
            }
            CVal::Pow(inner, r) => {
                let ci = self.cval(inner)?;
                self.intern(NodeKind::Pow(*r), &[ci], None)
            }
            CVal::Dist(a, b) => {
                let ca = self.cval(a)?;
                let cb = self.cval(b)?;
                self.intern(NodeKind::Dist, &[ca, cb], None)
            }
            CVal::Ref(d) => self.resolve_ref(*d)?,
        };
        self.cv_memo.insert(ptr, id);
        Ok(id)
    }

    fn build_def(&mut self, d: usize) -> Result<NodeId, FoldError> {
        match self.gp.def(DefId(d as u32)) {
            Def::Event(e) => self.event(e),
            Def::CVal(c) => self.cval(c),
        }
    }
}

impl FoldedNetwork {
    /// Folds a grounded event program given the declaration counts at the
    /// start of each outer-loop iteration
    /// (`enframe_translate::Translated::outer_iter_boundaries`).
    ///
    /// The fold start is auto-detected: leading iterations whose structure
    /// diverges from the uniform tail (constant folding over certain data
    /// shrinks early iterations) are absorbed into the prologue. At least
    /// two isomorphic trailing iterations are required.
    pub fn build(gp: &GroundProgram, boundaries: &[usize]) -> Result<FoldedNetwork, FoldError> {
        let k = boundaries.len();
        if k < 2 {
            return Err(FoldError::TooFewIterations { found: k });
        }
        if boundaries.windows(2).any(|w| w[0] > w[1]) || *boundaries.last().unwrap() > gp.len() {
            return Err(FoldError::NotFoldable(
                "iteration boundaries are not monotone within the program".into(),
            ));
        }
        let mut last_err = FoldError::NotFoldable("no fold candidate tried".into());
        for s in 0..=k - 2 {
            match Self::try_fold(gp, boundaries, s) {
                Ok(net) => return Ok(net),
                Err(e @ FoldError::Core(_)) => return Err(e),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    fn try_fold(
        gp: &GroundProgram,
        boundaries: &[usize],
        s: usize,
    ) -> Result<FoldedNetwork, FoldError> {
        let k = boundaries.len();
        let l = boundaries[s + 1] - boundaries[s];
        if l == 0 {
            return Err(FoldError::NotFoldable(
                "loop body declares nothing symbolic".into(),
            ));
        }
        for t in s..k - 1 {
            if boundaries[t + 1] - boundaries[t] != l {
                return Err(FoldError::NotFoldable(format!(
                    "iteration {} declares {} definitions but iteration {s} declares {l}",
                    t + 1,
                    boundaries[t + 1] - boundaries[t]
                )));
            }
        }
        let epi_lo = boundaries[k - 1] + l;
        if epi_lo > gp.len() {
            return Err(FoldError::NotFoldable("last iteration is truncated".into()));
        }
        let pre_end = boundaries[s];

        // Zip consecutive bodies; the first pair records the carry map.
        let mut class = BTreeMap::new();
        for t in s..k - 1 {
            let mut z = Zipper {
                pre_end,
                p_lo: boundaries[t],
                l,
                record: t == s,
                class: &mut class,
                seen: FxHashSet::default(),
            };
            for i in 0..l {
                let a = &gp.defs()[boundaries[t] + i].1;
                let b = &gp.defs()[boundaries[t + 1] + i].1;
                z.zip_def(a, b)?;
            }
        }

        // Carried definitions must keep their kind across the carry.
        for (&init, &cls) in &class {
            if let RefClass::Carry { source } = cls {
                let init_is_event = gp.def(DefId(init as u32)).is_event();
                let src_is_event = gp.def(DefId((boundaries[s] + source) as u32)).is_event();
                if init_is_event != src_is_event {
                    return Err(FoldError::NotFoldable(format!(
                        "carry over body offset {source} mixes event and c-value kinds"
                    )));
                }
            }
        }

        let mut b = FBuilder {
            gp,
            table: NodeTable::with_capacity(gp.len() * 2),
            region_of: Vec::with_capacity(gp.len() * 2),
            ev_memo: FxHashMap::default(),
            cv_memo: FxHashMap::default(),
            var_nodes: vec![None; gp.n_vars as usize],
            phase: Phase::Pro,
            pre_end,
            body_lo: boundaries[s],
            last_body_lo: boundaries[k - 1],
            epi_lo,
            class,
            pro_defs: Vec::with_capacity(pre_end),
            body_defs: Vec::with_capacity(l),
            epi_defs: Vec::with_capacity(gp.len() - epi_lo),
            loopins: BTreeMap::new(),
        };

        // Prologue: everything before the fold start.
        b.enter_phase(Phase::Pro);
        for d in 0..pre_end {
            let id = b.build_def(d)?;
            b.pro_defs.push(id);
        }
        // Body template from the fold-start iteration.
        b.enter_phase(Phase::Body);
        for i in 0..l {
            let id = b.build_def(boundaries[s] + i)?;
            b.body_defs.push(id);
        }
        // Epilogue: declarations after the last iteration.
        b.enter_phase(Phase::Epi);
        for d in epi_lo..gp.len() {
            let id = b.build_def(d)?;
            b.epi_defs.push(id);
        }

        // Resolve carries now that every body definition has a node.
        let mut carries: Vec<Carry> = b
            .loopins
            .iter()
            .map(|(&(init_def, source_off), &input)| Carry {
                input,
                init: b.pro_defs[init_def],
                source: b.body_defs[source_off],
            })
            .collect();

        // Targets resolve like epilogue references (they may name prologue,
        // last-body, or epilogue definitions — but never a middle
        // iteration).
        b.enter_phase(Phase::Epi);
        let mut targets = Vec::with_capacity(gp.targets.len());
        let mut target_names = Vec::with_capacity(gp.targets.len());
        for &t in &gp.targets {
            let node = b.resolve_ref(t)?;
            if !b.table.nodes[node.index()].is_bool() {
                return Err(FoldError::Core(CoreError::TypeMismatch {
                    ident: gp.name_of(t),
                    expected: "a Boolean compilation target",
                }));
            }
            targets.push(node);
            target_names.push(gp.name_of(t));
        }

        let FBuilder {
            table: NodeTable { mut nodes, .. },
            mut region_of,
            mut var_nodes,
            ..
        } = b;

        // Region demotion: a node whose children are all iteration-
        // independent is itself iteration-independent (one copy suffices).
        // LoopIn leaves anchor the body region. Children precede parents,
        // so one forward pass reaches the fixpoint.
        for i in 0..nodes.len() {
            if matches!(nodes[i].kind, NodeKind::LoopIn { .. }) {
                region_of[i] = Region::Body;
            } else if nodes[i]
                .children
                .iter()
                .all(|c| region_of[c.index()] == Region::Pro)
            {
                region_of[i] = Region::Pro;
            }
        }

        // Liveness from the targets; a live LoopIn keeps its init and
        // source alive.
        let loopin_wiring: FxHashMap<NodeId, (NodeId, NodeId)> = carries
            .iter()
            .map(|c| (c.input, (c.init, c.source)))
            .collect();
        let mut live = vec![false; nodes.len()];
        let mut stack: Vec<NodeId> = targets.clone();
        for &t in &stack {
            live[t.index()] = true;
        }
        while let Some(id) = stack.pop() {
            let push = |n: NodeId, live: &mut Vec<bool>, stack: &mut Vec<NodeId>| {
                if !live[n.index()] {
                    live[n.index()] = true;
                    stack.push(n);
                }
            };
            for &c in &nodes[id.index()].children {
                push(c, &mut live, &mut stack);
            }
            if let Some(&(init, source)) = loopin_wiring.get(&id) {
                push(init, &mut live, &mut stack);
                push(source, &mut live, &mut stack);
            }
        }

        // Compact: stable partition of the live nodes into
        // [prologue][body][epilogue]; stability preserves the topological
        // order within and across regions (prologue children always precede
        // body parents, body children precede epilogue parents).
        let order_key = |r: Region| match r {
            Region::Pro => 0usize,
            Region::Body => 1,
            Region::Epi => 2,
        };
        let mut remap: Vec<Option<NodeId>> = vec![None; nodes.len()];
        let mut next = 0u32;
        let mut counts = [0usize; 3];
        for (pass, count) in counts.iter_mut().enumerate() {
            for i in 0..nodes.len() {
                if live[i] && order_key(region_of[i]) == pass {
                    remap[i] = Some(NodeId(next));
                    next += 1;
                    *count += 1;
                }
            }
        }
        let (n_pro, n_body, n_epi) = (counts[0], counts[1], counts[2]);
        let mut new_nodes: Vec<Node> = Vec::with_capacity(next as usize);
        new_nodes.resize(
            next as usize,
            Node {
                kind: NodeKind::ConstBool(false),
                children: Vec::new(),
                parents: Vec::new(),
                value: None,
            },
        );
        for (i, node) in nodes.drain(..).enumerate() {
            if let Some(new_id) = remap[i] {
                let mut node = node;
                for c in node.children.iter_mut() {
                    *c = remap[c.index()].expect("live node has live children");
                }
                new_nodes[new_id.index()] = node;
            }
        }
        for t in targets.iter_mut() {
            *t = remap[t.index()].expect("targets are live");
        }
        for slot in var_nodes.iter_mut() {
            *slot = slot.and_then(|v| remap[v.index()]);
        }
        carries.retain(|c| remap[c.input.index()].is_some());
        for c in carries.iter_mut() {
            c.input = remap[c.input.index()].expect("live carry input");
            c.init = remap[c.init.index()].expect("live carry init");
            c.source = remap[c.source.index()].expect("live carry source");
        }

        let mut net = FoldedNetwork {
            nodes: new_nodes,
            n_vars: gp.n_vars,
            n_pro,
            n_body,
            n_epi,
            iters: k - s,
            carries: carries.clone(),
            targets,
            target_names,
            fold_start: s,
            var_nodes,
            carry_of: carries
                .iter()
                .map(|c| (c.input, (c.init, c.source)))
                .collect(),
        };
        net.fill_parents();
        Ok(net)
    }

    fn fill_parents(&mut self) {
        let mut parent_lists: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            for &c in &node.children {
                parent_lists[c.index()].push(NodeId(i as u32));
            }
        }
        for (node, parents) in self.nodes.iter_mut().zip(parent_lists) {
            node.parents = parents;
        }
    }

    /// The base nodes: `[prologue][body template][epilogue]`, each region
    /// topologically ordered.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A base node by id.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of base nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Prologue size.
    pub fn n_pro(&self) -> usize {
        self.n_pro
    }

    /// Body-template size.
    pub fn n_body(&self) -> usize {
        self.n_body
    }

    /// Epilogue size.
    pub fn n_epi(&self) -> usize {
        self.n_epi
    }

    /// Region of a base node.
    pub fn region(&self, id: NodeId) -> Region {
        let i = id.index();
        if i < self.n_pro {
            Region::Pro
        } else if i < self.n_pro + self.n_body {
            Region::Body
        } else {
            Region::Epi
        }
    }

    /// Size of the logically expanded (unfolded-equivalent) node set.
    pub fn expanded_len(&self) -> usize {
        self.n_pro + self.iters * self.n_body + self.n_epi
    }

    /// The leaf node of variable `v`, if the variable occurs.
    pub fn var_node(&self, v: Var) -> Option<NodeId> {
        self.var_nodes.get(v.index()).copied().flatten()
    }

    /// Carry wiring of a `LoopIn` node: `(init, source)`.
    pub fn carry_of(&self, id: NodeId) -> Option<(NodeId, NodeId)> {
        self.carry_of.get(&id).copied()
    }

    /// Number of parents of each variable's leaf (0 for absent variables);
    /// the static influence measure for variable-order heuristics.
    pub fn var_occurrences(&self) -> Vec<usize> {
        (0..self.n_vars as usize)
            .map(|i| {
                self.var_nodes[i]
                    .map(|n| self.nodes[n.index()].parents.len())
                    .unwrap_or(0)
            })
            .collect()
    }

    /// Structural statistics, including the unfolded-equivalent size.
    pub fn stats(&self) -> FoldedStats {
        FoldedStats {
            base_nodes: self.nodes.len(),
            pro_nodes: self.n_pro,
            body_nodes: self.n_body,
            epi_nodes: self.n_epi,
            carries: self.carries.len(),
            iters: self.iters,
            fold_start: self.fold_start,
            expanded_nodes: self.expanded_len(),
        }
    }

    /// Evaluates the targets under a complete valuation by running the
    /// body template through all iterations — the reference semantics used
    /// to validate folding against the unfolded network.
    pub fn eval(&self, nu: &Valuation) -> Result<Vec<bool>, CoreError> {
        use crate::build::EvalVal;
        let mut pro: Vec<EvalVal> = Vec::with_capacity(self.n_pro);
        let mut layers: Vec<Vec<EvalVal>> = Vec::with_capacity(self.iters);
        let mut epi: Vec<EvalVal> = Vec::with_capacity(self.n_epi);

        let eval_one = |net: &FoldedNetwork,
                        id: NodeId,
                        layer: usize,
                        pro: &[EvalVal],
                        layers: &[Vec<EvalVal>],
                        cur: &[EvalVal],
                        epi: &[EvalVal]|
         -> Result<EvalVal, CoreError> {
            let node = net.node(id);
            let get = |c: NodeId| -> &EvalVal {
                let ci = c.index();
                if ci < net.n_pro {
                    &pro[ci]
                } else if ci < net.n_pro + net.n_body {
                    let off = ci - net.n_pro;
                    // Same-layer reads go through `cur`, which is the layer
                    // being filled (or the last completed layer for the
                    // epilogue).
                    if cur.len() > off {
                        &cur[off]
                    } else {
                        &layers[layer][off]
                    }
                } else {
                    &epi[ci - net.n_pro - net.n_body]
                }
            };
            let as_b = |v: &EvalVal| match v {
                EvalVal::B(b) => *b,
                EvalVal::V(_) => unreachable!("expected Boolean child"),
            };
            let as_v = |v: &EvalVal| match v {
                EvalVal::B(_) => unreachable!("expected numeric child"),
                EvalVal::V(x) => x.clone(),
            };
            Ok(match &node.kind {
                NodeKind::Var(v) => EvalVal::B(nu.get(*v)),
                NodeKind::ConstBool(b) => EvalVal::B(*b),
                NodeKind::Not => EvalVal::B(!as_b(get(node.children[0]))),
                NodeKind::And => EvalVal::B(node.children.iter().all(|&c| as_b(get(c)))),
                NodeKind::Or => EvalVal::B(node.children.iter().any(|&c| as_b(get(c)))),
                NodeKind::Cmp(op) => {
                    let a = as_v(get(node.children[0]));
                    let b = as_v(get(node.children[1]));
                    EvalVal::B(a.compare(*op, &b)?)
                }
                NodeKind::ConstVal => EvalVal::V(node.value.clone().unwrap()),
                NodeKind::Cond => {
                    if as_b(get(node.children[0])) {
                        EvalVal::V(node.value.clone().unwrap())
                    } else {
                        EvalVal::V(Value::Undef)
                    }
                }
                NodeKind::Guard => {
                    if as_b(get(node.children[0])) {
                        EvalVal::V(as_v(get(node.children[1])))
                    } else {
                        EvalVal::V(Value::Undef)
                    }
                }
                NodeKind::Sum => {
                    let mut acc = Value::Undef;
                    for &c in &node.children {
                        acc = acc.add(&as_v(get(c)))?;
                    }
                    EvalVal::V(acc)
                }
                NodeKind::Prod => {
                    let mut acc = Value::Num(1.0);
                    for &c in &node.children {
                        acc = acc.mul(&as_v(get(c)))?;
                    }
                    EvalVal::V(acc)
                }
                NodeKind::Inv => EvalVal::V(as_v(get(node.children[0])).inv()?),
                NodeKind::Pow(r) => EvalVal::V(as_v(get(node.children[0])).pow(*r)?),
                NodeKind::Dist => {
                    let a = as_v(get(node.children[0]));
                    let b = as_v(get(node.children[1]));
                    EvalVal::V(a.dist(&b)?)
                }
                NodeKind::LoopIn { .. } => {
                    let (init, source) = net.carry_of(id).expect("wired LoopIn");
                    if layer == 0 {
                        let i = init.index();
                        debug_assert!(i < net.n_pro, "carry init is a prologue node");
                        pro[i].clone()
                    } else {
                        let si = source.index();
                        if si < net.n_pro {
                            pro[si].clone()
                        } else {
                            layers[layer - 1][si - net.n_pro].clone()
                        }
                    }
                }
            })
        };

        for i in 0..self.n_pro {
            let v = eval_one(self, NodeId(i as u32), 0, &pro, &layers, &[], &epi)?;
            pro.push(v);
        }
        for t in 0..self.iters {
            let mut cur: Vec<EvalVal> = Vec::with_capacity(self.n_body);
            for i in 0..self.n_body {
                let v = eval_one(
                    self,
                    NodeId((self.n_pro + i) as u32),
                    t,
                    &pro,
                    &layers,
                    &cur,
                    &epi,
                )?;
                cur.push(v);
            }
            layers.push(cur);
        }
        let last = self.iters - 1;
        for i in 0..self.n_epi {
            let v = eval_one(
                self,
                NodeId((self.n_pro + self.n_body + i) as u32),
                last,
                &pro,
                &layers,
                &layers[last],
                &epi,
            )?;
            epi.push(v);
        }

        Ok(self
            .targets
            .iter()
            .map(|&t| {
                let i = t.index();
                let v = if i < self.n_pro {
                    &pro[i]
                } else if i < self.n_pro + self.n_body {
                    &layers[last][i - self.n_pro]
                } else {
                    &epi[i - self.n_pro - self.n_body]
                };
                match v {
                    crate::build::EvalVal::B(b) => *b,
                    crate::build::EvalVal::V(_) => {
                        unreachable!("targets are Boolean by construction")
                    }
                }
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::Network;
    use enframe_core::program::{SymCVal, SymEvent, ValSrc};
    use enframe_core::{CmpOp, Program};

    /// A Boolean loop over three iterations:
    ///
    /// ```text
    /// pre:  Phi ≡ x0 ∨ x1;  S.init ≡ x2
    /// ∀t:   S.t ≡ (S.{t−1} ∧ Phi) ∨ x3
    /// ```
    fn bool_loop(iters: usize) -> (Program, Vec<usize>) {
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let x2 = p.fresh_var();
        let x3 = p.fresh_var();
        let phi = p.declare_event("Phi", Program::or([Program::var(x0), Program::var(x1)]));
        let mut prev = p.declare_event("Sinit", Program::var(x2));
        let mut boundaries = Vec::new();
        for t in 0..iters {
            boundaries.push(2 + t);
            prev = p.declare_event_at(
                "S",
                &[t as i64],
                Program::or([
                    Program::and([Program::eref(prev.clone()), Program::eref(phi.clone())]),
                    Program::var(x3),
                ]),
            );
        }
        p.add_target(prev);
        (p, boundaries)
    }

    /// A numeric loop carrying a c-value (k-means-shaped):
    ///
    /// ```text
    /// pre:  O0 ≡ x0 ⊗ 1;  O1 ≡ x1 ⊗ 4;  M.init ≡ ⊤ ⊗ 2
    /// ∀t:   A.t ≡ [dist(M.{t−1}, O0) ≤ dist(M.{t−1}, O1)]
    ///       M.t ≡ (A.t ∧ O0) + (¬A.t ∧ O1)
    /// post: T ≡ A.last
    /// ```
    fn numeric_loop(iters: usize) -> (Program, Vec<usize>) {
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let o0 = p.declare_cval(
            "O0",
            Rc::new(SymCVal::Cond(
                Program::var(x0),
                ValSrc::Const(Value::Num(1.0)),
            )),
        );
        let o1 = p.declare_cval(
            "O1",
            Rc::new(SymCVal::Cond(
                Program::var(x1),
                ValSrc::Const(Value::Num(4.0)),
            )),
        );
        let mut m = p.declare_cval(
            "Minit",
            Rc::new(SymCVal::Lit(ValSrc::Const(Value::Num(2.0)))),
        );
        let mut boundaries = Vec::new();
        let mut last_a = None;
        for t in 0..iters {
            boundaries.push(3 + 2 * t);
            let a = p.declare_event_at(
                "A",
                &[t as i64],
                Rc::new(SymEvent::Atom(
                    CmpOp::Le,
                    Rc::new(SymCVal::Dist(
                        Program::cref(m.clone()),
                        Program::cref(o0.clone()),
                    )),
                    Rc::new(SymCVal::Dist(
                        Program::cref(m.clone()),
                        Program::cref(o1.clone()),
                    )),
                )),
            );
            m = p.declare_cval_at(
                "M",
                &[t as i64],
                Rc::new(SymCVal::Sum(vec![
                    Rc::new(SymCVal::Guard(
                        Program::eref(a.clone()),
                        Program::cref(o0.clone()),
                    )),
                    Rc::new(SymCVal::Guard(
                        Program::not(Program::eref(a.clone())),
                        Program::cref(o1.clone()),
                    )),
                ])),
            );
            last_a = Some(a);
        }
        // Epilogue: a co-occurrence-style event over the last iteration.
        let t = p.declare_event(
            "T",
            Program::and([Program::eref(last_a.unwrap()), Program::var(x0)]),
        );
        p.add_target(t);
        (p, boundaries)
    }

    use std::rc::Rc;

    fn check_fold_matches_unfolded(p: &Program, boundaries: &[usize], n_vars: usize) {
        let g = p.ground().unwrap();
        let unfolded = Network::build(&g).unwrap();
        let folded = FoldedNetwork::build(&g, boundaries).unwrap();
        assert_eq!(folded.target_names, unfolded.target_names);
        for code in 0..(1u64 << n_vars) {
            let nu = Valuation::from_code(n_vars, code);
            let want = unfolded.eval(&nu).unwrap();
            let got = folded.eval(&nu).unwrap();
            assert_eq!(got, want, "world {code:b}");
        }
    }

    #[test]
    fn boolean_loop_folds_and_evaluates() {
        let (p, boundaries) = bool_loop(3);
        check_fold_matches_unfolded(&p, &boundaries, 4);
    }

    #[test]
    fn numeric_loop_with_epilogue_folds() {
        let (p, boundaries) = numeric_loop(4);
        check_fold_matches_unfolded(&p, &boundaries, 2);
    }

    #[test]
    fn folding_discovers_carry_structure() {
        let (p, boundaries) = bool_loop(3);
        let g = p.ground().unwrap();
        let folded = FoldedNetwork::build(&g, &boundaries).unwrap();
        assert_eq!(folded.iters, 3);
        assert_eq!(folded.fold_start, 0);
        assert_eq!(folded.carries.len(), 1, "one loop-carried event");
        let c = folded.carries[0];
        assert_eq!(folded.region(c.input), Region::Body);
        assert_eq!(folded.region(c.init), Region::Pro);
        assert!(matches!(
            folded.node(c.input).kind,
            NodeKind::LoopIn { boolish: true }
        ));
    }

    #[test]
    fn folded_is_smaller_than_unfolded_expansion() {
        let (p, boundaries) = numeric_loop(6);
        let g = p.ground().unwrap();
        let unfolded = Network::build(&g).unwrap();
        let folded = FoldedNetwork::build(&g, &boundaries).unwrap();
        let stats = folded.stats();
        assert!(
            stats.base_nodes < unfolded.len(),
            "folded {} vs unfolded {}",
            stats.base_nodes,
            unfolded.len()
        );
        // The expansion accounts one body instance per iteration.
        assert_eq!(
            stats.expanded_nodes,
            stats.pro_nodes + 6 * stats.body_nodes + stats.epi_nodes
        );
    }

    #[test]
    fn too_few_iterations_rejected() {
        let (p, _) = bool_loop(1);
        let g = p.ground().unwrap();
        assert!(matches!(
            FoldedNetwork::build(&g, &[2]),
            Err(FoldError::TooFewIterations { found: 1 })
        ));
    }

    #[test]
    fn divergent_first_iteration_moves_fold_start() {
        // Iteration 0 declares one extra event; iterations 1.. are uniform.
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let phi = p.declare_event("Phi", Program::or([Program::var(x0), Program::var(x1)]));
        let mut boundaries = Vec::new();
        // Iteration 0: two declarations.
        boundaries.push(1);
        let extra = p.declare_event("Extra", Program::var(x0));
        let mut prev = p.declare_event_at(
            "S",
            &[0],
            Program::and([Program::eref(extra), Program::eref(phi.clone())]),
        );
        for t in 1..4 {
            boundaries.push(p.items.len());
            prev = p.declare_event_at(
                "S",
                &[t as i64],
                Program::and([Program::eref(prev.clone()), Program::eref(phi.clone())]),
            );
        }
        p.add_target(prev);
        let g = p.ground().unwrap();
        let folded = FoldedNetwork::build(&g, &boundaries).unwrap();
        assert_eq!(folded.fold_start, 1, "iteration 0 absorbed into prologue");
        assert_eq!(folded.iters, 3);
        let unfolded = Network::build(&g).unwrap();
        for code in 0..4u64 {
            let nu = Valuation::from_code(2, code);
            assert_eq!(folded.eval(&nu).unwrap(), unfolded.eval(&nu).unwrap());
        }
    }

    #[test]
    fn per_iteration_constants_are_rejected() {
        // S.t ≡ [⊤ ⊗ t ≤ x ⊗ 1]: the constant differs per iteration.
        let mut p = Program::new();
        let x = p.fresh_var();
        let mut boundaries = Vec::new();
        let mut last = None;
        for t in 0..3 {
            boundaries.push(p.items.len());
            last = Some(p.declare_event_at(
                "S",
                &[t as i64],
                Rc::new(SymEvent::Atom(
                    CmpOp::Le,
                    Rc::new(SymCVal::Lit(ValSrc::Const(Value::Num(t as f64)))),
                    Rc::new(SymCVal::Cond(
                        Program::var(x),
                        ValSrc::Const(Value::Num(1.0)),
                    )),
                )),
            ));
        }
        p.add_target(last.unwrap());
        let g = p.ground().unwrap();
        assert!(matches!(
            FoldedNetwork::build(&g, &boundaries),
            Err(FoldError::NotFoldable(_))
        ));
    }

    #[test]
    fn iteration_independent_body_parts_are_demoted_to_prologue() {
        // The body recomputes Phi ∧ x0 every iteration; it must be stored
        // once (prologue), not per layer.
        let mut p = Program::new();
        let x0 = p.fresh_var();
        let x1 = p.fresh_var();
        let phi = p.declare_event("Phi", Program::or([Program::var(x0), Program::var(x1)]));
        let init = p.declare_event("Sinit", Program::var(x1));
        let mut prev = init;
        let mut boundaries = Vec::new();
        for t in 0..3 {
            boundaries.push(p.items.len());
            // Fixed ≡ Phi ∧ x0 has no carry dependency.
            let fixed = p.declare_event_at(
                "Fixed",
                &[t as i64],
                Program::and([Program::eref(phi.clone()), Program::var(x0)]),
            );
            prev = p.declare_event_at(
                "S",
                &[t as i64],
                Program::or([Program::eref(prev.clone()), Program::eref(fixed)]),
            );
        }
        p.add_target(prev);
        let g = p.ground().unwrap();
        let folded = FoldedNetwork::build(&g, &boundaries).unwrap();
        // Body holds only the LoopIn and the Or that consumes it.
        assert_eq!(folded.n_body(), 2, "stats: {:?}", folded.stats());
        check_fold_matches_unfolded(&p, &boundaries, 2);
    }

    #[test]
    fn dead_definitions_are_pruned() {
        let (mut p, boundaries) = bool_loop(3);
        // A dangling declaration nothing depends on.
        let x9 = p.fresh_var();
        p.declare_event("Dead", Program::var(x9));
        let g = p.ground().unwrap();
        let folded = FoldedNetwork::build(&g, &boundaries).unwrap();
        assert!(folded.var_node(x9).is_none(), "dead var leaf pruned");
    }

    #[test]
    fn parents_are_consistent() {
        let (p, boundaries) = numeric_loop(3);
        let g = p.ground().unwrap();
        let net = FoldedNetwork::build(&g, &boundaries).unwrap();
        for (i, n) in net.nodes().iter().enumerate() {
            for &c in &n.children {
                assert!(
                    c.index() < i,
                    "child {c:?} does not precede parent {i} (topological order)"
                );
                assert!(net.node(c).parents.contains(&NodeId(i as u32)));
            }
        }
    }

    #[test]
    fn regions_are_contiguous_and_ordered() {
        let (p, boundaries) = numeric_loop(3);
        let g = p.ground().unwrap();
        let net = FoldedNetwork::build(&g, &boundaries).unwrap();
        let mut last = Region::Pro;
        for i in 0..net.len() {
            let r = net.region(NodeId(i as u32));
            assert!(r >= last, "regions out of order at {i}");
            last = r;
        }
        assert_eq!(net.n_pro() + net.n_body() + net.n_epi(), net.len());
    }
}
