//! Bayesian networks encoded as event lineage.
//!
//! The paper's event language "can succinctly encode instances of such
//! formalisms as Bayesian networks and pc-tables" (§3). This module makes
//! the Bayesian-network half concrete: a discrete BN over binary nodes is
//! compiled into lineage events over *independent* Boolean random
//! variables — one fresh variable per CPT row — generalising the paper's
//! conditional-correlations scheme, whose Markov chain
//! `Φᵢ₊₁ = (Φᵢ ∧ xᵗᵢ₊₁) ∨ (¬Φᵢ ∧ xᶠᵢ₊₁)` is exactly the encoding of a
//! two-row CPT.
//!
//! For node `i` with parents `P` and CPT entry `p_c = P(i | parents = c)`,
//! the encoding introduces a variable `x_{i,c}` with `P(x_{i,c}) = p_c`
//! and sets
//!
//! ```text
//! Φᵢ = ⋁_c ( ⋀_{j ∈ P} ±Φⱼ  ∧  x_{i,c} )
//! ```
//!
//! where `±Φⱼ` is `Φⱼ` or `¬Φⱼ` as dictated by the configuration `c`.
//! Because each world fixes every `x_{i,c}` but only the row selected by
//! the parents' outcome is *observed*, the joint distribution of
//! `(Φ₁, …, Φₙ)` under the induced probability space equals the BN's
//! joint distribution ([`BayesNet::joint`]) — verified exhaustively in
//! the tests.
//!
//! The encoded events plug directly into clustering pipelines as object
//! lineage (`ProbObjects`), giving ENFrame workloads with genuine
//! graphical-model correlations.

use enframe_core::{Event, Var, VarTable};
use std::rc::Rc;

/// One binary node of a Bayesian network.
#[derive(Debug, Clone)]
pub struct BayesNode {
    /// Human-readable name (used in diagnostics only).
    pub name: String,
    /// Indices of the parent nodes; all strictly smaller than this node's
    /// index (the network is given in topological order).
    pub parents: Vec<usize>,
    /// Conditional probability table: `cpt[c] = P(node = true | config c)`
    /// where bit `j` of `c` is the value of `parents[j]`. Length must be
    /// `2^parents.len()`.
    pub cpt: Vec<f64>,
}

/// Errors raised when assembling a Bayesian network.
#[derive(Debug, Clone, PartialEq)]
pub enum BayesError {
    /// A parent index does not precede the node (not topological).
    ParentOutOfOrder {
        /// The offending node index.
        node: usize,
        /// The offending parent index.
        parent: usize,
    },
    /// The CPT length is not `2^parents.len()`.
    BadCptLength {
        /// The offending node index.
        node: usize,
        /// Expected number of rows.
        expected: usize,
        /// Rows supplied.
        found: usize,
    },
    /// A CPT entry is outside `[0, 1]`.
    BadProbability {
        /// The offending node index.
        node: usize,
        /// The offending entry.
        value: f64,
    },
}

impl std::fmt::Display for BayesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BayesError::ParentOutOfOrder { node, parent } => {
                write!(
                    f,
                    "node {node} lists parent {parent}, which does not precede it"
                )
            }
            BayesError::BadCptLength {
                node,
                expected,
                found,
            } => {
                write!(f, "node {node}: CPT has {found} rows, expected {expected}")
            }
            BayesError::BadProbability { node, value } => {
                write!(f, "node {node}: CPT entry {value} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for BayesError {}

/// A discrete Bayesian network over binary nodes, in topological order.
///
/// ```
/// use enframe_data::BayesNet;
///
/// // Rain (p = 0.2) → Sprinkler: P(S | R) = 0.01, P(S | ¬R) = 0.4.
/// let mut bn = BayesNet::new();
/// let rain = bn.root("Rain", 0.2).unwrap();
/// let _sprinkler = bn.add_node("Sprinkler", vec![rain], vec![0.4, 0.01]).unwrap();
///
/// // Compile to lineage events over independent variables (one per CPT
/// // row) — the joint distribution is preserved exactly.
/// let enc = bn.encode();
/// assert_eq!(enc.vt.len(), 3); // 1 prior + 2 CPT rows
/// let p_s = bn.marginal(1);
/// assert!((p_s - (0.2 * 0.01 + 0.8 * 0.4)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Default)]
pub struct BayesNet {
    nodes: Vec<BayesNode>,
}

/// The event encoding of a Bayesian network.
#[derive(Debug, Clone)]
pub struct BayesEncoding {
    /// Probabilities of the fresh independent variables.
    pub vt: VarTable,
    /// One lineage event per BN node, in node order.
    pub events: Vec<Rc<Event>>,
    /// Provenance of each fresh variable: `(node, parent configuration)`.
    pub var_meaning: Vec<(usize, Vec<bool>)>,
}

impl BayesNet {
    /// An empty network.
    pub fn new() -> Self {
        BayesNet::default()
    }

    /// The nodes, in topological order.
    pub fn nodes(&self) -> &[BayesNode] {
        &self.nodes
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the network is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a node and returns its index. Parents must already exist.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        parents: Vec<usize>,
        cpt: Vec<f64>,
    ) -> Result<usize, BayesError> {
        let node = self.nodes.len();
        for &p in &parents {
            if p >= node {
                return Err(BayesError::ParentOutOfOrder { node, parent: p });
            }
        }
        let expected = 1usize << parents.len();
        if cpt.len() != expected {
            return Err(BayesError::BadCptLength {
                node,
                expected,
                found: cpt.len(),
            });
        }
        if let Some(&value) = cpt.iter().find(|p| !(0.0..=1.0).contains(*p)) {
            return Err(BayesError::BadProbability { node, value });
        }
        self.nodes.push(BayesNode {
            name: name.into(),
            parents,
            cpt,
        });
        Ok(node)
    }

    /// Convenience: a root node with prior `p`.
    pub fn root(&mut self, name: impl Into<String>, p: f64) -> Result<usize, BayesError> {
        self.add_node(name, vec![], vec![p])
    }

    /// Convenience: a Markov chain of length `n` — prior `p0` for the
    /// first node, transition probabilities `p_stay` (true → true) and
    /// `p_flip` (false → true) afterwards. The paper's conditional
    /// correlation scheme is exactly this network.
    pub fn chain(n: usize, p0: f64, p_stay: f64, p_flip: f64) -> Result<Self, BayesError> {
        let mut net = BayesNet::new();
        if n == 0 {
            return Ok(net);
        }
        let mut prev = net.root("n0", p0)?;
        for i in 1..n {
            // Bit 0 of the config is the parent's value: row 0 = parent
            // false, row 1 = parent true.
            prev = net.add_node(format!("n{i}"), vec![prev], vec![p_flip, p_stay])?;
        }
        Ok(net)
    }

    /// The joint probability of a complete node assignment under the
    /// standard BN semantics: `Π_i P(node_i = a_i | parents(a))`.
    pub fn joint(&self, assignment: &[bool]) -> f64 {
        assert_eq!(assignment.len(), self.nodes.len());
        let mut prob = 1.0;
        for (i, node) in self.nodes.iter().enumerate() {
            let mut config = 0usize;
            for (j, &p) in node.parents.iter().enumerate() {
                if assignment[p] {
                    config |= 1 << j;
                }
            }
            let p_true = node.cpt[config];
            prob *= if assignment[i] { p_true } else { 1.0 - p_true };
        }
        prob
    }

    /// The marginal probability of one node, by exhaustive enumeration
    /// (test-scale networks only).
    pub fn marginal(&self, node: usize) -> f64 {
        let n = self.nodes.len();
        assert!(n <= 24, "marginal() enumerates 2^n assignments");
        let mut p = 0.0;
        for code in 0..(1u64 << n) {
            let assignment: Vec<bool> = (0..n).map(|i| code >> i & 1 == 1).collect();
            if assignment[node] {
                p += self.joint(&assignment);
            }
        }
        p
    }

    /// Encodes the network into lineage events over fresh independent
    /// variables: one variable per CPT row, numbered from `first_var`.
    fn encode_from(&self, first_var: u32) -> BayesEncoding {
        let mut probs: Vec<f64> = Vec::new();
        let mut var_meaning = Vec::new();
        let mut events: Vec<Rc<Event>> = Vec::with_capacity(self.nodes.len());
        let mut next_var = first_var;
        for (i, node) in self.nodes.iter().enumerate() {
            let mut rows: Vec<Rc<Event>> = Vec::with_capacity(node.cpt.len());
            for (config, &p) in node.cpt.iter().enumerate() {
                let x = Var(next_var);
                next_var += 1;
                probs.push(p);
                let cfg_bits: Vec<bool> = (0..node.parents.len())
                    .map(|j| config >> j & 1 == 1)
                    .collect();
                var_meaning.push((i, cfg_bits.clone()));
                // ⋀_{j} ±Φ_parent(j) ∧ x_{i,c}
                let mut conj: Vec<Rc<Event>> = node
                    .parents
                    .iter()
                    .zip(&cfg_bits)
                    .map(|(&pj, &positive)| {
                        if positive {
                            events[pj].clone()
                        } else {
                            Event::not(events[pj].clone())
                        }
                    })
                    .collect();
                conj.push(Event::var(x));
                rows.push(Event::and(conj));
            }
            events.push(Event::or(rows));
        }
        BayesEncoding {
            vt: VarTable::new(probs),
            events,
            var_meaning,
        }
    }

    /// Encodes the network starting at variable 0.
    pub fn encode(&self) -> BayesEncoding {
        self.encode_from(0)
    }
}

impl BayesEncoding {}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::Valuation;

    impl BayesEncoding {
        /// The joint probability of a complete node-outcome assignment under
        /// the encoding, by exhaustive enumeration of the encoding variables
        /// (test-scale networks only).
        fn joint_by_enumeration(&self, assignment: &[bool]) -> f64 {
            let m = self.vt.len();
            assert!(m <= 24, "enumeration over 2^m variable valuations");
            let mut total = 0.0;
            'worlds: for code in 0..(1u64 << m) {
                let nu = Valuation::from_code(m, code);
                for (ev, &want) in self.events.iter().zip(assignment) {
                    if ev.eval_closed(&nu).expect("closed event") != want {
                        continue 'worlds;
                    }
                }
                total += self.vt.world_prob(&nu);
            }
            total
        }
    }

    /// The classic sprinkler network: Rain → Sprinkler, {Rain, Sprinkler}
    /// → WetGrass.
    fn sprinkler() -> BayesNet {
        let mut bn = BayesNet::new();
        let rain = bn.root("Rain", 0.2).unwrap();
        // P(Sprinkler | ¬Rain) = 0.4, P(Sprinkler | Rain) = 0.01.
        let sprinkler = bn
            .add_node("Sprinkler", vec![rain], vec![0.4, 0.01])
            .unwrap();
        // config bits: bit0 = Sprinkler, bit1 = Rain.
        bn.add_node("WetGrass", vec![sprinkler, rain], vec![0.0, 0.9, 0.8, 0.99])
            .unwrap();
        bn
    }

    #[test]
    fn joint_sums_to_one() {
        let bn = sprinkler();
        let total: f64 = (0..8u64)
            .map(|code| {
                let a: Vec<bool> = (0..3).map(|i| code >> i & 1 == 1).collect();
                bn.joint(&a)
            })
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn encoding_preserves_the_joint_distribution() {
        let bn = sprinkler();
        let enc = bn.encode();
        // 1 + 2 + 4 = 7 fresh variables.
        assert_eq!(enc.vt.len(), 7);
        for code in 0..8u64 {
            let a: Vec<bool> = (0..3).map(|i| code >> i & 1 == 1).collect();
            let want = bn.joint(&a);
            let got = enc.joint_by_enumeration(&a);
            assert!(
                (got - want).abs() < 1e-12,
                "assignment {a:?}: encoded {got} vs BN {want}"
            );
        }
    }

    #[test]
    fn chain_matches_conditional_scheme_shape() {
        let bn = BayesNet::chain(4, 0.6, 0.7, 0.3).unwrap();
        let enc = bn.encode();
        // 1 prior + 2 per further node.
        assert_eq!(enc.vt.len(), 1 + 2 * 3);
        // The encoding's marginals equal the BN marginals.
        for node in 0..4 {
            let want = bn.marginal(node);
            let mut got = 0.0;
            for code in 0..(1u64 << enc.vt.len()) {
                let nu = Valuation::from_code(enc.vt.len(), code);
                if enc.events[node].eval_closed(&nu).unwrap() {
                    got += enc.vt.world_prob(&nu);
                }
            }
            assert!((got - want).abs() < 1e-12, "node {node}");
        }
    }

    #[test]
    fn deterministic_cpt_rows_work() {
        // WetGrass has a deterministic row (0.0): worlds selecting it never
        // make the node true.
        let bn = sprinkler();
        let enc = bn.encode();
        // P(WetGrass | ¬Sprinkler ∧ ¬Rain) = 0: the assignment
        // (¬R, ¬S, W) must have probability (1−0.2)(1−0.4)·0 = 0.
        let got = enc.joint_by_enumeration(&[false, false, true]);
        assert!(got.abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_networks() {
        let mut bn = BayesNet::new();
        let a = bn.root("A", 0.5).unwrap();
        assert_eq!(
            bn.add_node("B", vec![a], vec![0.5]),
            Err(BayesError::BadCptLength {
                node: 1,
                expected: 2,
                found: 1
            })
        );
        assert_eq!(
            bn.add_node("B", vec![3], vec![0.5, 0.5]),
            Err(BayesError::ParentOutOfOrder { node: 1, parent: 3 })
        );
        assert!(matches!(
            bn.add_node("B", vec![a], vec![0.5, 1.5]),
            Err(BayesError::BadProbability { node: 1, .. })
        ));
    }

    #[test]
    fn encode_from_offsets_variables() {
        let bn = BayesNet::chain(2, 0.5, 0.5, 0.5).unwrap();
        let enc = bn.encode_from(10);
        // Events reference variables 10, 11, 12 — probe by valuation width.
        let mut nu = Valuation::all_false(13);
        assert!(!enc.events[0].eval_closed(&nu).unwrap());
        nu.set(Var(10), true);
        assert!(enc.events[0].eval_closed(&nu).unwrap());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// Random 3-node networks: the encoding's joint equals the
            /// BN's joint on every node assignment.
            #[test]
            fn prop_encoding_preserves_joint(
                p_root in 0.0f64..1.0,
                p10 in 0.0f64..1.0,
                p11 in 0.0f64..1.0,
                p2 in proptest::collection::vec(0.0f64..1.0, 4),
            ) {
                let mut bn = BayesNet::new();
                let a = bn.root("A", p_root).unwrap();
                let b = bn.add_node("B", vec![a], vec![p10, p11]).unwrap();
                bn.add_node("C", vec![a, b], p2.clone()).unwrap();
                let enc = bn.encode();
                for code in 0..8u64 {
                    let asg: Vec<bool> = (0..3).map(|i| code >> i & 1 == 1).collect();
                    let want = bn.joint(&asg);
                    let got = enc.joint_by_enumeration(&asg);
                    prop_assert!((got - want).abs() < 1e-9);
                }
            }
        }
    }
}
