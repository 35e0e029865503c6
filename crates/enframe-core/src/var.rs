//! Boolean random variables, valuations, and variable tables.
//!
//! The input uncertainty of an ENFrame program is described by a finite set
//! `X` of independent Boolean random variables (paper §3). A [`Valuation`]
//! `ν : X → {true, false}` selects one possible world; its probability is
//! the product of the per-variable probabilities (Definition 1).

/// A Boolean random variable, identified by a dense index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl Var {
    /// The dense index of this variable.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The probabilities `P(x = true)` for every variable in `X`.
#[derive(Debug, Clone, PartialEq)]
pub struct VarTable {
    probs: Vec<f64>,
}

impl VarTable {
    /// Builds a table from explicit probabilities (one per variable, in
    /// variable order).
    ///
    /// # Panics
    /// Panics if any probability is outside `[0, 1]` or not finite.
    pub fn new(probs: Vec<f64>) -> Self {
        for (i, p) in probs.iter().enumerate() {
            assert!(
                p.is_finite() && (0.0..=1.0).contains(p),
                "probability of variable x{i} out of range: {p}"
            );
        }
        Self { probs }
    }

    /// A table of `n` variables all with probability `p`.
    pub fn uniform(n: usize, p: f64) -> Self {
        Self::new(vec![p; n])
    }

    /// Number of variables.
    pub fn len(&self) -> usize {
        self.probs.len()
    }

    /// Whether the table is empty (zero variables — a single certain world).
    pub fn is_empty(&self) -> bool {
        self.probs.is_empty()
    }

    /// `P(v = true)`.
    pub fn prob(&self, v: Var) -> f64 {
        self.probs[v.index()]
    }

    /// All variables in index order.
    pub fn vars(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.probs.len() as u32).map(Var)
    }

    /// The probability mass of a complete valuation (Definition 1):
    /// `Pr(ν) = Π_x P(x = ν(x))`.
    pub fn world_prob(&self, nu: &Valuation) -> f64 {
        assert_eq!(nu.len(), self.len(), "valuation arity mismatch");
        self.probs
            .iter()
            .enumerate()
            .map(|(i, p)| if nu.get(Var(i as u32)) { *p } else { 1.0 - *p })
            .product()
    }
}

/// A complete truth assignment to the variables of `X`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Valuation {
    bits: Vec<bool>,
}

impl Valuation {
    /// The all-false valuation over `n` variables.
    pub fn all_false(n: usize) -> Self {
        Self {
            bits: vec![false; n],
        }
    }

    /// Builds a valuation from a bit pattern: bit `i` of `code` gives the
    /// value of variable `i`. Used by world enumeration.
    pub fn from_code(n: usize, code: u64) -> Self {
        assert!(n <= 64, "from_code supports at most 64 variables");
        Self {
            bits: (0..n).map(|i| (code >> i) & 1 == 1).collect(),
        }
    }

    /// Builds a valuation from an explicit bit vector.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Self { bits }
    }

    /// The value of variable `v`.
    pub fn get(&self, v: Var) -> bool {
        self.bits[v.index()]
    }

    /// Sets the value of variable `v`.
    pub fn set(&mut self, v: Var, value: bool) {
        self.bits[v.index()] = value;
    }

    /// Number of variables covered.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the valuation covers zero variables.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// The underlying bits, indexed by variable.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl VarTable {
        /// `P(v = value)`.
        fn prob_of(&self, v: Var, value: bool) -> f64 {
            if value {
                self.probs[v.index()]
            } else {
                1.0 - self.probs[v.index()]
            }
        }
    }

    #[test]
    fn world_prob_multiplies_marginals() {
        let vt = VarTable::new(vec![0.5, 0.8]);
        // ν = {x0 ↦ true, x1 ↦ false}: 0.5 · 0.2
        let nu = Valuation::from_bits(vec![true, false]);
        assert!((vt.world_prob(&nu) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn from_code_bit_layout() {
        let nu = Valuation::from_code(3, 0b101);
        assert!(nu.get(Var(0)));
        assert!(!nu.get(Var(1)));
        assert!(nu.get(Var(2)));
    }

    #[test]
    fn world_probs_sum_to_one() {
        let vt = VarTable::new(vec![0.3, 0.6, 0.9]);
        let total: f64 = (0..8u64)
            .map(|c| vt.world_prob(&Valuation::from_code(3, c)))
            .sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prob_of_is_complementary() {
        let vt = VarTable::new(vec![0.25]);
        assert_eq!(vt.prob_of(Var(0), true), 0.25);
        assert_eq!(vt.prob_of(Var(0), false), 0.75);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_invalid_probability() {
        VarTable::new(vec![1.5]);
    }

    #[test]
    fn set_and_get() {
        let mut nu = Valuation::all_false(2);
        assert!(!nu.get(Var(1)));
        nu.set(Var(1), true);
        assert!(nu.get(Var(1)));
        assert_eq!(nu.bits(), &[false, true]);
    }
}
