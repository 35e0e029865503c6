//! Weighted model counting over compiled OBDDs.
//!
//! Once an event is compiled, its probability is a **single linear pass**
//! over the DAG (Koch & Olteanu's conditioning route): each decision node
//! contributes `p·P(hi) + (1−p)·P(lo)`, complement edges contribute
//! `1 − P(node)`, and variables absent from the support marginalise out
//! automatically because both branch weights sum to one. Weights are
//! indexed by the manager's **variable labels**, which are stable under
//! dynamic reordering — a reorder changes levels, not labels, so the same
//! weight vector keeps working.
//!
//! A [`Wmc`] memoises per-node probabilities for the life of one
//! query, so computing the probabilities of many targets over one
//! manager costs one traversal of their *union* DAG. Nothing outlives
//! the counter: it borrows the manager, so garbage collection and
//! reordering, which recycle node indices, cannot run while it exists.

use crate::manager::{Bdd, Manager};
use enframe_core::fxhash::FxHashMap;
use enframe_telemetry::{self as telemetry, Counter};

/// A weighted model counter over one manager: per-variable weights plus
/// a per-node memo shared across [`Wmc::probability`] calls.
pub struct Wmc<'m> {
    man: &'m Manager,
    /// `P(var = true)` per manager variable label.
    weights: Vec<f64>,
    /// Probability of each *uncomplemented* node function, by node index.
    memo: FxHashMap<u32, f64>,
}

impl<'m> Wmc<'m> {
    /// A counter with the given per-variable weights (`weights[v]` is
    /// the probability that manager variable `v` is true) and an empty
    /// memo.
    pub fn new(man: &'m Manager, weights: Vec<f64>) -> Self {
        Wmc {
            man,
            weights,
            memo: FxHashMap::default(),
        }
    }

    /// The probability of the function `f` under the weights.
    pub fn probability(&mut self, f: Bdd) -> f64 {
        let p = self.node_probability(f);
        if f.is_complement() {
            1.0 - p
        } else {
            p
        }
    }

    fn node_probability(&mut self, f: Bdd) -> f64 {
        let (index, var, hi, lo) = self.man.node_of(f);
        if index == 0 {
            return 1.0; // the ⊤ terminal
        }
        if let Some(&p) = self.memo.get(&index) {
            telemetry::count(Counter::WmcHit);
            return p;
        }
        telemetry::count(Counter::WmcMiss);
        let pv = self.weights[var as usize];
        let ph = self.probability(hi);
        let pl = self.probability(lo);
        let p = pv * ph + (1.0 - pv) * pl;
        self.memo.insert(index, p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn literal_probability_is_its_weight() {
        let mut man = Manager::new();
        let x = man.var(0);
        let mut wmc = Wmc::new(&man, vec![0.3]);
        assert!((wmc.probability(x) - 0.3).abs() < 1e-12);
        assert!((wmc.probability(!x) - 0.7).abs() < 1e-12);
        assert_eq!(wmc.probability(Bdd::TRUE), 1.0);
        assert_eq!(wmc.probability(Bdd::FALSE), 0.0);
    }

    #[test]
    fn independent_disjunction() {
        let mut man = Manager::new();
        let x = man.var(0);
        let y = man.var(1);
        let f = man.or(x, y);
        let mut wmc = Wmc::new(&man, vec![0.5, 0.5]);
        assert!((wmc.probability(f) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn matches_enumeration_on_random_functions() {
        let n = 5usize;
        let weights = [0.3, 0.5, 0.7, 0.2, 0.9];
        let mut man = Manager::new();
        let vars: Vec<Bdd> = (0..n as u32).map(|v| man.var(v)).collect();
        let mut s = 42u64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let mut pool = vars.clone();
        for _ in 0..30 {
            let a = pool[next() as usize % pool.len()];
            let b = pool[next() as usize % pool.len()];
            let f = match next() % 3 {
                0 => man.and(a, b),
                1 => man.or(a, b),
                _ => !a,
            };
            pool.push(f);
        }
        let mut wmc = Wmc::new(&man, weights.to_vec());
        for &f in pool.iter().rev().take(8) {
            let mut want = 0.0;
            for code in 0..1u32 << n {
                if man.eval(f, |v| code >> v & 1 == 1) {
                    let mut p = 1.0;
                    for (v, w) in weights.iter().enumerate() {
                        p *= if code >> v & 1 == 1 { *w } else { 1.0 - w };
                    }
                    want += p;
                }
            }
            assert!(
                (wmc.probability(f) - want).abs() < 1e-12,
                "wmc {} vs enumeration {}",
                wmc.probability(f),
                want
            );
        }
    }

    #[test]
    fn cache_is_shared_across_calls() {
        let mut man = Manager::new();
        let x = man.var(0);
        let y = man.var(1);
        let f = man.and(x, y);
        let z = man.var(2);
        let g = man.or(f, z);
        let mut wmc = Wmc::new(&man, vec![0.5; 3]);
        let _ = wmc.probability(f);
        let before = wmc.memo.len();
        let _ = wmc.probability(g);
        assert!(wmc.memo.len() > before, "g reuses f's memoised nodes");
    }

    #[test]
    fn weights_index_variables_not_levels() {
        // After a reorder the level order flips, but weights stay keyed
        // by variable label, so probabilities are unchanged.
        let mut man = Manager::new();
        let x = man.var(0);
        let y = man.var(1);
        let f = man.and(x, y);
        man.protect(f);
        let mut wmc = Wmc::new(&man, vec![0.3, 0.9]);
        let before = wmc.probability(f);
        man.reorder();
        let mut wmc = Wmc::new(&man, vec![0.3, 0.9]);
        assert!((wmc.probability(f) - before).abs() < 1e-12);
    }
}
