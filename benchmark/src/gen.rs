//! Seeded input generation: the RNG every generator seed derives from,
//! the Zipf sampler, weight vectors, and the lineage-query builder the
//! serve workloads compile.

use enframe::core::{Program, Var, VarTable};
use enframe::data::{generate_lineage, LineageOpts, Scheme};
use enframe::network::Network;
use std::sync::Arc;

/// SplitMix64: small, seedable, and good enough to draw inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for sub-generator `stream` of `seed`.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }
}

/// Zipf-distributed ranks `0..n`: rank `r` has weight `1 / (r+1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n >= 1, "Zipf over no ranks");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// The paper's probability range (§5).
pub const P_LO: f64 = 0.5;
pub const P_HI: f64 = 0.8;

/// A fresh weight vector, every probability uniform in the paper's range.
pub fn draw_weights(rng: &mut Rng, n_vars: usize) -> VarTable {
    VarTable::new(
        (0..n_vars)
            .map(|_| P_LO + (P_HI - P_LO) * rng.unit())
            .collect(),
    )
}

/// `base` with every probability moved by at most `±half_width`.
pub fn jitter_weights(rng: &mut Rng, base: &VarTable, half_width: f64) -> VarTable {
    VarTable::new(
        base.vars()
            .map(|v| base.prob(v) + half_width * (2.0 * rng.unit() - 1.0))
            .collect(),
    )
}

/// Partner `i + n_groups/2` for every first-half group `i`.
pub fn aligned_partners(n_groups: usize) -> Vec<usize> {
    (n_groups / 2..n_groups / 2 * 2).collect()
}

/// Groups in a `serve_churn` lineage, and how many structures
/// [`churn_partners`] can tell apart.
pub const CHURN_GROUPS: usize = 40;
pub const CHURN_FAMILY: u64 = 240;

/// Partners of `serve_churn` structure `number`: the second half's five
/// mutex sets permuted as whole sets (the `number % 120`-th permutation),
/// with the two middle groups of every set swapped for the upper 120.
/// Pairing set against set keeps every member of the family at the same
/// d-DNNF size (9 913 nodes, 3 974 expansion steps — free shuffles range
/// 10–46 k nodes), so a hit, a reload and a compile each cost the same
/// whichever lineage they land on, while every member has its own
/// fingerprint. Numbers past the family wrap around.
pub fn churn_partners(number: u64) -> Vec<usize> {
    let half = CHURN_GROUPS / 2;
    let sets = half / MUTEX_SET;
    let number = number % CHURN_FAMILY;
    // Lehmer decoding of the set permutation.
    let mut pool: Vec<usize> = (0..sets).collect();
    let mut rest = (number % 120) as usize;
    let mut sigma = Vec::with_capacity(sets);
    for k in (1..=sets).rev() {
        let below: usize = (1..k).product();
        sigma.push(pool.remove(rest / below));
        rest %= below;
    }
    let within: [usize; MUTEX_SET] = if number < 120 {
        [0, 1, 2, 3]
    } else {
        [0, 2, 1, 3]
    };
    (0..half)
        .map(|i| half + MUTEX_SET * sigma[i / MUTEX_SET] + within[i % MUTEX_SET])
        .collect()
}

/// A lineage query: the event network the serve workloads compile, its
/// variable count, and the mutex groups order-sensitive engines keep
/// adjacent.
#[derive(Debug, Clone)]
pub struct LineageQuery {
    pub net: Arc<Network>,
    pub n_vars: usize,
    pub groups: Vec<Vec<Var>>,
}

/// Groups per mutex set in the serve lineages.
pub const MUTEX_SET: usize = 4;

/// Builds the query over a mutex-chain lineage of `n_groups` groups in
/// sets of [`MUTEX_SET`]: `Exists[g]` per group, one `Any[w]` per window
/// of four, a global `AtLeastOne`, one co-existence event `Co[i]` per
/// pair `(i, partners[i])` and their disjunction `AnyCo`. `partners`
/// permutes the second half of the groups; a different permutation is a
/// structurally different lineage with its own fingerprint.
pub fn lineage_query(n_groups: usize, partners: &[usize]) -> LineageQuery {
    assert_eq!(
        partners.len(),
        n_groups / 2,
        "one partner per first-half group"
    );
    let opts = LineageOpts {
        group_size: 1,
        ..LineageOpts::default()
    };
    // The mutex scheme with no certain groups has one structure per
    // `n_groups`; the generator's seed only draws probabilities,
    // which the workloads replace with their own.
    let corr = generate_lineage(n_groups, Scheme::Mutex { m: MUTEX_SET }, &opts, 0);
    let mut p = Program::new();
    p.ensure_vars(corr.var_table.len() as u32);
    let mut exists = Vec::with_capacity(n_groups);
    for (g, phi) in corr.lineage.iter().enumerate() {
        let id = p
            .declare_closed_event(&format!("Exists{g}"), phi)
            .expect("generated lineage is closed");
        p.add_target(id.clone());
        exists.push(id);
    }
    for (w, window) in exists.chunks(4).enumerate() {
        let any = Program::or(window.iter().cloned().map(Program::eref));
        let id = p.declare_event(&format!("Any{w}"), any);
        p.add_target(id);
    }
    let all = Program::or(exists.iter().cloned().map(Program::eref));
    let id = p.declare_event("AtLeastOne", all);
    p.add_target(id);
    let mut pairs = Vec::with_capacity(partners.len());
    for (i, &j) in partners.iter().enumerate() {
        let both = Program::and([
            Program::eref(exists[i].clone()),
            Program::eref(exists[j].clone()),
        ]);
        let id = p.declare_event(&format!("Co{i}"), both);
        p.add_target(id.clone());
        pairs.push(id);
    }
    let id = p.declare_event("AnyCo", Program::or(pairs.into_iter().map(Program::eref)));
    p.add_target(id);
    let ground = p.ground().expect("lineage program grounds");
    let net = Network::build(&ground).expect("lineage network builds");
    LineageQuery {
        net: Arc::new(net),
        n_vars: corr.var_table.len(),
        groups: corr.var_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_streams_differ() {
        let a: Vec<u64> = (0..4).map(|_| Rng::derive(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(1, 2).next_u64(), Rng::derive(1, 3).next_u64());
        assert_ne!(Rng::derive(1, 2).next_u64(), Rng::derive(2, 2).next_u64());
        let mut r = Rng::derive(9, 0);
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.unit())));
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(32, 1.0);
        let mut rng = Rng::derive(5, 0);
        let mut hist = [0usize; 32];
        for _ in 0..20_000 {
            hist[z.sample(&mut rng)] += 1;
        }
        // Rank 0 carries 1/H(32) ≈ 24.6 % of the mass, rank 1 half that.
        let share0 = hist[0] as f64 / 20_000.0;
        assert!((share0 - 0.246).abs() < 0.02, "rank-0 share {share0}");
        assert!((hist[0] as f64 / hist[1] as f64 - 2.0).abs() < 0.25);
        assert!(hist.iter().all(|&h| h > 0));
        assert_eq!(Zipf::new(1, 1.0).sample(&mut rng), 0);
    }

    #[test]
    fn churn_family_members_are_distinct_and_equally_large() {
        use enframe::obdd::dnnf::DnnfOptions;
        use enframe::store::fingerprint_dnnf;
        let opts = DnnfOptions::default();
        let mut seen = std::collections::BTreeSet::new();
        let size = lineage_query(CHURN_GROUPS, &churn_partners(0)).net.len();
        for number in 0..CHURN_FAMILY {
            let partners = churn_partners(number);
            let mut sorted = partners.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, aligned_partners(CHURN_GROUPS), "not a permutation");
            let q = lineage_query(CHURN_GROUPS, &partners);
            assert_eq!(q.net.len(), size);
            assert!(
                seen.insert(fingerprint_dnnf(&q.net, &opts)),
                "{number} repeats"
            );
        }
        assert_eq!(churn_partners(CHURN_FAMILY + 7), churn_partners(7));
    }

    #[test]
    fn jitter_stays_within_half_width() {
        let base = VarTable::new(vec![0.5, 0.6, 0.7]);
        let j = jitter_weights(&mut Rng::derive(3, 0), &base, 0.01);
        for v in base.vars() {
            assert!((j.prob(v) - base.prob(v)).abs() <= 0.01);
        }
    }
}
