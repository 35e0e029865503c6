//! The decision-tree search (paper Algorithm 1, distributed in §4.4) on
//! k-medoids networks:
//!
//! 1. **The sequential search is pinned**: `Stats` and a digest of the
//!    bounds' bits for every strategy (exact, and hybrid, eager and lazy
//!    at ε = 0.1) under the one variable rule, the paper's §4.1 choice of
//!    the variable that influences the most unresolved events, so a
//!    refactor of the search shows any change in its exploration or its
//!    arithmetic.
//! 2. **The distributed engine is the same search cut into jobs**: at one
//!    worker and a job depth past the variable count it runs a single
//!    job, and must report bitwise-equal bounds and equal `Stats` for
//!    every pinned run; at four workers every run still reports its
//!    assignments and keeps its widths within 2ε, and hybrid its prunes.

use enframe::data::{LineageOpts, Scheme};
use enframe::prob::{
    compile, compile_distributed, CompileResult, DistOptions, Options, Stats, Strategy,
};
use enframe_bench::{prepare, Prepared};

/// The two pinned networks: `(n, scheme, seed)`.
const NETWORKS: [(usize, Scheme, u64); 2] = [
    (16, Scheme::Positive { l: 3, v: 10 }, 3),
    (24, Scheme::Positive { l: 4, v: 12 }, 5),
];

fn network(n: usize, scheme: Scheme, seed: u64) -> Prepared {
    prepare(n, 2, 2, scheme, &LineageOpts::default(), seed)
}

/// The pinned runs: every strategy, the approximations at ε = 0.1.
fn runs() -> [(&'static str, Options); 4] {
    [
        ("exact", Options::exact()),
        ("hybrid", Options::approx(Strategy::Hybrid, 0.1)),
        ("eager", Options::approx(Strategy::Eager, 0.1)),
        ("lazy", Options::approx(Strategy::Lazy, 0.1)),
    ]
}

/// FNV-1a over the bits of every lower bound, then every upper bound.
fn digest(r: &CompileResult) -> u64 {
    r.lower
        .iter()
        .chain(&r.upper)
        .flat_map(|x| x.to_bits().to_le_bytes())
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
}

fn stats(branches: u64, assignments: u64, prunes: u64, deepest: u32) -> Stats {
    Stats {
        branches,
        assignments,
        prunes,
        deepest,
    }
}

#[test]
fn sequential_search_is_pinned() {
    // Per network, per run: (Stats, bounds digest), taken when the §4.1
    // rule became the only one. Exact is the earlier dynamic-order pin,
    // digest included.
    let pinned = [
        [
            (stats(55, 54, 0, 7), 0xf7d5_462f_f2b2_f2fa),
            (stats(32, 31, 8, 6), 0x2533_1ceb_3920_507b),
            (stats(54, 53, 1, 7), 0x19a7_703c_97f4_410c),
            (stats(30, 29, 0, 6), 0x7097_a17b_3c60_6b72),
        ],
        [
            (stats(171, 170, 0, 10), 0x86a5_ae4c_c105_53da),
            (stats(20, 19, 5, 5), 0x7a7d_1337_6c85_dccd),
            (stats(152, 151, 9, 10), 0xd485_97c1_a563_1d9b),
            (stats(38, 37, 0, 8), 0x1da4_8823_7f3a_583d),
        ],
    ];
    let got = NETWORKS.map(|(n, scheme, seed)| {
        let prep = network(n, scheme, seed);
        runs().map(|(_, opts)| {
            let r = compile(&prep.net, &prep.vt, opts);
            (r.stats.clone(), digest(&r))
        })
    });
    assert_eq!(got, pinned);
}

#[test]
fn one_job_distributed_run_is_the_sequential_search() {
    for (n, scheme, seed) in NETWORKS {
        let prep = network(n, scheme, seed);
        for (name, seq) in runs() {
            let want = compile(&prep.net, &prep.vt, seq);
            let got = compile_distributed(
                &prep.net,
                &prep.vt,
                DistOptions {
                    workers: 1,
                    job_depth: prep.net.n_vars as usize,
                    seq,
                    ..DistOptions::default()
                },
            )
            .expect("no worker panics");
            assert_eq!(
                (got.stats.clone(), digest(&got)),
                (want.stats.clone(), digest(&want)),
                "n = {n}, {name}"
            );
        }
    }
}

#[test]
fn forked_jobs_report_their_assignments_and_prunes() {
    for (n, scheme, seed) in NETWORKS {
        let prep = network(n, scheme, seed);
        for (name, seq) in runs() {
            let got = compile_distributed(
                &prep.net,
                &prep.vt,
                DistOptions {
                    workers: 4,
                    job_depth: 2,
                    seq,
                    ..DistOptions::default()
                },
            )
            .expect("no worker panics");
            assert!(
                got.stats.assignments > 0,
                "n = {n}, {name}: {:?}",
                got.stats
            );
            // How much eager and lazy prune depends on the job schedule
            // (lazy's sequential run prunes nothing), so only hybrid's
            // prunes are asserted.
            assert!(
                seq.strategy != Strategy::Hybrid || got.stats.prunes > 0,
                "n = {n}, {name}: {:?}",
                got.stats
            );
            assert!(
                got.max_width() <= 2.0 * seq.epsilon + 1e-9,
                "n = {n}, {name}: width {}",
                got.max_width()
            );
        }
    }
}
