//! The decision-tree search (paper Algorithm 1, distributed in §4.4) on
//! k-medoids networks:
//!
//! 1. **The sequential search is pinned**: `Stats` and a digest of the
//!    bounds' bits for exact, hybrid (ε = 0.1) and dynamic-order exact
//!    runs, so a refactor of the search shows any change in its
//!    exploration or its arithmetic.
//! 2. **The distributed engine is the same search cut into jobs**: at one
//!    worker and a job depth past the variable count it runs a single
//!    job, and must report bitwise-equal bounds and equal `Stats`; at
//!    four workers it still reports its assignments and prunes.

use enframe::data::{LineageOpts, Scheme};
use enframe::prob::{
    compile, compile_distributed, CompileResult, DistOptions, Options, Stats, Strategy, VarOrder,
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

/// The three pinned runs: exact, hybrid at ε = 0.1, exact with the
/// dynamic variable order.
fn runs() -> [(&'static str, Options); 3] {
    [
        ("exact", Options::exact()),
        ("hybrid", Options::approx(Strategy::Hybrid, 0.1)),
        (
            "dynamic",
            Options {
                order: VarOrder::Dynamic,
                ..Options::exact()
            },
        ),
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
    // Per network, per run: (Stats, bounds digest), as the search
    // reported them when it was still two copies.
    let pinned = [
        [
            (stats(85, 84, 0, 7), 0x1e2b_2c1b_0208_acf2),
            (stats(51, 50, 13, 7), 0x81c4_7e66_594b_6bad),
            (stats(55, 54, 0, 7), 0xf7d5_462f_f2b2_f2fa),
        ],
        [
            (stats(459, 458, 0, 10), 0xf531_6707_fad1_a398),
            (stats(28, 27, 9, 9), 0xc695_78cd_7408_2c2d),
            (stats(171, 170, 0, 10), 0x86a5_ae4c_c105_53da),
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
        let got = compile_distributed(
            &prep.net,
            &prep.vt,
            DistOptions {
                workers: 4,
                job_depth: 2,
                seq: Options::approx(Strategy::Hybrid, 0.1),
                ..DistOptions::default()
            },
        )
        .expect("no worker panics");
        assert!(got.stats.assignments > 0, "n = {n}: {:?}", got.stats);
        assert!(got.stats.prunes > 0, "n = {n}: {:?}", got.stats);
        assert!(
            got.max_width() <= 0.2 + 1e-9,
            "n = {n}: width {}",
            got.max_width()
        );
    }
}
