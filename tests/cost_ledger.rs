//! The cost ledger: deterministic work counts of the compiled forms,
//! pinned in `tests/cost_ledger.expected`, one `name = value` line each.
//!
//! The rows are what the static variable ranking decides: d-DNNF nodes,
//! edges, expansion steps and memo hits on a k-medoids network and on
//! mutex and positive lineage, and on the same lineages the OBDD's
//! nodes, DP steps (0 while lineage stays propositional), peak nodes and
//! sifting passes, plus the static OBDD's nodes. The lineages are sized
//! so that sifting runs once on each. `bdd_wmc_misses` is the node count
//! of the first probability sweep over the sifted OBDD: one memo shared
//! by every target, so it counts the union DAG, not the sum of the
//! target DAGs. Every count is compared exactly, at one worker (parallel
//! step totals are scheduling diagnostics). The test reads no clock and
//! installs no allocator. A change that moves a row edits the expected
//! file and says why.
//!
//! The sweep's count is read through the process-wide telemetry
//! counters, which is sound only while this binary holds one test.
//!
//! Names are `<network>.<metric>`, with the benchmark's metric names
//! where one exists (`obdd.dnnf_nodes`, `obdd.dnnf_steps`).

use enframe::data::{LineageOpts, Scheme};
use enframe::obdd::dnnf::{DnnfEngine, DnnfOptions};
use enframe::obdd::{ObddEngine, ObddOptions};
use enframe::telemetry::{self, Counter};
use enframe_bench::{prepare, prepare_lineage, Prepared};
use std::fmt::Write;

/// Appends one network's rows: d-DNNF's counts, then with `obdd` the
/// sifted and the static OBDD's.
fn rows(out: &mut String, name: &str, prep: &Prepared, obdd: bool) {
    let mut row = |metric: &str, value: u64| writeln!(out, "{name}.{metric} = {value}").unwrap();
    let opts = DnnfOptions {
        workers: 1,
        ..DnnfOptions::default()
    };
    let dnnf = DnnfEngine::compile(&prep.net, &opts).expect("d-DNNF compiles");
    let s = dnnf.stats();
    row("obdd.dnnf_nodes", s.nodes as u64);
    row("obdd.dnnf_edges", s.edges as u64);
    row("obdd.dnnf_steps", s.expansion_steps);
    row("obdd.dnnf_memo_hits", s.memo_hits);
    if !obdd {
        return;
    }
    let groups = prep.var_groups.clone();
    let bdd = ObddEngine::compile(&prep.net, &ObddOptions::with_groups(groups.clone()))
        .expect("OBDD compiles");
    let s = bdd.stats();
    row("obdd.bdd_nodes", s.nodes as u64);
    row("obdd.bdd_cmp_branches", s.cmp_branches);
    row("obdd.bdd_peak_nodes", s.manager.peak_nodes as u64);
    row("obdd.bdd_reorders", s.manager.reorders);
    let was = telemetry::enabled();
    telemetry::set_enabled(true);
    telemetry::reset();
    bdd.probabilities(&prep.vt);
    let misses = telemetry::snapshot().counter(Counter::WmcMiss);
    row("obdd.bdd_wmc_misses", misses);
    telemetry::set_enabled(was);
    let fixed = ObddEngine::compile(&prep.net, &ObddOptions::static_with_groups(groups))
        .expect("static OBDD compiles");
    row("obdd.bdd_static_nodes", fixed.stats().nodes as u64);
}

#[test]
fn work_counts_match_the_ledger() {
    let opts = LineageOpts::default();
    let mut got = String::new();
    // The smaller of `tests/decision_tree_search.rs`' k-medoids networks.
    // Its OBDD compiles through the same DP, so it has d-DNNF rows only.
    let kmedoids = prepare(16, 2, 2, Scheme::Positive { l: 3, v: 10 }, &opts, 3);
    rows(&mut got, "kmedoids_n16", &kmedoids, false);
    let lineages = [
        ("mutex_g32", Scheme::Mutex { m: 8 }, 32),
        ("positive_g24", Scheme::Positive { l: 4, v: 24 }, 24),
    ];
    for (name, scheme, groups) in lineages {
        let prep = prepare_lineage(groups, scheme, &opts, 0xBDD + groups as u64);
        rows(&mut got, name, &prep, true);
    }
    let want: String = include_str!("cost_ledger.expected")
        .lines()
        .filter(|l| !l.starts_with('#'))
        .map(|l| format!("{l}\n"))
        .collect();
    let moved: Vec<&str> = got
        .lines()
        .filter(|l| !want.lines().any(|w| w == *l))
        .collect();
    assert!(
        got == want,
        "cost ledger moved: {moved:?}\nthe whole ledger as measured:\n{got}"
    );
}
