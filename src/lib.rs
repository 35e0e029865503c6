//! # ENFrame — a platform for processing probabilistic data
//!
//! A from-scratch Rust reproduction of *ENFrame: A Platform for Processing
//! Probabilistic Data* (van Schaik, Olteanu, Fink — EDBT 2014).
//!
//! ENFrame lets users write ordinary-looking programs (a Python fragment
//! with bounded loops, list comprehension, and `reduce_*` aggregates) over
//! *probabilistic* data, and interprets them under the possible-worlds
//! semantics: the program result is a probability distribution over
//! outcomes, computed exactly or with anytime ε-guarantees, sequentially or
//! distributed — without ever enumerating the exponentially many worlds.
//!
//! ## Crate map
//!
//! | Module | Contents |
//! |--------|----------|
//! | [`core`] | the event language: c-values, events, event programs, possible-worlds semantics |
//! | [`lang`] | the user language: lexer, parser, checker, undefined-aware interpreter, the paper's three programs |
//! | [`translate`] | user programs → event programs (§3.5), probabilistic environments, target helpers |
//! | [`network`] | hash-consed event networks (§4.1), DOT export |
//! | [`prob`] | probability computation: exact, eager/lazy/hybrid ε-approximation, distributed (§4) |
//! | [`obdd`] | knowledge compilation: OBDDs (exact and conditioned probabilities, linear-time queries over compiled lineage) and d-DNNF (`obdd::dnnf` — residual-state-memoised compilation for aggregate-comparison workloads) |
//! | [`worlds`] | the naïve possible-worlds baseline (§5) |
//! | [`sprout`] | pc-tables and positive relational algebra with aggregates (the `loadData()` query path) |
//! | [`data`] | workload generators: correlation schemes, synthetic sensor data (§5), farthest-first seeding (`farthest_first`) |
//! | [`store`] | crash-safe compiled-artifact store: fingerprinted persistence, zero-trust reloads with integrity revalidation, corruption recovery |
//! | [`serve`] | query service: two-tier artifact cache with single-flight compiles, epoch-snapshotted lock-free reads, one WMC sweep per request, per-request budgets with graceful degradation |
//! | [`telemetry`] | instrumentation: hierarchical spans, typed counters, worker timelines, Chrome Trace export |
//!
//! ## Quickstart
//!
//! ```
//! use enframe::prelude::*;
//! use std::rc::Rc;
//!
//! // Four 1-D points; the middle two exist only probabilistically.
//! let objects = ProbObjects::new(
//!     vec![vec![0.0], vec![1.0], vec![5.0], vec![6.0]],
//!     vec![
//!         Rc::new(Event::Tru),
//!         Event::var(Var(0)),
//!         Event::var(Var(1)),
//!         Rc::new(Event::Tru),
//!     ],
//! );
//! let env = clustering_env(objects, 2, 2, vec![0, 3], 2);
//!
//! // Translate the paper's k-medoids program and compile it exactly.
//! let ast = parse(programs::K_MEDOIDS).unwrap();
//! let mut tr = translate(&ast, &env).unwrap();
//! enframe::translate::targets::add_all_bool_targets(&mut tr, "Centre");
//! let net = Network::build(&tr.ground().unwrap()).unwrap();
//! let vt = VarTable::new(vec![0.7, 0.4]);
//! let result = compile(&net, &vt, Options::exact());
//! assert!(result.max_width() < 1e-12); // exact: bounds converged
//! ```

pub use enframe_core as core;
pub use enframe_data as data;
pub use enframe_lang as lang;
pub use enframe_network as network;
pub use enframe_obdd as obdd;
pub use enframe_prob as prob;
pub use enframe_serve as serve;
pub use enframe_sprout as sprout;
pub use enframe_store as store;
pub use enframe_telemetry as telemetry;
pub use enframe_translate as translate;
pub use enframe_worlds as worlds;

/// The most common types and functions in one import.
pub mod prelude {
    pub use enframe_core::{
        CVal, CmpOp, Event, GroundProgram, Program, Valuation, Value, Var, VarTable,
    };
    pub use enframe_data::{kmedoids_workload, LineageOpts, Scheme};
    pub use enframe_lang::{parse, programs, Interp, RtValue, SimpleEnv};
    pub use enframe_network::Network;
    pub use enframe_obdd::{ObddEngine, ObddOptions, ReorderPolicy};
    pub use enframe_prob::{
        compile, compile_distributed, CompileResult, DistOptions, Options, Strategy,
    };
    pub use enframe_serve::{Answer, Lineage, QueryService, Reply, ServeOptions};
    pub use enframe_sprout::{PcTable, Query, Schema};
    pub use enframe_translate::env::clustering_env;
    pub use enframe_translate::{translate, ProbEnv, ProbObjects, ProbValue};
    pub use enframe_worlds::naive_probabilities;
}
