//! # enframe-data — workload generators for the evaluation (paper §5)
//!
//! * [`sensor`] — a synthetic stand-in for the paper's energy-network data
//!   set \[28\]: hourly partial-discharge occurrence counts paired with
//!   average network load, drawn from a seeded mixture of normal-operation,
//!   high-load, and anomalous regimes. The substitution keeps the
//!   two-dimensional shape of the data; the experimental variables of §5
//!   are the lineage schemes below, not the point values.
//! * [`correlations`] — the three lineage schemes of §5: *positive*
//!   (disjunctions of `l` positive literals over a pool of `v` variables),
//!   *mutex* (points partitioned into mutually exclusive sets of
//!   cardinality `m`), and *conditional* (a Markov chain with two fresh
//!   variables per step). Points are grouped into lineage groups of size
//!   `g` (default 4, as in the paper) and a configurable fraction of groups
//!   is certain.
//! * [`bayes`] — discrete Bayesian networks over binary nodes, compiled
//!   into lineage events over independent variables (the §3 claim that
//!   events "can succinctly encode instances of such formalisms as
//!   Bayesian networks", made executable).
//! * [`init`] — deterministic farthest-first seeding of the initial
//!   medoids/centroids, which the paper leaves to "a heuristic".
//! * [`workload`] — assembles complete k-medoids workloads (points +
//!   lineage + probabilities + seed medoids) for the figure harnesses.

pub mod bayes;
pub mod correlations;
pub mod init;
pub mod sensor;
pub mod workload;

pub use bayes::{BayesEncoding, BayesError, BayesNet, BayesNode};
pub use correlations::{generate_lineage, Correlations, LineageOpts, Scheme};
pub use init::farthest_first;
pub use sensor::{generate_sensor_points, SensorConfig};
pub use workload::{kmedoids_workload, ClusteringWorkload};
