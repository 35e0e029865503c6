//! Complete clustering workloads for the figure harnesses.

use crate::correlations::{generate_lineage, LineageOpts, Scheme};
use crate::init::farthest_first;
use crate::sensor::{generate_sensor_points, SensorConfig};
use enframe_core::{Var, VarTable};
use enframe_translate::env::{clustering_env, ProbEnv, ProbObjects};

/// A ready-to-run k-medoids workload: probabilistic environment, variable
/// probabilities, and the underlying deterministic data.
#[derive(Debug, Clone)]
pub struct ClusteringWorkload {
    /// The probabilistic environment for translation / naïve execution.
    pub env: ProbEnv,
    /// Variable probabilities.
    pub vt: VarTable,
    /// The raw points.
    pub points: Vec<Vec<f64>>,
    /// Seed medoid indices chosen by farthest-first traversal.
    pub seeds: Vec<usize>,
    /// Multi-valued variable groups of the lineage (see
    /// [`crate::Correlations::var_groups`]); adjacency hints for
    /// order-sensitive engines such as the OBDD backend, which also
    /// moves each group as one group-sifting block when reordering.
    pub var_groups: Vec<Vec<Var>>,
}

/// Builds a k-medoids workload over synthetic sensor data with the given
/// correlation scheme. `seed` controls both data and lineage generation.
pub fn kmedoids_workload(
    n: usize,
    k: usize,
    iterations: usize,
    scheme: Scheme,
    opts: &LineageOpts,
    seed: u64,
) -> ClusteringWorkload {
    let points = generate_sensor_points(&SensorConfig {
        n,
        seed,
        ..SensorConfig::default()
    });
    let seeds = farthest_first(&points, k);
    let corr = generate_lineage(n, scheme, opts, seed.wrapping_add(1));
    let n_vars = corr.var_table.len() as u32;
    let objects = ProbObjects::new(points.clone(), corr.lineage);
    let env = clustering_env(objects, k, iterations, seeds.clone(), n_vars);
    ClusteringWorkload {
        env,
        vt: corr.var_table,
        points,
        seeds,
        var_groups: corr.var_groups,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_is_consistent() {
        let w = kmedoids_workload(
            24,
            2,
            3,
            Scheme::Positive { l: 3, v: 8 },
            &LineageOpts::default(),
            7,
        );
        assert_eq!(w.points.len(), 24);
        assert_eq!(w.seeds.len(), 2);
        assert_eq!(w.vt.len(), 8);
        assert_eq!(w.env.n_vars, 8);
        let objs = w.env.objects().unwrap();
        assert_eq!(objs.len(), 24);
    }

    #[test]
    fn workload_is_deterministic() {
        let mk = || kmedoids_workload(16, 2, 2, Scheme::Mutex { m: 8 }, &LineageOpts::default(), 3);
        let a = mk();
        let b = mk();
        assert_eq!(a.points, b.points);
        assert_eq!(a.seeds, b.seeds);
        assert_eq!(a.vt, b.vt);
    }

    /// Seed medoids of the benchmark's ten structures (`kmedoids_exact`: n =
    /// 16, seeds 1–8; `kmedoids_approx`: n = 80, seeds 2 and 6), plus k = 6
    /// to exercise the running minimum-distance update. A change to the
    /// farthest-first arithmetic shows here before it moves a ledger instance.
    #[test]
    fn ledger_seeds_are_pinned() {
        let exact = LineageOpts::default();
        let approx = LineageOpts {
            certain_frac: 0.5,
            ..LineageOpts::default()
        };
        let pinned = [
            [8, 5],
            [5, 0],
            [7, 15],
            [4, 15],
            [13, 9],
            [3, 14],
            [12, 1],
            [0, 12],
        ];
        for (s, want) in (1..=8).zip(pinned) {
            let w = kmedoids_workload(16, 2, 2, Scheme::Positive { l: 8, v: 14 }, &exact, s);
            assert_eq!(w.seeds, want, "n = 16, structure seed {s}");
        }
        let pinned: [(u64, usize, &[usize]); 4] = [
            (2, 2, &[34, 54]),
            (6, 2, &[3, 76]),
            (2, 6, &[34, 54, 70, 79, 21, 42]),
            (6, 6, &[3, 76, 53, 36, 18, 43]),
        ];
        for (s, k, want) in pinned {
            let w = kmedoids_workload(80, k, 3, Scheme::Positive { l: 8, v: 16 }, &approx, s);
            assert_eq!(w.seeds, want, "n = 80, k = {k}, structure seed {s}");
        }
    }

    #[test]
    fn mutex_workload_variable_count_scales_with_n() {
        let small = kmedoids_workload(
            48,
            2,
            2,
            Scheme::Mutex { m: 12 },
            &LineageOpts::default(),
            1,
        );
        let large = kmedoids_workload(
            96,
            2,
            2,
            Scheme::Mutex { m: 12 },
            &LineageOpts::default(),
            1,
        );
        assert!(large.vt.len() > small.vt.len());
    }
}
