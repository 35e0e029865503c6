//! Seeding of the clustering workloads. The paper assumes "initial
//! centroids have been chosen, for example by using a heuristic \[31\]";
//! [`farthest_first`] returns *indices into the object list*, so the same
//! choice is encoded into the event program (`M_i^{-1} ≡ Φ(o_{π(i)}) ⊗ o_{π(i)}`).

/// Euclidean distance between two points of equal dimension.
fn dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Deterministic farthest-first traversal under the Euclidean distance (a
/// standard 2-approximation seeding for k-center). The first seed is the
/// point with the lowest index among those at minimal distance from the
/// data centroid; each subsequent seed maximises the distance to the chosen
/// set. Ties break towards the lower index, matching ENFrame tie-breaking.
///
/// # Panics
/// Panics if `k == 0`, if `k > points.len()`, or if the points differ in
/// dimension.
pub fn farthest_first(points: &[Vec<f64>], k: usize) -> Vec<usize> {
    assert!(k >= 1, "k must be at least 1");
    assert!(
        k <= points.len(),
        "cannot choose {k} seeds from {} objects",
        points.len()
    );
    let dim = points[0].len();
    // Centre of mass.
    let mut com = vec![0.0; dim];
    for p in points {
        assert_eq!(p.len(), dim, "dimension mismatch");
        for (c, x) in com.iter_mut().zip(p) {
            *c += x;
        }
    }
    let n = points.len() as f64;
    let com: Vec<f64> = com.iter().map(|c| c * (1.0 / n)).collect();
    // First seed: closest to centre of mass (lowest index on ties).
    let mut best = 0usize;
    let mut best_d = f64::INFINITY;
    for (i, p) in points.iter().enumerate() {
        let d = dist(p, &com);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    let mut seeds = vec![best];
    let mut min_dist: Vec<f64> = points.iter().map(|p| dist(p, &points[best])).collect();
    while seeds.len() < k {
        let mut far = usize::MAX;
        let mut far_d = f64::NEG_INFINITY;
        for (i, &d) in min_dist.iter().enumerate() {
            if !seeds.contains(&i) && d > far_d {
                far_d = d;
                far = i;
            }
        }
        seeds.push(far);
        for (m, p) in min_dist.iter_mut().zip(points) {
            let d = dist(p, &points[far]);
            if d < *m {
                *m = d;
            }
        }
    }
    seeds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|i| vec![i as f64]).collect()
    }

    #[test]
    fn farthest_first_spreads_seeds() {
        let pts = line(10);
        let seeds = farthest_first(&pts, 2);
        // First seed near the centre; second at one extreme.
        assert!(seeds[0] == 4 || seeds[0] == 5);
        assert!(seeds[1] == 0 || seeds[1] == 9);
    }

    #[test]
    fn farthest_first_is_deterministic() {
        let pts = line(20);
        let a = farthest_first(&pts, 4);
        let b = farthest_first(&pts, 4);
        assert_eq!(a, b);
    }

    #[test]
    fn farthest_first_distinct_seeds() {
        let pts = line(7);
        let seeds = farthest_first(&pts, 7);
        let mut sorted = seeds.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 7);
    }

    #[test]
    #[should_panic(expected = "cannot choose")]
    fn farthest_first_rejects_large_k() {
        farthest_first(&line(2), 3);
    }
}
