//! Order statistics over timing samples.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Median, or 0 for a layer that recorded nothing on this workload.
pub fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// The `p`-th percentile (nearest rank) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of p50/p90/p99/p99.9 that still has at least ten samples
/// beyond it — a tail read off fewer samples is one outlier, not a
/// percentile.
pub fn tail_percentile(n_samples: usize) -> f64 {
    // (percentile, per-mille of the samples beyond it)
    [(99.9, 1), (99.0, 10), (90.0, 100)]
        .into_iter()
        .find(|&(_, beyond)| n_samples * beyond >= 10_000)
        .map_or(50.0, |(p, _)| p)
}

/// How many consecutive windows (of equally many replies) the serve
/// workloads cut a timed phase into; the pipelines' windows are their
/// round-robin cycles.
pub const WINDOWS: usize = 5;

/// A consecutive slice of a timed phase: its ops' latencies (ms) and
/// how long it lasted.
#[derive(Debug, Clone, Default)]
pub struct Window {
    pub latencies: Vec<f64>,
    pub seconds: f64,
}

/// The quietest window's median latency and the fastest window's rate.
///
/// The sizing host's noise comes in episodes of seconds to tens of
/// seconds (identical work: 5 s medians within 1 % of each other for
/// two minutes, then 1.1–1.3× for the next ten seconds), which a
/// whole-run median absorbs into the number and a window does not. A
/// change to the program moves every window, so it moves the best one.
pub fn best_window(windows: &[Window]) -> (f64, f64) {
    let live = || windows.iter().filter(|w| !w.latencies.is_empty());
    let latency = live()
        .map(|w| median(&w.latencies))
        .fold(f64::INFINITY, f64::min);
    let rate = live()
        .map(|w| w.latencies.len() as f64 / w.seconds)
        .fold(0.0, f64::max);
    assert!(latency.is_finite() && rate > 0.0, "no window saw an op");
    (latency, rate)
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// (exclusive method) gives them — the driver's spread is
/// `(q3 - q1) / median`.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    (q3 - q1) / median(xs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(9), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(999), 90.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn best_window_skips_the_noisy_episode() {
        let quiet = Window {
            latencies: vec![1.0, 1.1, 0.9],
            seconds: 3.0,
        };
        let noisy = Window {
            latencies: vec![2.0, 1.0],
            seconds: 3.0,
        };
        let (latency, rate) = best_window(&[noisy, Window::default(), quiet]);
        assert_eq!(latency, 1.0);
        assert_eq!(rate, 1.0);
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&xs);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let (q1, q3) = quartiles(&[1.0, 2.0, 4.0]);
        assert_eq!((q1, q3), (1.0, 4.0));
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }
}
