//! Order statistics for stretch, slice and latency samples.
//!
//! No reported value is a single shot: an end-to-end value is read at
//! the edge of the best twentieth of a run's stretches, a per-layer one
//! is a median over slices or repetitions (README, "Why stretches").

/// Sorted copy of `xs` (NaN-free inputs only; the harness never
/// produces NaN because every divisor is a positive count or duration).
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Linear-interpolated percentile `p` in `[0, 1]` of a sorted slice
/// (the "inclusive" definition: p=0 is the minimum, p=1 the maximum).
fn percentile_sorted(v: &[f64], p: f64) -> f64 {
    match v.len() {
        0 => 0.0,
        1 => v[0],
        n => {
            let rank = p.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = rank.floor() as usize;
            let hi = rank.ceil() as usize;
            v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
        }
    }
}

/// Percentile `p` in `[0, 1]` of `xs`; 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(xs), p)
}

/// Several percentiles of one sample with a single sort.
pub fn percentiles<const N: usize>(xs: &[f64], ps: [f64; N]) -> [f64; N] {
    let v = sorted(xs);
    ps.map(|p| percentile_sorted(&v, p))
}

/// Median of `xs`; 0 for an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 0.5)
}

/// Interquartile range of `xs` as a share of its median — the spread
/// the benchmark contract bounds. Quartiles follow Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method), because
/// that is what the driver computes.
pub fn iqr_share(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return 0.0;
    }
    let q = |k: usize| {
        // Exclusive method: position k(n+1)/4, 1-based, clamped.
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    let med = percentile_sorted(&v, 0.5);
    if med == 0.0 {
        0.0
    } else {
        (q(3) - q(1)) / med
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_vectors() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 5.0);
        assert_eq!(percentile(&xs, 0.25), 2.0);
        // Interpolated: rank 0.9 * 4 = 3.6 -> between 4 and 5.
        assert!((percentile(&xs, 0.9) - 4.6).abs() < 1e-12);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(percentiles(&xs, [0.5, 1.0]), [3.0, 5.0]);
    }

    #[test]
    fn empty_and_singleton_samples() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(iqr_share(&[7.0]), 0.0);
        assert_eq!(iqr_share(&[]), 0.0);
    }

    #[test]
    fn iqr_matches_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&xs) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([10, 12, 11, 13, 40], n=4) == [10.5, 12.0, 26.5]
        let ys = [10.0, 12.0, 11.0, 13.0, 40.0];
        assert!((iqr_share(&ys) - (26.5 - 10.5) / 12.0).abs() < 1e-12);
    }
}
