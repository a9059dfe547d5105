//! Evaluation metrics: empirical CDFs and unit helpers.
//!
//! The paper reports gaps as MB/hr, ratios as percentages, and most
//! figures as CDFs over repeated experiment rounds.

/// An empirical distribution over f64 samples.
#[derive(Clone, Debug, Default)]
pub struct Cdf {
    samples: Vec<f64>,
    sorted: bool,
}

impl Cdf {
    /// Empty distribution.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sample.
    pub fn push(&mut self, v: f64) {
        assert!(v.is_finite(), "CDF samples must be finite");
        self.samples.push(v);
        self.sorted = false;
    }

    fn sort(&mut self) {
        if !self.sorted {
            // total_cmp is total over all f64 (NaN included), so a
            // sample that slipped past the push-time finiteness assert
            // can never abort a sort deep inside a protocol call chain.
            self.samples.sort_by(|a, b| a.total_cmp(b));
            self.sorted = true;
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples were added.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sample mean (0 for empty).
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// The `p`-quantile (0 ≤ p ≤ 1) by nearest-rank; 0 for empty.
    pub fn quantile(&mut self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p));
        self.sort();
        if self.samples.is_empty() {
            return 0.0;
        }
        let idx = ((p * self.samples.len() as f64).ceil() as usize)
            .saturating_sub(1)
            .min(self.samples.len() - 1);
        self.samples[idx]
    }

    /// Minimum sample (0 for empty).
    pub fn min(&mut self) -> f64 {
        self.sort();
        self.samples.first().copied().unwrap_or(0.0)
    }

    /// Maximum sample (0 for empty).
    pub fn max(&mut self) -> f64 {
        self.sort();
        self.samples.last().copied().unwrap_or(0.0)
    }

    /// `(value, cumulative fraction)` points for plotting, at each sample.
    pub fn points(&mut self) -> Vec<(f64, f64)> {
        self.sort();
        let n = self.samples.len();
        self.samples
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }
}

/// Bytes over a duration, expressed as the paper's MB/hr.
pub fn bytes_to_mb_per_hr(bytes: u64, duration_secs: f64) -> f64 {
    assert!(duration_secs > 0.0);
    bytes as f64 / 1e6 / (duration_secs / 3600.0)
}

/// Bytes to plain MB.
pub fn bytes_to_mb(bytes: u64) -> f64 {
    bytes as f64 / 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_distribution() {
        let mut c = Cdf::new();
        for i in 1..=100 {
            c.push(i as f64);
        }
        assert_eq!(c.quantile(0.5), 50.0);
        assert_eq!(c.quantile(0.95), 95.0);
        assert_eq!(c.quantile(1.0), 100.0);
        assert_eq!(c.quantile(0.0), 1.0);
        assert_eq!(c.min(), 1.0);
        assert_eq!(c.max(), 100.0);
        assert_eq!(c.mean(), 50.5);
    }

    #[test]
    fn push_then_query() {
        let mut c = Cdf::new();
        for v in [3.0, 1.0, 2.0] {
            c.push(v);
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.quantile(0.5), 2.0);
        let pts = c.points();
        assert_eq!(pts[0], (1.0, 1.0 / 3.0));
        assert_eq!(pts[2], (3.0, 1.0));
    }

    #[test]
    fn empty_cdf_is_safe() {
        let mut c = Cdf::new();
        assert!(c.is_empty());
        assert_eq!(c.mean(), 0.0);
        assert_eq!(c.quantile(0.5), 0.0);
        assert!(c.points().is_empty());
    }

    #[test]
    #[should_panic]
    fn non_finite_rejected() {
        Cdf::new().push(f64::NAN);
    }

    #[test]
    fn unit_conversions() {
        // 100 MB over 30 minutes = 200 MB/hr.
        assert!((bytes_to_mb_per_hr(100_000_000, 1800.0) - 200.0).abs() < 1e-9);
        assert_eq!(bytes_to_mb(2_500_000), 2.5);
    }
}
