//! Summary statistics.

/// Summary of a set of observations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Observation count.
    pub n: usize,
    /// Mean.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (p50).
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Computes a summary; returns `None` for empty input.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in metrics"));
        let n = v.len();
        let pct = |p: f64| -> f64 {
            let idx = ((n as f64 - 1.0) * p).round() as usize;
            v[idx.min(n - 1)]
        };
        Some(Summary {
            n,
            mean: v.iter().sum::<f64>() / n as f64,
            min: v[0],
            max: v[n - 1],
            p50: pct(0.50),
            p90: pct(0.90),
            p99: pct(0.99),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let v: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!(s.n, 100);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 100.0);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert!((s.p50 - 50.0).abs() <= 1.0);
        assert!((s.p90 - 90.0).abs() <= 1.0);
        assert!((s.p99 - 99.0).abs() <= 1.0);
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = Summary::of(&[7.0]).unwrap();
        assert_eq!((s.min, s.max, s.p50, s.p99), (7.0, 7.0, 7.0, 7.0));
    }
}
