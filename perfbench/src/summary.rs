//! Median and quartiles of a sample set.
//!
//! Cut points use the "exclusive" method of Python's
//! `statistics.quantiles(values, n=...)`, so a run record's spread
//! reads the same as one computed from the recorded samples with
//! Python.

/// Median, quartiles and size of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`. With fewer than two samples every statistic
    /// is the single value (or 0 for no samples).
    pub fn of(values: &[f64]) -> Summary {
        let q = quantiles(values, 4);
        Summary {
            n: values.len(),
            q1: q[0],
            median: q[1],
            q3: q[2],
        }
    }
}

/// Median of `values` (0 for none).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).median
}

/// The `n - 1` cut points dividing `values` into `n` groups of equal
/// probability, by the exclusive method. With fewer than two samples
/// every cut point is the single value (or 0 for none).
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let len = v.len();
    if len < 2 {
        return vec![v.first().copied().unwrap_or(0.0); n - 1];
    }
    let m = len + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
        })
        .collect()
}
