//! Order statistics over round samples.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(data,
//! n=4)` (the default "exclusive" method), so a spread computed here
//! matches one computed from the printed samples.

/// Sample count, median, quartiles and range of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub p25: f64,
    /// Third quartile.
    pub p75: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarizes `samples`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty or holds a NaN.
    #[must_use]
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "a summary needs at least one sample");
        let mut s = samples.to_vec();
        s.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let (p25, p75) = quartiles(&s);
        Summary { n: s.len(), median: median(&s), p25, p75, min: s[0], max: s[s.len() - 1] }
    }
}

/// Median of an ascending slice.
fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles of an ascending slice, by Python's exclusive
/// method: position `i·(n+1)/4` (1-based) with linear interpolation,
/// clamped to the first and last pair. One sample is its own quartiles.
fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let q = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// `a / b`, or 0 when `b` is 0 (a counter family the engine never
/// published).
#[must_use]
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
