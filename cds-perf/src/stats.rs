//! Order statistics over timing samples.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method) because that is what the benchmark driver
//! computes over our reported values; using the same definition keeps
//! `compare`'s spread verdicts aligned with the driver's.

/// Sorts a copy; NaN never occurs in our samples (wall-clock deltas and
/// parsed finite JSON numbers), so `total_cmp` is a plain numeric sort.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample.
///
/// # Panics
///
/// Panics on an empty sample: every caller measures at least one op.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile (`statistics.quantiles(v, n=4)[0]` and
/// `[2]`). A single sample is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // exclusive method: position k·(n+1)/4, 1-based, clamped
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the driver's spread.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// Fewest samples that must lie beyond a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `pct`-th percentile (nearest rank), refused — `None` — unless at
/// least [`TAIL_SAMPLES`] samples lie strictly beyond its rank: a tail
/// read off fewer samples does not repeat between runs on a shared box.
pub fn percentile(values: &[f64], pct: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || rank + TAIL_SAMPLES > n {
        return None;
    }
    Some(sorted(values)[rank - 1])
}

/// The highest of p99 / p95 / p90 / p75 that [`percentile`] admits,
/// with the percentile it is; `(50.0, median)` when the sample is too
/// small for any tail.
pub fn tail(values: &[f64]) -> (f64, f64) {
    for pct in [99.0, 95.0, 90.0, 75.0] {
        if let Some(v) = percentile(values, pct) {
            return (pct, v);
        }
    }
    (50.0, median(values))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_refuses_thin_tails() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p95 of 100 samples leaves 5 beyond: refused
        assert_eq!(percentile(&v, 95.0), None);
        // p90 leaves exactly 10 beyond: admitted
        assert_eq!(percentile(&v, 90.0), Some(90.0));
        assert_eq!(tail(&v), (90.0, 90.0));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 99.0), Some(990.0));
        assert_eq!(percentile(&big, 99.5), None);
        // too small for any tail: falls back to the median, labelled 50
        assert_eq!(tail(&[4.0, 2.0, 6.0]), (50.0, 4.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
