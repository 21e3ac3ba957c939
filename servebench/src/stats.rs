//! Order statistics used by every report: interpolated percentiles and
//! Python-compatible quartiles.

/// Sorts a copy of `values` (NaN-safe total order).
#[must_use]
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, linearly
/// interpolated between closest ranks; NaN when empty.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => f64::NAN,
        1 => sorted[0],
        n => {
            #[allow(clippy::cast_precision_loss)]
            let rank = q.clamp(0.0, 1.0) * (n - 1) as f64;
            #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
            let lo = rank.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            #[allow(clippy::cast_precision_loss)]
            let frac = rank - lo as f64;
            sorted[lo] + (sorted[hi] - sorted[lo]) * frac
        }
    }
}

/// Median of unsorted values; NaN when empty.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.iter().copied()), 0.5)
}

/// `(q1, median, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method) and `statistics.median` give
/// them, so spreads printed here match what a reviewer recomputes.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.iter().copied());
    let len = data.len();
    if len < 2 {
        let v = data.first().copied().unwrap_or(f64::NAN);
        return (v, v, v);
    }
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        #[allow(clippy::cast_precision_loss)]
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), median(&data), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn percentile_interpolates() {
        let v = [0.0, 10.0];
        assert!((percentile(&v, 0.9) - 9.0).abs() < 1e-12);
        assert!(percentile(&[], 0.5).is_nan());
    }
}
