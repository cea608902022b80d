//! Order statistics over small samples of timings.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between the two nearest order statistics (`q = 0` is the minimum,
/// `q = 1` the maximum). Panics on an empty sample or a NaN.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in a timing sample"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The smallest value.
pub fn min(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// `min / p10 / p50 / p90` on one line, for the stderr summaries.
pub fn summary(values: &[f64]) -> String {
    format!(
        "min {:.6} p10 {:.6} p50 {:.6} p90 {:.6} (n = {})",
        min(values),
        quantile(values, 0.1),
        median(values),
        quantile(values, 0.9),
        values.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_of_known_vectors() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(min(&v), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        // Interpolated between order statistics 1 and 2 of [1, 2, 3, 4].
        assert_eq!(median(&[4.0, 2.0, 1.0, 3.0]), 2.5);
        assert!((quantile(&[10.0, 20.0], 0.1) - 11.0).abs() < 1e-12);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(quantile(&[7.5], 0.9), 7.5);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn empty_sample_is_refused() {
        median(&[]);
    }
}
