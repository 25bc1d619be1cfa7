//! Order statistics for the reported timings.

/// Samples a tail percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The highest whole percentile a `.tail` metric can report.
pub const MAX_TAIL: u32 = 99;

/// Linear-interpolated percentile `p` (0..=100) of `values`; 0 for none.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `values`; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The whole percentile a `.tail` metric reports for `n` samples: the
/// highest one with at least [`MIN_BEYOND`] samples
/// beyond it, where `p` leaves `floor(n * (100 - p) / 100)` samples beyond.
/// `None` when that percentile would not even reach the median.
pub fn tail_percentile(n: usize) -> Option<u32> {
    (50..=MAX_TAIL).rev().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Samples beyond percentile `p` of `n`.
pub fn beyond(n: usize, p: u32) -> usize {
    n * (100 - p as usize) / 100
}

/// A `.tail` value: the tail percentile of `values`, or their maximum when
/// there are too few samples for one.  Returns the value and a label for
/// the human-readable report.
pub fn tail(values: &[f64]) -> (f64, String) {
    let n = values.len();
    match tail_percentile(n) {
        Some(p) => (
            percentile(values, p as f64),
            format!("p{p} of {n} samples ({} beyond)", beyond(n, p)),
        ),
        None => (
            values.iter().copied().fold(0.0, f64::max),
            format!("max of {n} samples (too few for a tail percentile)"),
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(94));
        assert_eq!(tail_percentile(200), Some(95));
        assert_eq!(tail_percentile(25), Some(60));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(100_000), Some(MAX_TAIL));
        for n in 20..5000 {
            let p = tail_percentile(n).expect("twenty samples reach the median");
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            if p < MAX_TAIL {
                assert!(
                    beyond(n, p + 1) < MIN_BEYOND,
                    "n={n}: p{} also qualifies",
                    p + 1
                );
            }
        }
    }

    #[test]
    fn too_few_samples_have_no_tail_percentile() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
        let (value, label) = tail(&[3.0, 1.0, 2.0]);
        assert_eq!(value, 3.0);
        assert!(label.starts_with("max of 3"), "{label}");
    }

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&v), 50.5);
        assert!((percentile(&v, 90.0) - 90.1).abs() < 1e-9);
        let (value, label) = tail(&v);
        assert!((value - 90.1).abs() < 1e-9);
        assert_eq!(label, "p90 of 100 samples (10 beyond)");
        assert_eq!(median(&[]), 0.0);
    }
}
