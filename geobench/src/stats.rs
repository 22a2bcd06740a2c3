//! Order statistics over samples in which a failed operation counts as an
//! infinitely slow one.

/// A latency sample: `None` is a failed or refused operation, which misses
/// every latency limit and so sorts after every finite sample.
pub type Sample = Option<f64>;

/// The `p`-th percentile (`0 < p <= 100`) by the nearest-rank rule, with
/// failures counted as `+∞`. Returns `None` for an empty sample set.
///
/// Nearest rank picks an observed value rather than interpolating, so a
/// percentile that falls on a failure is `+∞`, not a finite blend.
pub fn percentile(samples: &[Sample], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.iter().map(|s| s.unwrap_or(f64::INFINITY)).collect();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (mean of the two middle values for an even count; `+∞` sorts
/// last). Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Arithmetic mean. Returns `None` for an empty slice.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<Sample> = (1..=100).map(|v| Some(v as f64)).collect();
        assert_eq!(percentile(&s, 50.0), Some(50.0));
        assert_eq!(percentile(&s, 99.0), Some(99.0));
        assert_eq!(percentile(&s, 100.0), Some(100.0));
        assert_eq!(percentile(&[Some(7.0)], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_count_as_infinite_latency() {
        // 98 fast requests and 2 failures: p99 lands on a failure.
        let mut s: Vec<Sample> = (0..98).map(|v| Some(1.0 + v as f64 / 100.0)).collect();
        s.extend([None, None]);
        assert_eq!(percentile(&s, 99.0), Some(f64::INFINITY));
        assert!(percentile(&s, 50.0).is_some_and(f64::is_finite));
        // Failures sort after every finite value wherever they appear.
        let s = vec![None, Some(3.0), Some(1.0), Some(2.0)];
        assert_eq!(percentile(&s, 75.0), Some(3.0));
        assert_eq!(percentile(&s, 76.0), Some(f64::INFINITY));
        // A run that failed everything has an infinite median.
        assert_eq!(percentile(&[None, None], 50.0), Some(f64::INFINITY));
    }

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }
}
