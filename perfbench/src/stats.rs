//! Sample summaries: nearest-rank percentiles under the ten-beyond rule.

/// Samples that must lie strictly beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `p`-th percentile (`0 < p <= 100`) of `samples`, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it. The
/// median is exempt from the rule: it is reported whenever there is at
/// least one sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if p > 50.0 && n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The nearest-rank median of `samples`.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).expect("median of an empty sample")
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_a_sample() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn p90_needs_ten_samples_beyond() {
        // 99 samples: rank ceil(89.1) = 90 leaves 9 beyond, too few.
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), None);
        // 100 samples: rank 90 leaves exactly 10 beyond.
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        // p99 over 100 samples would leave 1 beyond.
        assert_eq!(percentile(&xs, 99.0), None);
        // 1000 samples support p99 (rank 990, 10 beyond).
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), Some(990.0));
    }

    #[test]
    fn order_of_samples_does_not_matter() {
        let mut xs: Vec<f64> = (1..=200).map(f64::from).collect();
        xs.reverse();
        assert_eq!(percentile(&xs, 90.0), Some(180.0));
        assert_eq!(percentile(&[], 50.0), None);
    }
}
