//! Aggregation math: medians, nearest-rank percentiles under the
//! ten-samples-beyond rule, and small helpers shared by the workloads.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Median (mean of the two middle values for an even count); `NaN` when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// 1-based nearest rank of percentile `q` (in `0..=1`) among `n` samples,
/// lowered until at least [`MIN_BEYOND`] samples lie beyond it.  `None`
/// when `n` is too small for any rank to have that many beyond.
pub fn tail_rank(n: usize, q: f64) -> Option<usize> {
    if n <= MIN_BEYOND {
        return None;
    }
    let nearest = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(nearest.min(n - MIN_BEYOND))
}

/// The sample at [`tail_rank`], with the percentile it really is
/// (`rank / n`).  A request for p99 over 300 samples reports the 290th
/// value, i.e. p96.7.
pub fn tail_percentile(values: &[f64], q: f64) -> Option<(f64, f64)> {
    let rank = tail_rank(values.len(), q)?;
    let sorted = sorted(values);
    Some((sorted[rank - 1], rank as f64 / values.len() as f64))
}

/// Mean of the middle half of the values (the quarter at each end dropped,
/// rounded down); `NaN` when empty.  Unlike the median it moves smoothly
/// with the share of slow samples, as the host-speed reference's mean does
/// (see `host::Reference`), while one stall cannot move it.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Geometric mean of positive values; `NaN` when empty.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// `a / b`, or 0 when `b` is 0 (a ratio of two empty counts).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The factor by which an estimate misses what was observed, folded so
/// that 1 is exact and an estimate k times too high or too low reads k.
pub fn miss_factor(observed: f64, estimated: f64) -> f64 {
    let (o, e) = (observed.max(1.0), estimated.max(1.0));
    (o / e).max(e / o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn nearest_rank_when_the_tail_is_deep_enough() {
        // 1000 samples: p99 is rank 990, with exactly 10 beyond it.
        assert_eq!(tail_rank(1000, 0.99), Some(990));
        assert_eq!(tail_rank(1000, 0.50), Some(500));
        assert_eq!(tail_rank(100_000, 0.99), Some(99_000));
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&values, 0.99), Some((990.0, 0.99)));
        assert_eq!(tail_percentile(&values, 0.90), Some((900.0, 0.90)));
    }

    #[test]
    fn percentile_is_lowered_until_ten_samples_lie_beyond() {
        // 300 samples: p99 would leave 3 beyond, so rank 290 is reported.
        assert_eq!(tail_rank(300, 0.99), Some(290));
        // 100 samples: p90 keeps exactly 10 beyond; p99 is lowered to p90.
        assert_eq!(tail_rank(100, 0.90), Some(90));
        assert_eq!(tail_rank(100, 0.99), Some(90));
        let values: Vec<f64> = (1..=300).rev().map(f64::from).collect();
        let (value, effective) = tail_percentile(&values, 0.99).unwrap();
        assert_eq!(value, 290.0);
        assert!((effective - 290.0 / 300.0).abs() < 1e-12);
        for n in [11usize, 57, 300, 4096] {
            let rank = tail_rank(n, 0.999).unwrap();
            assert_eq!(n - rank, MIN_BEYOND, "n={n}");
        }
    }

    #[test]
    fn no_percentile_without_enough_samples() {
        assert_eq!(tail_rank(10, 0.5), None);
        assert_eq!(tail_rank(0, 0.5), None);
        assert_eq!(tail_percentile(&[1.0; 5], 0.9), None);
        // Eleven samples: only the minimum has ten beyond it.
        assert_eq!(tail_rank(11, 0.99), Some(1));
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_at_each_end() {
        // Eight values: the two lowest and the two highest are dropped.
        let values = [100.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -100.0];
        assert_eq!(interquartile_mean(&values), 3.5);
        // Up to three values: all of them.
        assert_eq!(interquartile_mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(interquartile_mean(&[7.0]), 7.0);
        assert!(interquartile_mean(&[]).is_nan());
        // Half the samples slow: the median jumps to a mode, the
        // interquartile mean sits between them.
        let mut mixed = vec![1.0; 10];
        mixed.extend([2.0; 10]);
        assert_eq!(interquartile_mean(&mixed), 1.5);
    }

    #[test]
    fn means_ratios_and_miss_factors() {
        assert!((geomean(&[1.0, 4.0, 16.0]) - 4.0).abs() < 1e-12);
        assert!((mean(&[1.0, 2.0, 6.0]) - 3.0).abs() < 1e-12);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(miss_factor(400.0, 100.0), 4.0);
        assert_eq!(miss_factor(100.0, 400.0), 4.0);
        assert_eq!(miss_factor(5.0, 5.0), 1.0);
        assert_eq!(miss_factor(0.0, 0.0), 1.0);
    }
}
