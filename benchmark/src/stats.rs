//! Order statistics and the reducers the benchmark reports with.

/// Nearest-rank percentile (`p` in `(0, 100]`) of `samples`; reorders the
/// slice. Nearest-rank returns a value that was actually observed, so a
/// p99 is never an interpolation between a typical and an outlier sample.
///
/// # Panics
/// Panics on an empty slice: every caller reports its sample count and a
/// percentile of nothing is a harness bug.
pub fn percentile(samples: &mut [u64], p: f64) -> u64 {
    assert!(!samples.is_empty(), "percentile of an empty sample set");
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    let idx = rank.clamp(1, samples.len()) - 1;
    *samples.select_nth_unstable(idx).1
}

/// Median of a small set of per-episode values — the reducer
/// that keeps one noisy episode from moving the reported figure. Even counts
/// average the two middle values.
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 50.0), 50);
        assert_eq!(percentile(&mut v, 99.0), 99);
        assert_eq!(percentile(&mut v, 100.0), 100);
        assert_eq!(percentile(&mut v, 0.5), 1);
        let mut one = vec![7];
        assert_eq!(percentile(&mut one, 99.0), 7);
        // 10 samples: p99 is the maximum (rank ceil(9.9) = 10).
        let mut ten: Vec<u64> = (10..20).collect();
        assert_eq!(percentile(&mut ten, 99.0), 19);
        assert_eq!(percentile(&mut ten, 50.0), 14);
    }

    #[test]
    fn median_ignores_one_wild_episode() {
        assert_eq!(median(&[2.8, 2.7, 9.9]), 2.8);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
