//! Medians, quartiles, percentiles and the log-log fit.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (exclusive method), because that is what judges this benchmark's
//! steadiness: the spread of a metric is `(q3 - q1) / median`.

/// `n`, median and quartiles of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarises `values`; `None` when empty. With a single sample the
    /// quartiles collapse onto it.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let (q1, median, q3) = quartiles_sorted(&sorted);
        Some(Summary {
            n: sorted.len(),
            q1,
            median,
            q3,
        })
    }

    /// Inter-quartile distance as a share of the median (0 when the
    /// median is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles of sorted data, `statistics.quantiles(data, n=4)` style.
fn quartiles_sorted(sorted: &[f64]) -> (f64, f64, f64) {
    let ld = sorted.len();
    if ld == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| -> f64 {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of unsorted values (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(0.0, |s| s.median)
}

/// Samples a percentile needs before it is published: at least ten
/// samples must lie beyond it.
pub fn samples_needed(percentile: f64) -> usize {
    (10.0 / (1.0 - percentile / 100.0)).ceil() as usize
}

/// Nearest-rank percentile of sorted samples (`0 < percentile <= 100`).
pub fn percentile_sorted(sorted: &[u32], percentile: f64) -> Option<u32> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((percentile / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Least-squares slope of `y` against `x`.
fn slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    let sx: f64 = points.iter().map(|p| p.0).sum();
    let sy: f64 = points.iter().map(|p| p.1).sum();
    let sxx: f64 = points.iter().map(|p| p.0 * p.0).sum();
    let sxy: f64 = points.iter().map(|p| p.0 * p.1).sum();
    let denom = n * sxx - sx * sx;
    if denom == 0.0 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    }
}

/// The exponent `k` of a power-law fit `y = c·x^k` (slope of log-log);
/// ≈ 1 is the linear scaling Theorem 5.11 claims. 0 with fewer than two
/// usable points.
pub fn power_law_exponent(points: &[(f64, f64)]) -> f64 {
    let logs: Vec<(f64, f64)> = points
        .iter()
        .filter(|(x, y)| *x > 0.0 && *y > 0.0)
        .map(|&(x, y)| (x.ln(), y.ln()))
        .collect();
    if logs.len() < 2 {
        0.0
    } else {
        slope(&logs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let s = Summary::of(&[10.0, 1.0, 9.0, 2.0, 8.0, 3.0, 7.0, 4.0, 6.0, 5.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.n, 10);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles([2,4,4,5,7,9,11], n=4) == [4.0, 5.0, 9.0]
        let s = Summary::of(&[2.0, 4.0, 4.0, 5.0, 7.0, 9.0, 11.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (4.0, 5.0, 9.0));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let s = Summary::of(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(s.spread(), 1.0);
        let flat = Summary::of(&[5.0; 9]).unwrap();
        assert_eq!(flat.spread(), 0.0);
        assert!(Summary::of(&[]).is_none());
        assert_eq!(Summary::of(&[4.0]).unwrap().median, 4.0);
    }

    #[test]
    fn percentile_is_nearest_rank_and_needs_ten_beyond() {
        let sorted: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile_sorted(&sorted, 99.0), Some(990));
        assert_eq!(percentile_sorted(&sorted, 50.0), Some(500));
        assert_eq!(percentile_sorted(&sorted, 100.0), Some(1000));
        assert_eq!(percentile_sorted(&[], 99.0), None);
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(samples_needed(50.0), 20);
    }

    #[test]
    fn power_law_recovers_exponent() {
        let pts: Vec<(f64, f64)> = (1..10)
            .map(|i| (f64::from(i), f64::from(i * i) * 7.0))
            .collect();
        assert!((power_law_exponent(&pts) - 2.0).abs() < 1e-9);
        assert_eq!(power_law_exponent(&[(1.0, 1.0)]), 0.0);
    }
}
