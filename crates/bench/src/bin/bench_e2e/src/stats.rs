//! Order statistics for the benchmark's reports.
//!
//! Latency tails use the nearest-rank percentile and refuse to report a
//! percentile that fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond.
//! Run-to-run spread uses the quartiles Python's
//! `statistics.quantiles(values, n=4)` computes (its default "exclusive"
//! method), so `--runs N` flags exactly what an external check on the same
//! values would.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100]`) of `sorted` (ascending,
/// non-empty): the smallest sample with at least `p` % of the samples at or
/// below it.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // `p * n` first: for integral p it is exact, so the ceiling cannot be
    // bumped by a rounding error in `p / 100`.
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` of `sorted`, or an error when fewer than
/// [`MIN_TAIL_SAMPLES`] samples lie beyond it (a p99 needs 1000 samples).
pub fn tail(sorted: &[f64], p: f64) -> Result<f64, String> {
    let beyond = sorted.len() - rank(sorted.len().max(1), p).min(sorted.len());
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "p{p} of {} samples has {beyond} beyond it; at least {MIN_TAIL_SAMPLES} are needed",
            sorted.len()
        ));
    }
    Ok(nearest_rank(sorted, p))
}

/// Sorts `values` ascending (they must be comparable: no NaN).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    values
}

/// Median (mean of the two middle values for an even count).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of no samples");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First and third quartiles as `statistics.quantiles(data, n=4)` gives
/// them (exclusive method; needs at least two values).
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    assert!(sorted.len() >= 2, "quartiles need at least two values");
    let ld = sorted.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The summary `--runs N` prints for one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// Median over the runs.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// `(q3 - q1) / median` (0 when the median is 0 and the quartiles agree).
    pub rel_iqr: f64,
}

impl Spread {
    /// Summarizes the values of one metric over several runs.
    pub fn of(values: Vec<f64>) -> Spread {
        let s = sorted(values);
        let median = median(&s);
        let (q1, q3) = if s.len() >= 2 {
            quartiles(&s)
        } else {
            (s[0], s[0])
        };
        let rel_iqr = if q3 == q1 {
            0.0
        } else {
            (q3 - q1) / median.abs()
        };
        Spread {
            median,
            q1,
            q3,
            rel_iqr,
        }
    }

    /// True when the spread exceeds a regression bound (a share of the
    /// median).
    pub fn exceeds(&self, bound: f64) -> bool {
        self.rel_iqr > bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v = ramp(10);
        assert_eq!(nearest_rank(&v, 50.0), 5.0);
        assert_eq!(nearest_rank(&v, 51.0), 6.0);
        assert_eq!(nearest_rank(&v, 100.0), 10.0);
        assert_eq!(nearest_rank(&v, 0.1), 1.0);
        let v = ramp(1000);
        assert_eq!(nearest_rank(&v, 99.0), 990.0);
        assert_eq!(nearest_rank(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_refuses_a_thin_p99() {
        assert!(tail(&ramp(999), 99.0).is_err());
        assert_eq!(tail(&ramp(1000), 99.0), Ok(990.0));
        assert_eq!(tail(&ramp(20), 50.0), Ok(10.0));
        assert!(tail(&ramp(19), 50.0).is_err());
        assert!(tail(&[], 50.0).is_err());
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v = ramp(10);
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1..5], n=4) == [1.5, 3.0, 4.5]
        let v = ramp(5);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quartiles(&v), (1.5, 4.5));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]: the cut
        // points extrapolate past the ends for tiny samples.
        assert_eq!(quartiles(&sorted(vec![3.0, 1.0])), (0.5, 3.5));
    }

    #[test]
    fn spread_flags_only_what_exceeds_the_bound() {
        let tight = Spread::of(vec![100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(tight.median, 100.0);
        assert!((tight.rel_iqr - 0.015).abs() < 1e-12, "{tight:?}");
        assert!(!tight.exceeds(0.05));
        let loose = Spread::of(vec![100.0, 140.0, 60.0, 120.0, 80.0]);
        assert!(loose.exceeds(0.10), "{loose:?}");
        let flat = Spread::of(vec![0.0; 5]);
        assert_eq!(flat.rel_iqr, 0.0);
        assert!(!flat.exceeds(0.0));
    }
}
