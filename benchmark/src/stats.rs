//! Statistics shared by the benchmark and its summary tool: medians,
//! the quartiles the run-to-run comparison uses, the tail-percentile
//! rule, and failures counted against attempts.

/// Median of `values` (mean of the two middle values for even counts);
/// `None` when empty. NaNs are not expected and sort last.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First, second and third quartile of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so the spreads printed here match the ones a
/// run-to-run comparison in Python computes. `None` below two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread a metric's bound is compared with.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// The percentiles a tail may be reported at, highest first. The ladder
/// stops at p99: deeper percentiles of a sub-millisecond hot path read
/// the host's scheduling hiccups, not the service.
pub const TAIL_LADDER: [f64; 5] = [99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the highest ladder percentile with at least
/// [`TAIL_MIN_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported (e.g. 95.0).
    pub percentile: f64,
    /// The nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the reported rank.
    pub beyond: usize,
    /// Total samples.
    pub samples: usize,
}

/// Nearest-rank 1-based rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Picks the tail of `values` by the ladder rule; `None` when even the
/// median has fewer than [`TAIL_MIN_BEYOND`] samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    TAIL_LADDER.iter().find_map(|&p| {
        if n == 0 {
            return None;
        }
        let r = rank(p, n);
        let beyond = n - r;
        (beyond >= TAIL_MIN_BEYOND).then(|| Tail {
            percentile: p,
            value: sorted[r - 1],
            beyond,
            samples: n,
        })
    })
}

/// Requests attempted and failed; a failure is a transport error, a
/// non-200 response, a timeout or a failed correctness check, and each
/// attempt counts at most once however many of those it hit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Attempts {
    /// Requests sent (or checks made).
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
}

impl Attempts {
    /// Records one attempt and whether it failed.
    pub fn record(&mut self, failed: bool) {
        self.attempted += 1;
        self.failed += u64::from(failed);
    }

    /// Failed share of attempts (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([5, 1, 9, 3, 7], n=4) == [2.0, 5.0, 8.0]
        assert_eq!(quartiles(&[5.0, 1.0, 9.0, 3.0, 7.0]), Some([2.0, 5.0, 8.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = relative_spread(&ten).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 19 samples: even the median has only 9 beyond it.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(tail(&few), None);

        // 20 samples: p50 at rank 10 leaves exactly 10 beyond.
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        let t = tail(&twenty).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (50.0, 10.0, 10, 20)
        );

        // 1000 samples: p99 (rank 990) leaves 10.
        let thousand: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let t = tail(&thousand).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));

        // 999 samples: p99 would leave 9, so the rule falls to p95.
        let t = tail(&thousand[..999]).unwrap();
        assert_eq!(t.percentile, 95.0);
        assert!(t.beyond >= TAIL_MIN_BEYOND);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut a = Attempts::default();
        assert_eq!(a.failed_frac(), 0.0);
        for failed in [false, true, false, false] {
            a.record(failed);
        }
        a.record(true);
        assert_eq!((a.attempted, a.failed), (5, 2));
        assert!((a.failed_frac() - 0.4).abs() < 1e-12);
    }
}
