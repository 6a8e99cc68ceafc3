//! Percentiles and the tail rule every timing in the benchmark is
//! reported by: a median, plus the highest percentile that still has at
//! least ten samples beyond it, plus the sample count.

/// The percentiles a tail may be reported at, ascending.
pub const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A tail needs this many samples beyond it to be worth reporting.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice (`p` in 0..=100).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p)]
}

/// Zero-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = (p / 100.0 * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// The highest ladder percentile with at least [`MIN_BEYOND`] samples
/// strictly beyond its rank; the median when even that has fewer.
pub fn tail_percentile(n: usize) -> f64 {
    LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND)
        .unwrap_or(LADDER[0])
}

/// A timing as the benchmark reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    /// Which percentile `tail` is (from [`LADDER`]).
    pub tail_p: f64,
    pub tail: f64,
}

impl Summary {
    /// Summarise samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let tail_p = tail_percentile(sorted.len());
        Some(Summary {
            n: sorted.len(),
            p50: percentile(&sorted, 50.0),
            tail_p,
            tail: percentile(&sorted, tail_p),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 10 samples: nothing has ten beyond it, so the median stands in.
        assert_eq!(tail_percentile(10), 50.0);
        // 21 samples: p50 is rank 10 (0-based), ten samples lie beyond.
        assert_eq!(tail_percentile(21), 50.0);
        // 44 samples: p75 is rank 32, eleven beyond; p90 has only four.
        assert_eq!(tail_percentile(44), 75.0);
        assert_eq!(tail_percentile(110), 90.0);
        assert_eq!(tail_percentile(220), 95.0);
        // p99 of 1000 is rank 989: exactly ten beyond.
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(11_000), 99.9);
        assert_eq!(tail_percentile(0), 50.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.9), 7.0);
    }

    #[test]
    fn summary_reports_count_median_and_tail() {
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = Summary::of(&v).unwrap();
        assert_eq!((s.n, s.p50, s.tail_p, s.tail), (1000, 500.0, 99.0, 990.0));
        assert_eq!(Summary::of(&[]), None);
    }
}
