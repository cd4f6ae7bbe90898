//! The benchmark's own arithmetic: percentiles, the open-loop due-time
//! schedule and generator lateness, histogram windows and median-of-runs.

use epim_obs::HistogramSnapshot;
use std::time::{Duration, Instant};

/// Nearest-rank percentile (`p` in `[0, 100]`) of an ascending slice; 0
/// for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `values` ascending (NaN-free input) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("latencies are never NaN"));
    values
}

/// Median of unsorted values; 0 for none.
pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values.to_vec()), 50.0)
}

/// The highest of p99.9, p99, p90 and p50 that has at least ten samples
/// above it in a sample of `n` — the tail a run of that size supports.
pub fn supported_tail(n: usize) -> f64 {
    // Per-mille, so the nearest rank is exact integer arithmetic.
    [999, 990, 900]
        .into_iter()
        .find(|&p| n - (p * n).div_ceil(1000) >= 10)
        .map_or(50.0, |p| p as f64 / 10.0)
}

/// A fixed-rate open-loop schedule: request `k` is due at
/// `epoch + k / rate`, whatever happened to earlier requests.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub epoch: Instant,
    pub interval: Duration,
}

impl Schedule {
    pub fn new(epoch: Instant, rate_per_s: f64) -> Self {
        Schedule {
            epoch,
            interval: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    /// When request `k` is due.
    pub fn due(&self, k: usize) -> Instant {
        self.epoch + self.interval.mul_f64(k as f64)
    }
}

/// How late a send at `sent` ran against its due time (zero when early).
pub fn lateness(due: Instant, sent: Instant) -> Duration {
    sent.saturating_duration_since(due)
}

/// Latency of a reply received at `done` for a request due at `due`: the
/// open-loop figure, which charges a generator stall to every request it
/// delays.
pub fn latency_from_due(due: Instant, done: Instant) -> Duration {
    done.saturating_duration_since(due)
}

/// The samples recorded between two snapshots of one histogram
/// (`after - before`, bucket by bucket). The max is the later
/// snapshot's, which bounds the window's own max from above.
pub fn hist_window(after: &HistogramSnapshot, before: &HistogramSnapshot) -> HistogramSnapshot {
    let buckets = after
        .buckets
        .iter()
        .filter_map(|&(bound, count)| {
            let earlier = before
                .buckets
                .iter()
                .find(|&&(b, _)| b == bound)
                .map_or(0, |&(_, c)| c);
            let c = count - earlier;
            (c > 0).then_some((bound, c))
        })
        .collect();
    HistogramSnapshot {
        count: after.count - before.count,
        sum: after.sum - before.sum,
        max: after.max,
        buckets,
    }
}

/// `(p99, max)` of unsorted values; zeros for none.
pub fn tail(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    (percentile(&s, 99.0), s.last().copied().unwrap_or(0.0))
}

/// Arithmetic mean; 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `|a - b| / |b|`, 0 when both are 0.
pub fn rel_gap(a: f64, b: f64) -> f64 {
    if a == b {
        0.0
    } else {
        (a - b).abs() / b.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        // Ten samples: p50 is the 5th, p99 the 10th.
        let t: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&t, 50.0), 5.0);
        assert_eq!(percentile(&t, 99.0), 10.0);
    }

    #[test]
    fn median_sorts_first_and_mean_averages() {
        assert_eq!(mean(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 3.0));
        assert_eq!(tail(&[]), (0.0, 0.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn supported_tail_keeps_ten_samples_beyond() {
        assert_eq!(supported_tail(10_000), 99.9);
        assert_eq!(supported_tail(9_999), 99.0);
        assert_eq!(supported_tail(1_000), 99.0);
        assert_eq!(supported_tail(999), 90.0);
        assert_eq!(supported_tail(50), 50.0);
    }

    #[test]
    fn due_times_follow_the_rate_not_the_sends() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 500.0);
        assert_eq!(s.interval, Duration::from_millis(2));
        assert_eq!(s.due(0), t0);
        assert_eq!(s.due(1), t0 + Duration::from_millis(2));
        assert_eq!(s.due(500), t0 + Duration::from_secs(1));
    }

    #[test]
    fn latency_counts_from_due_and_lateness_is_never_negative() {
        let t0 = Instant::now();
        let s = Schedule::new(t0, 1000.0);
        let due = s.due(3);
        // Sent 5 ms late, answered 1 ms after the send: the request
        // waited 6 ms from when it was due.
        let sent = due + Duration::from_millis(5);
        let done = sent + Duration::from_millis(1);
        assert_eq!(lateness(due, sent), Duration::from_millis(5));
        assert_eq!(latency_from_due(due, done), Duration::from_millis(6));
        // Sent early: no lateness, and latency still runs from due.
        assert_eq!(lateness(due, t0), Duration::ZERO);
        assert_eq!(latency_from_due(due, t0), Duration::ZERO);
    }

    #[test]
    fn hist_window_subtracts_bucketwise() {
        let before = HistogramSnapshot {
            count: 3,
            sum: 30,
            max: 15,
            buckets: vec![(5, 1), (15, 2)],
        };
        let after = HistogramSnapshot {
            count: 7,
            sum: 100,
            max: 40,
            buckets: vec![(5, 1), (15, 3), (40, 3)],
        };
        let w = hist_window(&after, &before);
        assert_eq!(w.count, 4);
        assert_eq!(w.sum, 70);
        assert_eq!(w.buckets, vec![(15, 1), (40, 3)]);
        assert_eq!(w.quantile(0.5), 40);
    }

    #[test]
    fn rel_gap_is_relative_to_the_second() {
        assert_eq!(rel_gap(1.1, 1.0), 0.10000000000000009);
        assert_eq!(rel_gap(0.0, 0.0), 0.0);
    }
}
