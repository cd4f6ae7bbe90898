//! Failure accounting and the end-to-end figures of one measured phase.

use crate::stats::{percentile, sorted};
use std::collections::BTreeMap;

/// Latency limit of `slo_share`.
pub const SLO_MS: f64 = 5.0;

/// An open-loop window is invalid when the generator's p99 lateness
/// against the due times exceeds this (half the 2 ms arrival gap of
/// `serve_open`): its offered load was no longer the fixed rate. On an
/// otherwise idle box the generator lags only when the host deschedules
/// the process, which stalls the server in the same window.
pub const LATE_P99_BOUND_MS: f64 = 1.0;

/// Percentile of each plan's call times that sets the `plan_offline`
/// rate. A shared 2-vCPU host slows a varying share of calls by up to 50%
/// for seconds at a time; the tenth percentile of a plan's calls moves
/// with the code and hardly with that share.
pub const PLAN_RATE_PERCENTILE: f64 = 10.0;

/// Percentile over its windows at which a phase reports its rates (and
/// `100 -` this for its latencies): the third best of a 45 s phase's 22
/// windows. A shared 2-vCPU host switches, for seconds at a time and with
/// no CPU steal recorded, between a state in which the same work takes up
/// to 1.6x as long and one in which it does not. A window median follows
/// the share of the run spent slow, which moved `serve_closed` qps and
/// `plan_offline` throughput by 18-28% between runs of one build. A code
/// change moves both states alike.
pub const WINDOW_PERCENTILE: f64 = 90.0;

/// What one measured phase attempted and how each operation ended. An
/// operation is one request in the serve workloads and one
/// `execute_batch` call in `plan_offline`.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Answered with output bit-identical to the expected output.
    pub succeeded: u64,
    /// Answered with any other output.
    pub mismatched: u64,
    /// Typed error replies by class.
    pub typed: BTreeMap<&'static str, u64>,
    /// Operations lost to a broken connection.
    pub transport: u64,
    /// Latency of every succeeded operation, ms.
    pub latencies_ms: Vec<f64>,
    /// Succeeded within [`SLO_MS`].
    pub within_slo: u64,
    /// Images in succeeded operations.
    pub images: u64,
    pub elapsed_s: f64,
    /// Client latency minus the server's own latency stamp, ms.
    pub residual_ms: Vec<f64>,
    /// Time inside `Client::submit`, µs.
    pub submit_us: Vec<f64>,
    /// Open-loop generator lateness against the due time, ms.
    pub late_ms: Vec<f64>,
    /// Figures of each consecutive window this phase was measured in.
    pub windows: Vec<Figures>,
    /// `plan_offline` only: latency of every succeeded call, ms, by tenant
    /// plan. When set, it gives the rate and p50 figures (see
    /// [`Outcome::pooled`]).
    pub plan_ms: Vec<Vec<f64>>,
}

/// The class name of a typed wire error code.
pub fn error_class(code: u16) -> &'static str {
    use epim_serve::wire::code;
    match code {
        code::OVERLOADED => "overloaded",
        code::UNKNOWN_TENANT => "unknown_tenant",
        code::SHUTTING_DOWN => "shutting_down",
        code::PROTOCOL => "protocol",
        code::TIMEOUT => "timeout",
        code::EXECUTION => "execution",
        code::IO => "io",
        code::DEADLINE => "deadline",
        _ => "other",
    }
}

impl Outcome {
    pub fn failed(&self) -> u64 {
        self.attempted - self.succeeded
    }

    pub fn typed_errors(&self) -> u64 {
        self.typed.values().sum()
    }

    pub fn record_success(&mut self, latency_ms: f64, images: u64) {
        self.succeeded += 1;
        self.images += images;
        self.latencies_ms.push(latency_ms);
        if latency_ms <= SLO_MS {
            self.within_slo += 1;
        }
    }

    pub fn record_typed(&mut self, code: u16) {
        *self.typed.entry(error_class(code)).or_default() += 1;
    }

    /// Folds a concurrently measured phase (another connection) in; the
    /// phase lasted as long as the slowest part.
    pub fn merge(&mut self, other: Outcome) {
        self.attempted += other.attempted;
        self.succeeded += other.succeeded;
        self.mismatched += other.mismatched;
        for (class, n) in other.typed {
            *self.typed.entry(class).or_default() += n;
        }
        self.transport += other.transport;
        self.latencies_ms.extend(other.latencies_ms);
        self.within_slo += other.within_slo;
        self.images += other.images;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.residual_ms.extend(other.residual_ms);
        self.submit_us.extend(other.submit_us);
        self.late_ms.extend(other.late_ms);
        if self.plan_ms.len() < other.plan_ms.len() {
            self.plan_ms.resize(other.plan_ms.len(), Vec::new());
        }
        for (mine, theirs) in self.plan_ms.iter_mut().zip(other.plan_ms) {
            mine.extend(theirs);
        }
    }

    /// Appends a window measured after this one.
    pub fn then(&mut self, window: Outcome) {
        self.windows.push(window.pooled());
        let elapsed = self.elapsed_s + window.elapsed_s;
        self.merge(window);
        self.elapsed_s = elapsed;
    }

    /// The windows the figures use: the valid ones, or all of them when
    /// none is valid (the run is then flagged invalid).
    pub fn counted_windows(&self) -> Vec<&Figures> {
        let valid: Vec<&Figures> = self.windows.iter().filter(|w| w.valid()).collect();
        if valid.is_empty() {
            self.windows.iter().collect()
        } else {
            valid
        }
    }

    /// The reported figures: each the value of one of the best of the
    /// phase's valid windows ([`WINDOW_PERCENTILE`]), so the time the host
    /// spent slowing the run moves no figure. The failure and lateness
    /// figures are medians.
    pub fn figures(&self) -> Figures {
        if self.windows.is_empty() {
            return self.pooled();
        }
        let counted = self.counted_windows();
        let at = |p: f64, f: fn(&Figures) -> f64| {
            percentile(&sorted(counted.iter().map(|w| f(w)).collect()), p)
        };
        let (high, low) = (WINDOW_PERCENTILE, 100.0 - WINDOW_PERCENTILE);
        Figures {
            qps: at(high, |f| f.qps),
            images_per_s: at(high, |f| f.images_per_s),
            p50_ms: at(low, |f| f.p50_ms),
            p90_ms: at(low, |f| f.p90_ms),
            p99_ms: at(low, |f| f.p99_ms),
            slo_share: at(high, |f| f.slo_share),
            error_rate: at(50.0, |f| f.error_rate),
            samples: self.latencies_ms.len(),
            late_p99_ms: at(50.0, |f| f.late_p99_ms),
        }
    }

    /// The figures over every sample of the phase pooled together.
    ///
    /// With `plan_ms` set, three figures come from each plan's own call
    /// times instead. The zoo's plans differ in cost by 1.7x and are called
    /// in turn, so the p50 of all calls falls between the cheap plans'
    /// tail and the dear plan's body, and swings by half when host noise
    /// moves the cheap plans' tail. So `p50_ms` is the mean of the plans'
    /// medians, and `qps` is the rate of one caller whose calls to each
    /// plan take that plan's [`PLAN_RATE_PERCENTILE`] time.
    pub fn pooled(&self) -> Figures {
        let lat = sorted(self.latencies_ms.clone());
        let mut f = Figures {
            qps: self.succeeded as f64 / self.elapsed_s,
            images_per_s: self.images as f64 / self.elapsed_s,
            p50_ms: percentile(&lat, 50.0),
            p90_ms: percentile(&lat, 90.0),
            p99_ms: percentile(&lat, 99.0),
            slo_share: self.within_slo as f64 / self.attempted.max(1) as f64,
            error_rate: self.failed() as f64 / self.attempted.max(1) as f64,
            samples: lat.len(),
            late_p99_ms: percentile(&sorted(self.late_ms.clone()), 99.0),
        };
        let plans: Vec<Vec<f64>> = self.plan_ms.iter().map(|v| sorted(v.clone())).collect();
        if !plans.is_empty() && plans.iter().all(|v| !v.is_empty()) {
            let n = plans.len() as f64;
            let round_ms: f64 = plans
                .iter()
                .map(|v| percentile(v, PLAN_RATE_PERCENTILE))
                .sum();
            f.qps = n * 1e3 / round_ms;
            f.images_per_s = f.qps * self.images as f64 / self.succeeded as f64;
            f.p50_ms = plans.iter().map(|v| percentile(v, 50.0)).sum::<f64>() / n;
        }
        f
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Figures {
    pub qps: f64,
    pub images_per_s: f64,
    pub p50_ms: f64,
    pub p90_ms: f64,
    pub p99_ms: f64,
    pub slo_share: f64,
    pub error_rate: f64,
    pub samples: usize,
    /// p99 of the open-loop generator's lateness, ms (0 for closed loops).
    pub late_p99_ms: f64,
}

impl Figures {
    /// Whether the window kept its offered load (always, for closed loops).
    pub fn valid(&self) -> bool {
        self.late_p99_ms <= LATE_P99_BOUND_MS
    }

    /// `(name, unit, value)` of every timed end-to-end metric.
    pub fn named(&self) -> [(&'static str, &'static str, f64); 7] {
        [
            ("qps", "req/s", self.qps),
            ("images_per_s", "images/s", self.images_per_s),
            ("p50_ms", "ms", self.p50_ms),
            ("p90_ms", "ms", self.p90_ms),
            ("p99_ms", "ms", self.p99_ms),
            ("slo_share", "share", self.slo_share),
            ("error_rate", "share", self.error_rate),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failures_miss_the_slo_and_count_against_attempted() {
        let mut o = Outcome {
            attempted: 4,
            elapsed_s: 2.0,
            ..Outcome::default()
        };
        o.record_success(1.0, 1);
        o.record_success(6.0, 1);
        o.record_typed(epim_serve::wire::code::OVERLOADED);
        o.mismatched += 1;
        let f = o.figures();
        assert_eq!(o.failed(), 2);
        assert_eq!(f.qps, 1.0);
        assert_eq!(f.slo_share, 0.25);
        assert_eq!(f.error_rate, 0.5);
        assert_eq!(f.p50_ms, 1.0);
        assert_eq!(o.typed["overloaded"], 1);
    }

    #[test]
    fn windows_report_their_second_best() {
        let mut phase = Outcome::default();
        // 15 windows: one operation of 1..=15 ms each, 8 images, lasting
        // an eighth of a second per ms.
        for ms in [5, 1, 8, 3, 2, 7, 4, 6, 15, 9, 14, 10, 13, 11, 12].map(f64::from) {
            let mut w = Outcome {
                attempted: 1,
                elapsed_s: ms / 8.0,
                ..Outcome::default()
            };
            w.record_success(ms, 8);
            phase.then(w);
        }
        assert_eq!(phase.windows.len(), 15);
        assert_eq!(phase.elapsed_s, 15.0);
        assert_eq!(phase.attempted, 15);
        let f = phase.figures();
        // Nearest rank 2 of 15 for latencies, 14 of 15 for rates: the
        // 2 ms window in both.
        assert_eq!(f.p50_ms, 2.0);
        assert_eq!(f.p90_ms, 2.0);
        assert_eq!(f.qps, 4.0);
        assert_eq!(f.images_per_s, 32.0);
        assert_eq!(f.slo_share, 1.0);
        assert_eq!(f.samples, 15);
        // Pooled, the slowest window's sample is the p99.
        assert_eq!(phase.pooled().p99_ms, 15.0);
    }

    #[test]
    fn late_open_loop_windows_are_left_out_unless_all_are_late() {
        let window = |lat: f64, late: f64| {
            let mut w = Outcome {
                attempted: 1,
                elapsed_s: 1.0,
                late_ms: vec![late],
                ..Outcome::default()
            };
            w.record_success(lat, 1);
            w
        };
        let mut phase = Outcome::default();
        phase.then(window(1.0, 0.1));
        phase.then(window(8.0, 3.0));
        phase.then(window(9.0, 2.0));
        phase.then(window(2.0, 1.0));
        assert_eq!(phase.counted_windows().len(), 2);
        assert_eq!(phase.figures().p50_ms, 1.0);
        let mut late = Outcome::default();
        late.then(window(8.0, 3.0));
        late.then(window(9.0, 2.0));
        assert_eq!(late.counted_windows().len(), 2);
        assert_eq!(late.figures().p50_ms, 8.0);
    }

    #[test]
    fn plan_figures_come_from_each_plans_own_call_times() {
        let mut o = Outcome {
            attempted: 40,
            elapsed_s: 1.0,
            ..Outcome::default()
        };
        // Plan 0: calls of 1..=10 ms; plan 1: 10 calls of 4 ms, 8 images each.
        o.plan_ms = vec![(1..=10).map(f64::from).collect(), vec![4.0; 10]];
        for v in o.plan_ms.clone() {
            for ms in v {
                o.record_success(ms, 8);
            }
        }
        let f = o.pooled();
        // p10s are 1 and 4 ms: two calls per 5 ms.
        assert_eq!(f.qps, 400.0);
        assert_eq!(f.images_per_s, 3200.0);
        // Medians 5 and 4 ms.
        assert_eq!(f.p50_ms, 4.5);
        // The tail and the SLO stay over all calls.
        assert_eq!(f.p90_ms, 8.0);
        assert_eq!(f.slo_share, 15.0 / 40.0);
        // Windows each get their own plan figures; the phase merges them.
        let mut phase = Outcome::default();
        phase.then(o);
        assert_eq!(phase.figures().qps, 400.0);
        assert_eq!(phase.plan_ms.iter().map(Vec::len).sum::<usize>(), 20);
    }

    #[test]
    fn merge_sums_counts_and_keeps_the_longest_span() {
        let mut a = Outcome {
            attempted: 2,
            elapsed_s: 1.0,
            ..Outcome::default()
        };
        a.record_success(1.0, 1);
        let mut b = Outcome {
            attempted: 3,
            transport: 1,
            elapsed_s: 1.5,
            ..Outcome::default()
        };
        b.record_typed(epim_serve::wire::code::DEADLINE);
        a.merge(b);
        assert_eq!((a.attempted, a.succeeded, a.transport), (5, 1, 1));
        assert_eq!(a.typed_errors(), 1);
        assert_eq!(a.elapsed_s, 1.5);
    }
}
