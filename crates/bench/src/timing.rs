//! A minimal `Instant`-based micro-benchmark harness.
//!
//! The offline build cannot resolve Criterion, so the `benches/` targets are
//! plain `harness = false` binaries driven by this module instead: warm up
//! once, pick an iteration count that fills a ~300 ms measurement window,
//! time every iteration with [`Instant`], and print mean/min per iteration.
//! No statistics beyond that — these benches exist to rank alternatives
//! (indexed vs scan, mode vs mode, S3PG vs baselines), not to detect
//! sub-percent regressions.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Target wall-clock spent measuring one benchmark.
const MEASURE_TARGET: Duration = Duration::from_millis(300);
/// Iteration bounds: at least 3 (min is meaningless on one sample), at most
/// 1000 (cheap closures would otherwise spend all time in bookkeeping).
const MIN_ITERS: usize = 3;
const MAX_ITERS: usize = 1000;

/// Per-iteration latency distribution collected by [`bench_samples`].
#[derive(Debug, Clone, Copy)]
pub struct Samples {
    pub iters: usize,
    pub mean: Duration,
    pub min: Duration,
    pub p50: Duration,
    pub p99: Duration,
}

impl Samples {
    /// Exact quantiles over every recorded iteration.
    fn from_durations(mut samples: Vec<Duration>) -> Samples {
        samples.sort();
        let iters = samples.len();
        let total: Duration = samples.iter().sum();
        let rank = |q: f64| {
            let r = ((q * iters as f64).ceil() as usize).max(1) - 1;
            samples[r.min(iters - 1)]
        };
        Samples {
            iters,
            mean: total / iters as u32,
            min: samples[0],
            p50: rank(0.50),
            p99: rank(0.99),
        }
    }
}

/// Warm up, size the iteration count to the measurement window, and time
/// every iteration. The closure's result is `black_box`ed so the optimizer
/// cannot elide the measured work.
fn measure<R>(f: &mut impl FnMut() -> R) -> Samples {
    // Warm-up iteration doubles as the cost estimate.
    let t0 = Instant::now();
    black_box(f());
    let est = t0.elapsed().max(Duration::from_nanos(1));

    let iters = (MEASURE_TARGET.as_nanos() / est.as_nanos())
        .clamp(MIN_ITERS as u128, MAX_ITERS as u128) as usize;

    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        samples.push(t.elapsed());
    }
    Samples::from_durations(samples)
}

/// Measure `f`, printing one aligned report line.
pub fn bench<R>(name: &str, mut f: impl FnMut() -> R) {
    let s = measure(&mut f);
    println!(
        "{name:<56} {:>12}/iter  (min {:>10}, {} iters)",
        fmt_duration(s.mean),
        fmt_duration(s.min),
        s.iters
    );
}

/// Like [`bench()`], but returns the full latency distribution (exact
/// p50/p99 over the collected iterations) for ratios and
/// machine-readable reports.
pub fn bench_samples<R>(name: &str, mut f: impl FnMut() -> R) -> Samples {
    let s = measure(&mut f);
    println!(
        "{name:<56} {:>12}/iter  (p50 {:>10}, p99 {:>10}, {} iters)",
        fmt_duration(s.mean),
        fmt_duration(s.p50),
        fmt_duration(s.p99),
        s.iters
    );
    s
}

/// Print a section header so grouped benches read like Criterion groups.
pub fn section(title: &str) {
    println!("\n== {title} ==");
}

/// Render a duration with a unit that keeps 3–4 significant digits.
pub fn fmt_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1_000.0)
    } else if ns < 10_000_000_000 {
        format!("{:.1} ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_picks_sensible_units() {
        assert_eq!(fmt_duration(Duration::from_nanos(500)), "500 ns");
        assert_eq!(fmt_duration(Duration::from_micros(50)), "50.0 µs");
        assert_eq!(fmt_duration(Duration::from_millis(50)), "50.0 ms");
        assert_eq!(fmt_duration(Duration::from_secs(50)), "50.00 s");
    }

    #[test]
    fn bench_runs_the_closure() {
        let mut calls = 0usize;
        bench("noop", || calls += 1);
        assert!(calls > MIN_ITERS);
    }

    #[test]
    fn samples_report_ordered_quantiles() {
        let s = bench_samples("noop", || std::hint::black_box(1 + 1));
        assert!(s.iters >= MIN_ITERS);
        assert!(s.min <= s.p50 && s.p50 <= s.p99);
    }
}
