//! A miniature wall-clock benchmark harness.
//!
//! The workspace builds offline, so `criterion` is not available. This
//! module provides the small slice of it the benches use: named timed
//! loops (with optional per-iteration setup), median-of-rounds timing,
//! and machine-readable results that the scheduler benchmark serializes
//! to `results/BENCH_sched.json`.
//!
//! Run with `cargo bench`. Set `BENCH_QUICK=1` (or pass `--quick`) for a
//! smoke-test run with ~10× shorter measurement windows — used by CI to
//! verify the benches still execute without paying full measurement cost.

use std::time::{Duration, Instant};

/// Re-export of the standard opaque-value barrier, so bench files don't
/// each need to reach into `std::hint`.
pub use std::hint::black_box;

/// One benchmark's timing result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark id, e.g. `"scheduler_pick_map/fifo/32"`.
    pub name: String,
    /// Median nanoseconds per iteration across measurement rounds.
    pub median_ns: f64,
    /// Fastest round (ns/iter) — a lower bound on the true cost.
    pub min_ns: f64,
    /// Slowest round (ns/iter).
    pub max_ns: f64,
    /// Total iterations executed during measurement.
    pub iters: u64,
}

impl BenchResult {
    /// Human-readable ns/iter with adaptive units.
    pub fn pretty(&self) -> String {
        fn fmt(ns: f64) -> String {
            if ns < 1_000.0 {
                format!("{ns:.1} ns")
            } else if ns < 1_000_000.0 {
                format!("{:.2} µs", ns / 1_000.0)
            } else if ns < 1_000_000_000.0 {
                format!("{:.2} ms", ns / 1_000_000.0)
            } else {
                format!("{:.2} s", ns / 1_000_000_000.0)
            }
        }
        format!(
            "{:<44} {:>12}/iter  (min {}, max {})",
            self.name,
            fmt(self.median_ns),
            fmt(self.min_ns),
            fmt(self.max_ns)
        )
    }
}

/// Collects and times named benchmarks.
pub struct Runner {
    /// Shorter measurement windows (CI smoke mode).
    pub quick: bool,
    results: Vec<BenchResult>,
    rounds: usize,
    target: Duration,
}

impl Runner {
    /// Build a runner; `quick` shrinks the per-round measurement window.
    pub fn new(quick: bool) -> Self {
        Runner {
            quick,
            results: Vec::new(),
            rounds: if quick { 3 } else { 7 },
            target: if quick {
                Duration::from_millis(20)
            } else {
                Duration::from_millis(200)
            },
        }
    }

    /// Build a runner honoring `BENCH_QUICK=1` and a `--quick` CLI flag.
    pub fn from_env() -> Self {
        let quick = std::env::var_os("BENCH_QUICK").is_some_and(|v| v != "0")
            || std::env::args().any(|a| a == "--quick");
        Self::new(quick)
    }

    /// Time `f` (called once per iteration) and record the result.
    pub fn bench<R>(&mut self, name: &str, mut f: impl FnMut() -> R) -> &BenchResult {
        self.bench_batched(name, || (), move |()| f())
    }

    /// Time `f` with a fresh `setup()` value per iteration; only `f` is
    /// on the clock. The analogue of criterion's `iter_batched`.
    pub fn bench_batched<S, R>(
        &mut self,
        name: &str,
        mut setup: impl FnMut() -> S,
        mut f: impl FnMut(S) -> R,
    ) -> &BenchResult {
        // Calibrate: grow the batch size until one batch takes >= ~1/10th
        // of the round target, so Instant overhead stays negligible.
        let mut batch: u64 = 1;
        loop {
            let inputs: Vec<S> = (0..batch).map(|_| setup()).collect();
            let t0 = Instant::now();
            for s in inputs {
                black_box(f(s));
            }
            let dt = t0.elapsed();
            if dt >= self.target / 10 || batch >= 1 << 24 {
                break;
            }
            // Aim directly at the threshold, with 2× headroom minimum.
            let scale = (self.target.as_secs_f64() / 10.0 / dt.as_secs_f64().max(1e-9)).ceil();
            batch = (batch.saturating_mul(scale.clamp(2.0, 1024.0) as u64)).min(1 << 24);
        }

        let mut per_iter: Vec<f64> = Vec::with_capacity(self.rounds);
        let mut total_iters = 0u64;
        for _ in 0..self.rounds {
            let mut round_iters = 0u64;
            let mut elapsed = Duration::ZERO;
            while elapsed < self.target {
                let inputs: Vec<S> = (0..batch).map(|_| setup()).collect();
                let t0 = Instant::now();
                for s in inputs {
                    black_box(f(s));
                }
                elapsed += t0.elapsed();
                round_iters += batch;
            }
            per_iter.push(elapsed.as_nanos() as f64 / round_iters as f64);
            total_iters += round_iters;
        }
        per_iter.sort_by(|a, b| a.total_cmp(b));
        let result = BenchResult {
            name: name.to_string(),
            median_ns: per_iter[per_iter.len() / 2],
            min_ns: per_iter[0],
            max_ns: per_iter[per_iter.len() - 1],
            iters: total_iters,
        };
        println!("{}", result.pretty());
        self.results.push(result);
        self.results.last().expect("just pushed")
    }

    /// All results collected so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Print a footer; call at the end of a bench binary.
    pub fn finish(&self, group: &str) {
        println!(
            "[{group}] {} benchmarks, {} mode",
            self.results.len(),
            if self.quick { "quick" } else { "full" }
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something() {
        let mut r = Runner::new(true);
        let res = r
            .bench("noop_add", || black_box(2u64) + black_box(3u64))
            .clone();
        assert!(res.median_ns >= 0.0);
        assert!(res.iters > 0);
        assert!(res.min_ns <= res.median_ns && res.median_ns <= res.max_ns);
        assert_eq!(r.results().len(), 1);
    }

    #[test]
    fn batched_setup_not_on_clock() {
        let mut r = Runner::new(true);
        // Setup builds a vector; the timed body only reads one element.
        let res = r
            .bench_batched("read_first", || vec![1u64; 64], |v| v[0])
            .clone();
        assert!(res.iters > 0);
    }
}
