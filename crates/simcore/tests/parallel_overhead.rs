//! Overhead guard for the chunked `parallel_map_threads` dispatch.
//!
//! The original implementation round-tripped every item through its own
//! `Mutex<Option<T>>`, so dispatch cost scaled with the item count. The
//! chunked rewrite takes two lock operations per *chunk* and
//! `chunk_count` caps chunks at `8 × threads` — these tests pin both the
//! structural bound and (with a deliberately generous wall-clock margin,
//! since CI runners can be single-core and noisy) the end-to-end cost of
//! pushing 100 000 trivial items through the fan-out.

use dare_simcore::parallel::{chunk_count, parallel_map_threads};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Median nanoseconds per call of `f` over three rounds of at least
/// 20 ms each.
fn median_ns<R>(mut f: impl FnMut() -> R) -> f64 {
    let mut rounds: Vec<f64> = (0..3)
        .map(|_| {
            let (t0, mut calls) = (Instant::now(), 0u32);
            while t0.elapsed() < Duration::from_millis(20) {
                black_box(f());
                calls += 1;
            }
            t0.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[1]
}

#[test]
fn lock_traffic_scales_with_threads_not_items() {
    // 100k trivial items at 4 workers: 32 chunks → 64 lock operations,
    // regardless of n. Under per-item locking this would be 200 000.
    assert_eq!(chunk_count(100_000, 4), 32);
    assert_eq!(chunk_count(1_000_000, 4), 32);
    assert_eq!(chunk_count(1_000_000, 16), 128);
    // Small inputs never get more chunks than items.
    assert_eq!(chunk_count(5, 4), 5);
}

#[test]
fn hundred_k_trivial_items_not_dominated_by_dispatch() {
    const N: u64 = 100_000;
    let work = |x: u64| x.wrapping_mul(0x9E37_79B9).rotate_left(7);

    let seq = median_ns(|| (0..N).map(work).collect::<Vec<_>>());
    let par = median_ns(|| parallel_map_threads((0..N).collect(), 4, work));

    // Thread spawn + chunk handoff must stay a bounded multiple of the
    // raw sequential map. The bound is deliberately loose (single-core
    // CI, scheduler jitter); per-item locking regressions blow through
    // it by orders of magnitude on top of the structural guard above.
    let budget_ns = seq * 100.0 + 50e6;
    assert!(
        par <= budget_ns,
        "parallel dispatch overhead regressed: {par:.0} ns/iter parallel \
         vs {seq:.0} ns/iter sequential (budget {budget_ns:.0} ns)"
    );
}
