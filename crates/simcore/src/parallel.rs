//! Parallel execution of independent simulation runs.
//!
//! Parameter sweeps (Figs. 8, 9, 11) and the experiment farm run dozens
//! to thousands of full simulations. Each run is single-threaded and
//! deterministic; this module fans independent runs across OS threads
//! with [`std::thread::scope`], preserving output order. Work is handed
//! out through an atomic cursor so long runs don't straggle behind a
//! static partition — the same work-stealing-lite shape rayon would give
//! us, without needing rayon in the offline crate set.
//!
//! Items are claimed in contiguous *chunks* ([`chunk_count`] per sweep),
//! not one by one: a worker takes a whole chunk under one lock, maps it
//! lock-free, and stores the chunk's results under one more lock. The
//! earlier design round-tripped every item through its own
//! `Mutex<Option<T>>`, which put two lock operations plus a heap slot on
//! the per-item path — measurable once the farm started pushing 10⁵-cell
//! sweeps of sub-millisecond cells through it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of contiguous chunks a sweep of `n` items is split into when
/// `threads` workers run it: eight chunks per worker (so the atomic
/// cursor still load-balances uneven item costs), capped at `n`. Ragged
/// division can leave empty trailing chunks; workers map those to empty
/// results, so every item is still covered exactly once.
///
/// Exposed so the overhead guard in `dare-bench` can assert the lock
/// traffic a sweep pays is `O(chunks)`, not `O(items)`.
pub fn chunk_count(n: usize, threads: usize) -> usize {
    debug_assert!(n > 0 && threads > 0);
    threads.saturating_mul(8).min(n)
}

/// Map `f` over `items` using up to `threads` worker threads, returning
/// results in input order.
///
/// `f` must be `Sync` (shared by reference across workers) and the item
/// and result types must be `Send`. `threads` is clamped to `1..=items`;
/// `threads <= 1` (including 0) runs inline with no thread machinery.
/// Panics in `f` propagate to the caller after all workers stop (scope
/// join semantics).
///
/// ```
/// let squares = dare_simcore::parallel::parallel_map_threads(
///     (0u64..100).collect(), 4, |x| x * x);
/// assert_eq!(squares[7], 49);
/// ```
pub fn parallel_map_threads<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, n);
    if threads == 1 {
        return items.into_iter().map(f).collect();
    }

    // Split the items into contiguous chunks, each behind one Mutex, so
    // workers *take* whole chunks by index — two lock operations per
    // chunk instead of two per item, and no `T: Sync`/`Clone` bound.
    let chunks = chunk_count(n, threads);
    let chunk_len = n.div_ceil(chunks);
    let mut items = items.into_iter();
    let slots: Vec<Mutex<Option<Vec<T>>>> = (0..chunks)
        .map(|_| Mutex::new(Some(items.by_ref().take(chunk_len).collect())))
        .collect();
    debug_assert!(items.next().is_none(), "chunking covered every item");
    let results: Vec<Mutex<Option<Vec<R>>>> = (0..chunks).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= chunks {
                        break;
                    }
                    let chunk = slots[i]
                        .lock()
                        .expect("chunk slot poisoned")
                        .take()
                        .expect("chunk taken twice");
                    // The mapped chunk stays in claim order, so flattening
                    // the chunk results reproduces input order exactly.
                    let out: Vec<R> = chunk.into_iter().map(&f).collect();
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                })
            })
            .collect();
        // Join explicitly so a worker panic surfaces with its original
        // payload (scope's implicit join would replace it with a generic
        // "a scoped thread panicked" message).
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    results
        .into_iter()
        .flat_map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited before finishing its chunk")
        })
        .collect()
}

/// [`parallel_map_threads`] with the thread count taken from available
/// parallelism (capped at the number of items).
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    parallel_map_threads(items, threads, f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::time::Duration;

    #[test]
    fn preserves_order() {
        let out = parallel_map_threads((0..1000u64).collect(), 8, |x| x * 2);
        assert_eq!(out, (0..1000u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = parallel_map(Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_thread_fallback() {
        let out = parallel_map_threads(vec![1, 2, 3], 1, |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        // threads = 0 must not hang or panic: it clamps to a sequential run.
        let out = parallel_map_threads(vec![5, 6, 7], 0, |x| x - 5);
        assert_eq!(out, vec![0, 1, 2]);
    }

    #[test]
    fn more_threads_than_items() {
        let out = parallel_map_threads(vec![10, 20], 64, |x| x / 10);
        assert_eq!(out, vec![1, 2]);
        // Degenerate upper bound: usize::MAX workers over one item.
        let out = parallel_map_threads(vec![9], usize::MAX, |x| x + 1);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let calls = AtomicU64::new(0);
        let out = parallel_map_threads((0..500u64).collect(), 7, |x| {
            calls.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(calls.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn non_clone_items_work() {
        struct NoClone(u64);
        let items: Vec<NoClone> = (0..50).map(NoClone).collect();
        let out = parallel_map_threads(items, 4, |x| x.0 * 3);
        assert_eq!(out[10], 30);
    }

    #[test]
    fn uneven_work_balances() {
        // Items with wildly different costs still all complete.
        let out = parallel_map_threads((0..64u64).collect(), 8, |x| {
            let spin = if x % 8 == 0 { 200_000 } else { 10 };
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(i ^ x);
            }
            // prevent the loop from being optimized out entirely
            std::hint::black_box(acc);
            x
        });
        assert_eq!(out, (0..64u64).collect::<Vec<_>>());
    }

    #[test]
    fn order_preserved_under_adversarial_delays() {
        // Adversarial schedule: early items sleep longest, so chunks
        // *finish* in roughly reverse claim order and any merge that
        // collects by completion time would come back reversed. A prime
        // item count also leaves the last chunk ragged.
        let n = 97u64;
        let out = parallel_map_threads((0..n).collect(), 8, |x| {
            let ms = 16u64.saturating_sub(x);
            std::thread::sleep(Duration::from_millis(ms));
            x * 10
        });
        assert_eq!(out, (0..n).map(|x| x * 10).collect::<Vec<_>>());

        // Second adversary: a few scattered stragglers instead of a
        // sorted ramp, exercising mid-stream chunk overtaking.
        let out = parallel_map_threads((0..200u64).collect(), 6, |x| {
            if x % 37 == 0 {
                std::thread::sleep(Duration::from_millis(8));
            }
            x + 1
        });
        assert_eq!(out, (1..=200u64).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "boom at item 123")]
    fn worker_panic_propagates_to_caller() {
        let _ = parallel_map_threads((0..500u64).collect(), 4, |x| {
            if x == 123 {
                panic!("boom at item {x}");
            }
            x
        });
    }

    #[test]
    fn hundred_k_trivial_items_complete() {
        // The chunked path must shrug off sweeps where the closure is
        // cheaper than a lock: 100k trivial cells.
        let out = parallel_map_threads((0..100_000u64).collect(), 8, |x| x ^ 1);
        assert_eq!(out.len(), 100_000);
        assert_eq!(out[0], 1);
        assert_eq!(out[99_999], 99_998);
    }

    #[test]
    fn chunk_count_bounds() {
        // Never more chunks than items, never zero, 8 per thread once
        // items are plentiful.
        assert_eq!(chunk_count(1, 4), 1);
        assert_eq!(chunk_count(5, 4), 5);
        assert_eq!(chunk_count(1000, 4), 32);
        assert_eq!(chunk_count(100_000, 8), 64);
        // Chunking covers every item: ceil-division re-derivation.
        for (n, threads) in [(97usize, 8usize), (3, 2), (1000, 7), (64, 64)] {
            let chunks = chunk_count(n, threads);
            assert!(chunks >= 1 && chunks <= n);
            let chunk_len = n.div_ceil(chunks);
            assert!(chunk_len >= 1);
            assert!(chunk_len * chunks >= n, "chunks cover every item");
        }
    }
}
