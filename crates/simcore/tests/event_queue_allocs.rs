//! Heap allocations of the event queue under a heartbeat-shaped load.
//!
//! The wheel keeps its entries in one slab that grows to the peak
//! pending count, so a fresh queue driven by 100 staggered heartbeat
//! chains allocates a few dozen times in all (the slab, its link array
//! and the active heap doubling up to about 100 entries: 15 calls), and
//! nothing once warm. A queue with one buffer per wheel slot allocates
//! once per slot it touches: thousands over the ten wheel turns below
//! (3,436 for the per-slot `Vec` wheel this replaced), so the first
//! bound fails there.

use dare_simcore::{EventQueue, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// `System` allocator wrapper that counts allocation events per thread,
/// so the test harness's own threads do not show up in the count.
struct CountingAlloc;

thread_local! {
    static ALLOC_EVENTS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOC_EVENTS.try_with(|c| c.set(c.get() + 1));
}

fn allocs() -> u64 {
    ALLOC_EVENTS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const CHAINS: u64 = 100;
const PERIOD_US: u64 = 3_000_000;
/// One turn of the wheel: 8,192 buckets of 1,024 µs.
const TURN_US: u64 = 8_192 * 1_024;

/// Pop and re-arm every heartbeat due before `end_us`.
fn run_until(q: &mut EventQueue<u64>, end_us: u64) {
    while q.peek_time().is_some_and(|t| t.as_micros() < end_us) {
        let (t, node) = q.pop().expect("peeked");
        q.push(SimTime::from_micros(t.as_micros() + PERIOD_US), node);
    }
}

#[test]
fn heartbeat_chains_allocate_only_for_slab_growth() {
    let before = allocs();
    let mut q = EventQueue::new();
    for node in 0..CHAINS {
        q.push(SimTime::from_micros(node * PERIOD_US / CHAINS), node);
    }
    // 100 simulated seconds: more than ten wheel turns.
    let warm_end = 100_000_000;
    run_until(&mut q, warm_end);
    let cold = allocs() - before;
    assert!(
        cold <= 32,
        "a fresh queue made {cold} allocations; the slab should grow only to the 100 pending"
    );

    let warm = allocs();
    run_until(&mut q, warm_end + TURN_US);
    assert_eq!(
        allocs() - warm,
        0,
        "a warm queue allocated over a full wheel turn"
    );
    assert_eq!(q.len(), CHAINS as usize);
}
