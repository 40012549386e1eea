//! Heap allocations on the scheduler's slot-offer path.
//!
//! `classify` and the queue's `pick_best_for` read locations through the
//! borrow-based lookup and must not allocate at all. A job's whole life
//! (add, take, complete, retire) reuses the queue's recycled storage, so
//! once that storage has grown to the peak, it allocates nothing either.

mod common;

use common::{ec2_topology, fill_queue, layout, BLOCKS, JOBS};
use dare_dfs::BlockId;
use dare_net::{NodeId, Topology};
use dare_sched::locality::classify;
use dare_sched::{JobId, JobQueue, PendingTask, Scheduler, SchedulerKind, TableLookup, TaskId};
use dare_simcore::SimTime;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

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

const PROBES: u64 = 100_000;

/// Allocation events over `PROBES` calls of `f`, after a warm-up that
/// lets any lazily grown scratch reach steady state.
fn allocs_over_probes(mut f: impl FnMut(u64)) -> u64 {
    for i in 0..64 {
        f(i);
    }
    let before = allocs();
    for i in 0..PROBES {
        f(i);
    }
    allocs() - before
}

fn node(i: u64, topo: &Topology) -> NodeId {
    NodeId((i % topo.nodes() as u64) as u32)
}

#[test]
fn classify_does_not_allocate() {
    let (topo, lookup) = (ec2_topology(), layout());
    let n = allocs_over_probes(|i| {
        black_box(classify(
            BlockId(i % BLOCKS),
            node(i, &topo),
            &lookup,
            &topo,
        ));
    });
    assert_eq!(n, 0, "classify allocated {n} times over {PROBES} probes");
}

#[test]
fn pick_best_for_does_not_allocate() {
    let (topo, lookup) = (ec2_topology(), layout());
    let mut q = fill_queue(&lookup, &topo);
    let n = allocs_over_probes(|i| {
        black_box(q.pick_best_for(JobId((i % JOBS as u64) as u32), node(i, &topo), &topo));
    });
    assert_eq!(
        n, 0,
        "pick_best_for allocated {n} times over {PROBES} probes"
    );
}

/// Job sizes (map tasks) of one job-lifecycle cycle: SWIM-like small jobs
/// and one large one.
const CYCLE_SIZES: [usize; 6] = [1, 3, 2, 5, 1, 120];
/// Block layouts the cycles rotate through, so jobs of one size meet
/// different node and rack sets.
const CYCLE_LAYOUTS: u64 = 8;
/// Warm-up cycles before counting. Recycled position lists change owner
/// from job to job and grow to the largest length they meet; on this mix
/// the last such growth happens around cycle 80.
const WARM_CYCLES: u64 = 256;
/// Counted cycles after the warm-up: about 270k map tasks.
const COUNTED_CYCLES: u64 = 2048;

/// One add → take → complete → retire cycle: the `CYCLE_SIZES` jobs
/// arrive together, the Fair scheduler drains them through round-robin
/// slot offers (each launched task completes at once), and every job
/// retires. Returns the map tasks run.
fn lifecycle_cycle(
    q: &mut JobQueue,
    sched: &mut Scheduler,
    cycle: u64,
    lookup: &TableLookup,
    topo: &Topology,
) -> u64 {
    let first = cycle as u32 * CYCLE_SIZES.len() as u32;
    for (k, &size) in CYCLE_SIZES.iter().enumerate() {
        let salt = (cycle % CYCLE_LAYOUTS) * 97 + k as u64 * 13;
        let tasks = (0..size).map(|t| PendingTask {
            task: TaskId(t as u32),
            block: BlockId((salt + t as u64 * 17) % BLOCKS),
        });
        let id = JobId(first + k as u32);
        q.add_job(id, SimTime::from_secs(cycle), tasks, lookup, topo);
    }
    let mut ran = 0;
    let mut offers = 0;
    while q.has_pending() {
        if let Some(a) = sched.pick_map(q, node(offers, topo), lookup, topo) {
            q.on_map_complete(a.job);
            ran += 1;
        }
        offers += 1;
    }
    for k in 0..CYCLE_SIZES.len() as u32 {
        q.retire_job(JobId(first + k));
    }
    ran
}

#[test]
fn warm_job_lifecycle_does_not_allocate() {
    let (topo, lookup) = (ec2_topology(), layout());
    let cycles = WARM_CYCLES + COUNTED_CYCLES;
    let mut q = JobQueue::with_job_capacity(cycles as usize * CYCLE_SIZES.len());
    let mut sched = Scheduler::new(SchedulerKind::fair_default());
    for c in 0..WARM_CYCLES {
        lifecycle_cycle(&mut q, &mut sched, c, &lookup, &topo);
    }
    let before = allocs();
    let tasks: u64 = (WARM_CYCLES..cycles)
        .map(|c| lifecycle_cycle(&mut q, &mut sched, c, &lookup, &topo))
        .sum();
    let n = allocs() - before;
    let per_cycle: usize = CYCLE_SIZES.iter().sum();
    assert_eq!(
        tasks,
        COUNTED_CYCLES * per_cycle as u64,
        "every map task ran"
    );
    assert_eq!(
        n, 0,
        "a warmed job lifecycle allocated {n} times over {tasks} map tasks"
    );
}
