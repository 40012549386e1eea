//! The incremental locality index against the naive scan it replaced.
//!
//! "Before" is the naive-scan reference scheduler (`Scheduler::naive`,
//! the scans in `dare_sched::oracle`: O(tasks × replicas) per offer and
//! a full deficit sort per Fair offer); "after" is the indexed production
//! path. Both replay the same offer stream (the differential tests prove
//! them bit-identical) on the paper's 100-node EC2 profile, in a
//! scheduling-dominated configuration: many concurrent jobs and instant
//! task completion, so slot offers are all that costs anything. The
//! indexed path must be at least 2× faster under FIFO and under Fair.
//!
//! A debug build's ratio means nothing, so the test runs only in release:
//! `cargo test --release -p dare-sched --test index_speedup`. It is the
//! only test in its binary, so no sibling test competes for the cores.

mod common;

use common::{ec2_topology, fill_queue, layout, JOBS, TASKS_PER_JOB};
use dare_net::{NodeId, Topology};
use dare_sched::{JobQueue, Scheduler, SchedulerKind, TableLookup};
use std::time::Instant;

/// Timed rounds per side; naive and indexed rounds alternate.
const ROUNDS: usize = 7;

/// Offer slots round-robin until every task is handed out; completions
/// are instant so the drain cost is pure scheduling.
fn drain(sched: &mut Scheduler, q: &mut JobQueue, lookup: &TableLookup, topo: &Topology) -> u64 {
    let nodes = topo.nodes();
    let (mut n, mut assigned, mut idle) = (0u32, 0u64, 0u32);
    while q.has_pending() && idle < 8 * nodes {
        let node = NodeId(n % nodes);
        n += 1;
        match sched.pick_map(q, node, lookup, topo) {
            Some(a) => {
                q.on_map_complete(a.job);
                assigned += 1;
                idle = 0;
            }
            None => idle += 1,
        }
    }
    assigned
}

/// Median seconds of `ROUNDS` drains per side: `(naive, indexed)`. The
/// queue is built off the clock.
fn offer_replay(kind: SchedulerKind, lookup: &TableLookup, topo: &Topology) -> (f64, f64) {
    let mut secs = [Vec::new(), Vec::new()];
    for _ in 0..ROUNDS {
        for (side, make) in [Scheduler::naive, Scheduler::new].into_iter().enumerate() {
            let (mut sched, mut q) = (make(kind), fill_queue(lookup, topo));
            let t0 = Instant::now();
            let assigned = drain(&mut sched, &mut q, lookup, topo);
            secs[side].push(t0.elapsed().as_secs_f64());
            assert_eq!(
                assigned,
                JOBS as u64 * TASKS_PER_JOB as u64,
                "drain hands out every task"
            );
        }
    }
    let [naive, indexed] = secs.map(|mut s| {
        s.sort_by(f64::total_cmp);
        s[ROUNDS / 2]
    });
    (naive, indexed)
}

#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a debug build's timing ratio means nothing"
)]
fn indexed_offers_are_at_least_twice_the_naive_scan() {
    let (topo, lookup) = (ec2_topology(), layout());
    for kind in [SchedulerKind::Fifo, SchedulerKind::fair_default()] {
        let (naive, indexed) = offer_replay(kind, &lookup, &topo);
        let speedup = naive / indexed;
        println!(
            "{}: naive {:.2} ms, indexed {:.2} ms, {speedup:.2}x",
            kind.label(),
            naive * 1e3,
            indexed * 1e3
        );
        assert!(
            speedup >= 2.0,
            "indexed {} path must be >= 2x the naive scan (got {speedup:.2}x)",
            kind.label()
        );
    }
}
