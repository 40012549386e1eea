//! Naive-scan reference scheduling — the **differential oracle** behind
//! [`Scheduler::naive`](crate::Scheduler::naive).
//!
//! These are the pre-index job orders and task selection, preserved
//! verbatim: task selection scans the job's pending vector and
//! [`classify`]s every task against the live location lookup; Fair's
//! deficit order is a full sort per offer and Capacity's queue usage a
//! fresh tally. They are O(tasks × replicas) per slot offer and exist for
//! one reason: to *prove* the indexed scheduler bit-identical.
//! `tests/differential_oracle.rs` replays the same seeded offer streams
//! against both and asserts the assignment and skip sequences match
//! exactly; `tests/index_speedup.rs` uses them as the "before" side of
//! the release-build speedup gate. Only the delay-scheduling accept rule
//! and the hand-out are shared with the indexed path.
//!
//! Every function here is `#[cold]`: the reference runs only in tests,
//! and inlined into `Scheduler::pick_map` its scans slowed the indexed
//! offer path (about 6% of `traced-faults` `run_s`).
//!
//! Selection semantics being checked (both paths must implement them):
//! the pick is the *first pending position* within the best locality
//! class — the scan keeps a candidate and replaces it only on a strict
//! improvement, breaking early on node-local.

use crate::locality::{classify, Locality};
use crate::queue::{JobId, JobQueue};
use crate::LocationLookup;
use dare_net::{NodeId, Topology};

/// Scan a job's pending tasks for the best-locality pick (naive path);
/// `None` when nothing is pending.
#[cold]
pub(crate) fn scan_best(
    queue: &JobQueue,
    job_id: JobId,
    node: NodeId,
    lookup: &dyn LocationLookup,
    topo: &Topology,
) -> Option<(usize, Locality)> {
    let job = queue.job(job_id).expect("job exists");
    let mut best: Option<(usize, Locality)> = None;
    for (idx, t) in job.pending().iter().enumerate() {
        let loc = classify(t.block, node, lookup, topo);
        match best {
            Some((_, b)) if b <= loc => {}
            _ => best = Some((idx, loc)),
        }
        if loc == Locality::NodeLocal {
            break; // can't do better
        }
    }
    best
}

/// FIFO: the first job in arrival order with pending work.
#[cold]
pub(crate) fn fifo_job(queue: &JobQueue) -> Option<JobId> {
    queue
        .jobs()
        .iter()
        .find(|j| !j.pending().is_empty())
        .map(|j| j.id)
}

/// Fair: the deficit order recomputed from scratch — fewest running maps,
/// then arrival, then id (unique key — order is total) — over the jobs
/// with pending work.
#[cold]
pub(crate) fn deficit_order(queue: &JobQueue) -> Vec<JobId> {
    let mut order: Vec<JobId> = queue
        .jobs()
        .iter()
        .filter(|j| !j.pending().is_empty())
        .map(|j| j.id)
        .collect();
    order.sort_by_key(|&id| {
        let j = queue.job(id).expect("listed job exists");
        (j.running_maps(), j.arrival, j.id)
    });
    order
}

/// Capacity: a per-offer usage tally, then the first job of the least
/// served queue with pending work.
#[cold]
pub(crate) fn capacity_job(queue: &JobQueue, queues: u32) -> Option<JobId> {
    let mut running = vec![0u32; queues as usize];
    let mut has_pending = vec![false; queues as usize];
    for j in queue.jobs() {
        let q = (j.id.0 % queues) as usize;
        running[q] += j.running_maps();
        has_pending[q] |= !j.pending().is_empty();
    }
    let q = (0..queues)
        .filter(|&q| has_pending[q as usize])
        .min_by_key(|&q| (running[q as usize], q))?;
    queue
        .jobs()
        .iter()
        .find(|j| j.id.0 % queues == q && !j.pending().is_empty())
        .map(|j| j.id)
}
