//! Differential oracle: the indexed scheduler must be **bit-identical**
//! to the naive-scan reference scheduler (`Scheduler::naive`, the scans
//! in `dare_sched::oracle`), for every kind.
//!
//! Each case generates a random topology, block layout, job mix, and a
//! long interleaved event stream — slot offers, task completions,
//! replica churn (dynamic replicas promoted and evicted), task aborts
//! (requeue), job retirement and abandonment, mid-stream job arrivals
//! (about one in ten a large job of 100-400 tasks, so position lists run
//! deep and retired jobs' recycled index storage gets reused), index
//! rebuilds — and replays it
//! against two queue+scheduler pairs: the indexed production scheduler
//! and the O(tasks × replicas) scan oracle, both with skip tracing on.
//! Every single slot offer must return exactly the same
//! `Option<Assignment>` (job, task, block, and locality class) and drain
//! the same delay-scheduling `SkipDecision`s, and the queues must agree
//! on pending counts at the end. Any divergence in selection order, tie-breaking, delay-scheduling
//! skip bookkeeping, or index maintenance shows up as a first-offer
//! mismatch with a replayable case seed.

use dare_dfs::BlockId;
use dare_net::{NodeId, Topology};
use dare_sched::fair::FairConfig;
use dare_sched::{
    Assignment, JobId, JobQueue, PendingTask, Scheduler, SchedulerKind, SkipDecision, TableLookup,
    TaskId,
};
use dare_simcore::check::{env_cases, run_cases, Gen};
use dare_simcore::SimTime;

/// Random topology: 4-12 nodes over 1-4 racks.
fn topology(g: &mut Gen) -> Topology {
    let nodes = g.usize_in(4..13);
    let racks = g.u32_in(1..5);
    let assignment: Vec<u32> = (0..nodes).map(|_| g.u32_in(0..racks)).collect();
    Topology::explicit(assignment, 10)
}

/// Random initial layout: every block gets 1-3 distinct replica nodes.
fn layout(g: &mut Gen, blocks: u64, nodes: u32) -> TableLookup {
    let mut t = TableLookup::new();
    for b in 0..blocks {
        let k = g.usize_in(1..4);
        let mut locs: Vec<u32> = Vec::new();
        for _ in 0..k {
            let n = g.u32_in(0..nodes);
            if !locs.contains(&n) {
                locs.push(n);
            }
        }
        t.set(b, &locs);
    }
    t
}

/// A job's tasks: usually 1-9, about one job in ten 100-399.
fn job_tasks(g: &mut Gen, blocks: u64) -> Vec<PendingTask> {
    let sizes = if g.bool(0.1) { 100..400 } else { 1..10 };
    g.vec(sizes, |g| g.u64_in(0..blocks))
        .into_iter()
        .enumerate()
        .map(|(t, b)| PendingTask {
            task: TaskId(t as u32),
            block: BlockId(b),
        })
        .collect()
}

struct Pair {
    indexed: JobQueue,
    naive: JobQueue,
}

impl Pair {
    fn add_job(
        &mut self,
        id: JobId,
        arrival: SimTime,
        tasks: Vec<PendingTask>,
        lookup: &TableLookup,
        topo: &Topology,
    ) {
        self.indexed
            .add_job(id, arrival, tasks.clone(), lookup, topo);
        self.naive.add_job(id, arrival, tasks, lookup, topo);
    }
}

#[allow(clippy::too_many_arguments)]
fn run_stream(
    g: &mut Gen,
    topo: &Topology,
    lookup: &mut TableLookup,
    pair: &mut Pair,
    indexed: &mut Scheduler,
    naive: &mut Scheduler,
    blocks: u64,
    nodes: u32,
) {
    let mut running: Vec<Assignment> = Vec::new();
    let mut next_job = pair.indexed.len() as u32;
    let mut offers = 0usize;
    let (mut skips_indexed, mut skips_naive): (Vec<SkipDecision>, Vec<SkipDecision>) =
        Default::default();
    let steps = g.usize_in(60..240);
    for step in 0..steps {
        match g.usize_in(0..16) {
            // Slot offers dominate the stream.
            0..=6 => {
                let node = NodeId(g.u32_in(0..nodes));
                let ai = indexed.pick_map(&mut pair.indexed, node, lookup, topo);
                let an = naive.pick_map(&mut pair.naive, node, lookup, topo);
                assert_eq!(
                    ai, an,
                    "offer {offers} on node {node:?} diverged (indexed vs naive)"
                );
                indexed.drain_skips(&mut skips_indexed);
                naive.drain_skips(&mut skips_naive);
                assert_eq!(
                    skips_indexed, skips_naive,
                    "offer {offers} on node {node:?}: skip decisions diverged"
                );
                skips_indexed.clear();
                skips_naive.clear();
                if let Some(a) = ai {
                    running.push(a);
                }
                offers += 1;
            }
            // A running task completes.
            7 => {
                if !running.is_empty() {
                    let i = g.usize_in(0..running.len());
                    let a = running.swap_remove(i);
                    pair.indexed.on_map_complete(a.job);
                    pair.naive.on_map_complete(a.job);
                }
            }
            // Replica promoted (dynamic replica became visible).
            8 => {
                let b = BlockId(g.u64_in(0..blocks));
                let n = NodeId(g.u32_in(0..nodes));
                if lookup.add_location(b, n) {
                    pair.indexed.note_replica_added(b, n, topo);
                    pair.naive.note_replica_added(b, n, topo);
                }
            }
            // Replica evicted.
            9 => {
                let b = BlockId(g.u64_in(0..blocks));
                let n = NodeId(g.u32_in(0..nodes));
                if lookup.remove_location(b, n) {
                    pair.indexed.note_replica_removed(b, n, topo);
                    pair.naive.note_replica_removed(b, n, topo);
                }
            }
            // A running attempt aborts and its task is requeued.
            10 => {
                if !running.is_empty() {
                    let i = g.usize_in(0..running.len());
                    let a = running.swap_remove(i);
                    pair.indexed
                        .requeue_task(a.job, a.task, a.block, lookup, topo);
                    pair.naive
                        .requeue_task(a.job, a.task, a.block, lookup, topo);
                }
            }
            // A job fails under faults and is abandoned on both queues.
            // The engine ignores completions of abandoned jobs, so drop
            // its running attempts too; a repeat abandon must be a no-op.
            11 => {
                if !running.is_empty() {
                    let i = g.usize_in(0..running.len());
                    let victim = running[i].job;
                    running.retain(|a| a.job != victim);
                    pair.indexed.abandon_job(victim);
                    pair.naive.abandon_job(victim);
                    pair.indexed.abandon_job(victim);
                    pair.naive.abandon_job(victim);
                }
            }
            // A node is declared dead: every replica it held vanishes at
            // once and the engine rebuilds from the lookup (the bulk
            // churn path, not incremental maintenance).
            12 => {
                let n = NodeId(g.u32_in(0..nodes));
                for b in 0..blocks {
                    lookup.remove_location(BlockId(b), n);
                }
                pair.indexed.rebuild_index(lookup, topo);
                pair.naive.rebuild_index(lookup, topo);
            }
            // A node rejoins and its block report restores a batch of
            // replicas through the incremental path.
            13 => {
                let n = NodeId(g.u32_in(0..nodes));
                for _ in 0..g.usize_in(1..6) {
                    let b = BlockId(g.u64_in(0..blocks));
                    if lookup.add_location(b, n) {
                        pair.indexed.note_replica_added(b, n, topo);
                        pair.naive.note_replica_added(b, n, topo);
                    }
                }
            }
            // A job whose maps are all done leaves the queue (the engine
            // retires it on its last completion); its entry is recycled.
            14 => {
                let done = |q: &JobQueue| -> Vec<JobId> {
                    q.jobs()
                        .iter()
                        .filter(|j| j.maps_exhausted() && j.running_maps() == 0)
                        .map(|j| j.id)
                        .collect()
                };
                let ids = done(&pair.indexed);
                assert_eq!(ids, done(&pair.naive), "retirable jobs diverged");
                if !ids.is_empty() {
                    let id = ids[g.usize_in(0..ids.len())];
                    pair.indexed.retire_job(id);
                    pair.naive.retire_job(id);
                }
            }
            // A new job arrives; occasionally force a full index rebuild
            // (the engine's node-failure path) which must be a no-op
            // relative to incremental maintenance.
            _ => {
                if g.bool(0.3) {
                    pair.indexed.rebuild_index(lookup, topo);
                } else {
                    let tasks = job_tasks(g, blocks);
                    pair.add_job(
                        JobId(next_job),
                        SimTime::from_secs(step as u64),
                        tasks,
                        lookup,
                        topo,
                    );
                    next_job += 1;
                }
            }
        }
        assert_eq!(
            pair.indexed.total_pending(),
            pair.naive.total_pending(),
            "pending counts diverged at step {step}"
        );
    }
}

fn check(seed: u64, kind: fn(&mut Gen) -> SchedulerKind) {
    run_cases(env_cases(40), seed, |g| {
        let topo = topology(g);
        let nodes = topo.nodes();
        let blocks = g.u64_in(8..48);
        let mut lookup = layout(g, blocks, nodes);
        let mut pair = Pair {
            indexed: JobQueue::new(),
            naive: JobQueue::new(),
        };
        let njobs = g.usize_in(1..6);
        for j in 0..njobs {
            let tasks = job_tasks(g, blocks);
            pair.add_job(JobId(j as u32), SimTime::ZERO, tasks, &lookup, &topo);
        }
        let kind = kind(g);
        let mut indexed = Scheduler::new(kind);
        let mut naive = Scheduler::naive(kind);
        indexed.set_tracing(true);
        naive.set_tracing(true);
        run_stream(
            g,
            &topo,
            &mut lookup,
            &mut pair,
            &mut indexed,
            &mut naive,
            blocks,
            nodes,
        );
    });
}

#[test]
fn fifo_indexed_matches_naive_scan() {
    check(0xD1FF_0001, |_| SchedulerKind::Fifo);
}

#[test]
fn fair_indexed_matches_naive_scan() {
    check(0xD1FF_0002, |g| {
        let d1 = g.u32_in(0..5);
        let d2 = d1 + g.u32_in(0..5);
        SchedulerKind::Fair(FairConfig { d1, d2 })
    });
}

#[test]
fn capacity_indexed_matches_naive_scan() {
    check(0xD1FF_0003, |g| SchedulerKind::Capacity(g.u32_in(1..4)));
}
