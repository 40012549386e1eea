//! Property-based scheduler tests: whatever the job mix and offer
//! sequence, every scheduler hands out each task exactly once, reports
//! the locality that the oracle would compute, and never invents work.

use dare_dfs::BlockId;
use dare_net::{NodeId, Topology};
use dare_sched::locality::classify;
use dare_sched::{JobId, JobQueue, PendingTask, Scheduler, SchedulerKind, TableLookup, TaskId};
use dare_simcore::check::{env_cases, run_cases, Gen};
use dare_simcore::SimTime;
use std::collections::{HashMap, HashSet};

const NODES: u32 = 8;
const BLOCKS: u64 = 64;

#[derive(Debug, Clone)]
struct JobSpec {
    tasks: Vec<u64>, // block ids
}

fn jobs(g: &mut Gen) -> Vec<JobSpec> {
    g.vec(1..8, |g| JobSpec {
        tasks: g.vec(1..12, |g| g.u64_in(0..BLOCKS)),
    })
}

fn offers(g: &mut Gen) -> Vec<u32> {
    g.vec(1..16, |g| g.u32_in(0..NODES))
}

/// Deterministic pseudo-random replica locations per block (1-3 replicas).
fn locations() -> TableLookup {
    let mut t = TableLookup::new();
    for b in 0..BLOCKS {
        let k = 1 + (b % 3) as u32;
        let nodes: Vec<u32> = (0..k)
            .map(|i| ((b * 7 + i as u64 * 13) % NODES as u64) as u32)
            .collect();
        // Replica lists may repeat a node for some block ids; dedup to
        // honour the "locations are unique" contract.
        let mut uniq = Vec::new();
        for n in nodes {
            if !uniq.contains(&n) {
                uniq.push(n);
            }
        }
        t.set(b, &uniq);
    }
    t
}

fn build_queue(jobs: &[JobSpec], lookup: &TableLookup, topo: &Topology) -> JobQueue {
    let mut q = JobQueue::new();
    for (j, spec) in jobs.iter().enumerate() {
        let tasks: Vec<PendingTask> = spec
            .tasks
            .iter()
            .enumerate()
            .map(|(t, &b)| PendingTask {
                task: TaskId(t as u32),
                block: BlockId(b),
            })
            .collect();
        q.add_job(
            JobId(j as u32),
            SimTime::from_secs(j as u64),
            tasks,
            lookup,
            topo,
        );
    }
    q
}

/// Drain the queue by offering slots round-robin; returns assignments.
fn drain(
    sched: &mut Scheduler,
    q: &mut JobQueue,
    lookup: &TableLookup,
    topo: &Topology,
    offers: &[u32],
) -> Vec<(JobId, TaskId, BlockId, dare_sched::Locality)> {
    let mut out = Vec::new();
    let mut idle_rounds = 0;
    let mut i = 0;
    // Fair can decline offers; completing tasks clears running counts so
    // its deficit ordering keeps moving. Simulate instant completion.
    while q.has_pending() && idle_rounds < 10_000 {
        let node = NodeId(offers[i % offers.len()]);
        i += 1;
        match sched.pick_map(q, node, lookup, topo) {
            Some(a) => {
                out.push((a.job, a.task, a.block, a.locality));
                q.on_map_complete(a.job);
                idle_rounds = 0;
            }
            None => idle_rounds += 1,
        }
    }
    out
}

fn check_all(jobs: &[JobSpec], offers: &[u32]) {
    let topo = Topology::explicit(vec![0, 0, 1, 1, 2, 2, 3, 3], 2);
    let lookup = locations();
    let total: usize = jobs.iter().map(|j| j.tasks.len()).sum();

    let kinds = [
        SchedulerKind::Fifo,
        SchedulerKind::fair_default(),
        SchedulerKind::Capacity(3),
    ];
    for kind in kinds {
        let name = kind.label();
        let mut q = build_queue(jobs, &lookup, &topo);
        let mut sched = Scheduler::new(kind);
        let out = drain(&mut sched, &mut q, &lookup, &topo, offers);

        // Every task assigned exactly once.
        assert_eq!(out.len(), total, "{name}: task conservation");
        let mut seen: HashSet<(u32, u32)> = HashSet::new();
        for (j, t, _, _) in &out {
            assert!(seen.insert((j.0, t.0)), "{name}: duplicate assignment");
        }
        // Blocks match the original specs.
        let mut per_job: HashMap<u32, Vec<(u32, u64)>> = HashMap::new();
        for (j, t, b, _) in &out {
            per_job.entry(j.0).or_default().push((t.0, b.0));
        }
        for (j, spec) in jobs.iter().enumerate() {
            let mut got = per_job.remove(&(j as u32)).unwrap_or_default();
            got.sort_unstable();
            let want: Vec<(u32, u64)> = spec
                .tasks
                .iter()
                .enumerate()
                .map(|(t, &b)| (t as u32, b))
                .collect();
            assert_eq!(got, want, "{name}: job {j} task/block mapping");
        }
        // Queue is fully drained.
        assert_eq!(q.total_pending(), 0, "{name}: queue drained");
    }
}

#[test]
fn schedulers_conserve_tasks() {
    run_cases(env_cases(48), 0x5C4E_0001, |g| {
        let jobs = jobs(g);
        let offers = offers(g);
        check_all(&jobs, &offers);
    });
}

#[test]
fn reported_locality_matches_oracle() {
    run_cases(env_cases(48), 0x5C4E_0002, |g| {
        let jobs = jobs(g);
        let offers = offers(g);
        let topo = Topology::explicit(vec![0, 0, 1, 1, 2, 2, 3, 3], 2);
        let lookup = locations();
        let mut q = build_queue(&jobs, &lookup, &topo);
        let mut sched = Scheduler::new(SchedulerKind::Fifo);
        let mut i = 0;
        while q.has_pending() {
            let node = NodeId(offers[i % offers.len()]);
            i += 1;
            if let Some(a) = sched.pick_map(&mut q, node, &lookup, &topo) {
                let want = classify(a.block, node, &lookup, &topo);
                assert_eq!(a.locality, want, "locality class mismatch");
                q.on_map_complete(a.job);
            }
        }
    });
}
