//! Micro-benchmarks of the simulator substrates: scheduler slot-offer hot
//! path, name-node location lookups and report processing, and flow-level
//! network churn.

use dare_bench::microbench::{black_box, Runner};
use dare_dfs::{BlockId, DefaultPlacement, Dfs, DfsConfig};
use dare_mapred::DfsLookup;
use dare_mapred::SchedulerKind;
use dare_net::flow::FlowSim;
use dare_net::{NodeId, Topology, MB};
use dare_sched::{JobId, JobQueue, PendingTask, Scheduler, TaskId};
use dare_simcore::{DetRng, SimTime};

fn build_dfs(nodes: u32, files: u32, blocks: u64) -> Dfs {
    let mut rng = DetRng::new(1);
    let mut dfs = Dfs::new(DfsConfig::default(), Topology::single_rack(nodes));
    for i in 0..files {
        dfs.create_file(
            SimTime::ZERO,
            format!("f{i}"),
            blocks * 128 * MB,
            None,
            &DefaultPlacement,
            &mut rng,
            false,
        );
    }
    dfs
}

fn fill_queue(dfs: &Dfs, jobs: u32, tasks_per_job: usize) -> JobQueue {
    let mut q = JobQueue::new();
    let nblocks = dfs.namenode().num_blocks() as u64;
    for j in 0..jobs {
        let tasks: Vec<PendingTask> = (0..tasks_per_job)
            .map(|t| PendingTask {
                task: TaskId(t as u32),
                block: BlockId((j as u64 * 31 + t as u64 * 7) % nblocks),
            })
            .collect();
        q.add_job(
            JobId(j),
            SimTime::from_secs(j as u64),
            tasks,
            &DfsLookup(dfs),
            dfs.topology(),
        );
    }
    q
}

fn scheduler_pick(r: &mut Runner) {
    let dfs = build_dfs(19, 64, 4);
    for kind in [SchedulerKind::Fifo, SchedulerKind::fair_default()] {
        let name = kind.label();
        for &jobs in &[4u32, 32] {
            r.bench_batched(
                &format!("scheduler_pick_map/{name}/{jobs}"),
                || (Scheduler::new(kind), fill_queue(&dfs, jobs, 8)),
                |(mut sched, mut q)| {
                    let lookup = DfsLookup(&dfs);
                    let mut node = 0u32;
                    while let Some(a) =
                        sched.pick_map(&mut q, NodeId(node % 19), &lookup, dfs.topology())
                    {
                        black_box(a);
                        node += 1;
                    }
                },
            );
        }
    }
}

fn namenode_ops(r: &mut Runner) {
    let dfs = build_dfs(19, 128, 4);
    let nblocks = dfs.namenode().num_blocks() as u64;
    let mut i = 0u64;
    r.bench("namenode/locations_lookup", move || {
        i = (i.wrapping_mul(2862933555777941757).wrapping_add(3037000493)) % nblocks;
        black_box(dfs.visible_locations(BlockId(i)).len())
    });
    r.bench_batched(
        "namenode/dynamic_report_cycle",
        || build_dfs(19, 16, 4),
        |mut dfs| {
            let n = dfs.namenode().num_blocks() as u64;
            for i in 0..n {
                let b = BlockId(i);
                let node = (0..19)
                    .map(NodeId)
                    .find(|&nd| !dfs.is_physically_present(nd, b));
                if let Some(node) = node {
                    dfs.insert_dynamic(SimTime::ZERO, node, b);
                }
            }
            dfs.process_reports(SimTime::from_secs(10));
            black_box(dfs.total_dynamic_bytes())
        },
    );
}

fn flow_churn(r: &mut Runner) {
    for &nodes in &[20usize, 100] {
        r.bench_batched(
            &format!("flowsim/churn/{nodes}"),
            || FlowSim::new(vec![100.0; nodes], 1.5),
            move |mut sim| {
                let n = nodes;
                let mut t = SimTime::ZERO;
                let mut rng = DetRng::new(3);
                for i in 0..200u64 {
                    let src = NodeId(rng.index(n) as u32);
                    let mut dst = NodeId(rng.index(n) as u32);
                    if dst == src {
                        dst = NodeId(((src.0 as usize + 1) % n) as u32);
                    }
                    sim.start(t, src, dst, 16 * MB, i % 3 == 0);
                    if let Some((tc, _)) = sim.next_completion() {
                        if i % 4 == 0 {
                            t = tc;
                            black_box(sim.collect_completed(t));
                        }
                    }
                }
                while let Some((tc, _)) = sim.next_completion() {
                    t = tc;
                    sim.collect_completed(t);
                }
                black_box(sim.total_started())
            },
        );
    }
}

fn main() {
    let mut r = Runner::from_env();
    scheduler_pick(&mut r);
    namenode_ops(&mut r);
    flow_churn(&mut r);
    r.finish("subsystems");
}
