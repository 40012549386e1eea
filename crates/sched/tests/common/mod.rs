//! Fixtures shared by the scheduler's allocation and speedup tests: the
//! paper's 100-node EC2 topology (99 workers), a skewed replica layout
//! and a queue of many concurrent jobs over it.

use dare_dfs::BlockId;
use dare_net::{ClusterProfile, Topology};
use dare_sched::{JobId, JobQueue, PendingTask, TableLookup, TaskId};
use dare_simcore::{DetRng, SimTime};

pub const JOBS: u32 = 64;
pub const TASKS_PER_JOB: usize = 256;
pub const BLOCKS: u64 = 2048;
const REPLICAS: u64 = 3;
/// Replicas live on this many nodes — the paper's skewed pre-replication
/// placement, where a popular dataset's blocks sit on a small fraction
/// of a big cluster. Most slot offers then come from nodes holding no
/// replica of any pending task: the naive scan's worst case (it only
/// early-exits on a node-local hit) and the scheduling-dominated regime
/// the index exists for.
const HOT_NODES: u64 = 10;

/// The paper's 100-node EC2 topology (99 workers).
pub fn ec2_topology() -> Topology {
    let mut rng = DetRng::new(0xEC2);
    ClusterProfile::ec2().build_topology(&mut rng)
}

/// Skewed placement: every block's replicas land on the hot subset.
pub fn layout() -> TableLookup {
    let mut t = TableLookup::new();
    for b in 0..BLOCKS {
        // offsets 0,3,6 are distinct mod HOT_NODES, so no dedup needed
        let locs: Vec<u32> = (0..REPLICAS)
            .map(|i| ((b * 7 + i * 3) % HOT_NODES) as u32)
            .collect();
        t.set(b, &locs);
    }
    t
}

/// `JOBS` jobs of `TASKS_PER_JOB` map tasks each, spread over `BLOCKS`.
pub fn fill_queue(lookup: &TableLookup, topo: &Topology) -> JobQueue {
    let mut q = JobQueue::new();
    for j in 0..JOBS {
        let tasks: Vec<PendingTask> = (0..TASKS_PER_JOB)
            .map(|t| PendingTask {
                task: TaskId(t as u32),
                block: BlockId((j as u64 * 131 + t as u64 * 17) % BLOCKS),
            })
            .collect();
        q.add_job(JobId(j), SimTime::from_secs(j as u64), tasks, lookup, topo);
    }
    q
}
