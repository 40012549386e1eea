//! A simplified Hadoop Capacity scheduler — the third classic Hadoop
//! scheduler, included to stress the paper's claim that DARE is
//! *scheduler-agnostic* beyond the two schedulers the paper evaluates.
//!
//! Model: jobs hash into `queues` organizational queues, each entitled to
//! an equal share of the cluster's map slots. When a slot frees up the
//! scheduler serves the **most underserved** queue (lowest
//! running/capacity ratio, ties to the lower queue id), FIFO within the
//! queue, with the same node-local > rack-local > any preference as FIFO.
//! Queues are *elastic*: an empty queue's share is usable by the others
//! (no hard caps), matching the Hadoop scheduler's default behaviour.
//!
//! Within-job task selection uses the queue's locality index
//! ([`JobQueue::pick_best_for`]); [`crate::oracle::NaiveCapacityScheduler`]
//! keeps the original scan for the differential tests.

use crate::queue::{Assignment, JobQueue};
use crate::{LocationLookup, Scheduler};
use dare_net::{NodeId, Topology};
use dare_simcore::SimTime;

/// The Capacity scheduler.
#[derive(Debug)]
pub struct CapacityScheduler {
    queues: u32,
    /// Reused per offer: running maps and pending flags per queue.
    running_scratch: Vec<u32>,
    pending_scratch: Vec<bool>,
}

impl CapacityScheduler {
    /// Scheduler with `queues` equal-capacity queues (≥ 1).
    pub fn new(queues: u32) -> Self {
        assert!(queues >= 1, "need at least one queue");
        CapacityScheduler {
            queues,
            running_scratch: vec![0; queues as usize],
            pending_scratch: vec![false; queues as usize],
        }
    }

    /// Number of configured queues.
    pub fn queues(&self) -> u32 {
        self.queues
    }
}

impl Scheduler for CapacityScheduler {
    fn pick_map(
        &mut self,
        queue: &mut JobQueue,
        node: NodeId,
        _lookup: &dyn LocationLookup,
        topo: &Topology,
        _now: SimTime,
    ) -> Option<Assignment> {
        // Usage per organizational queue (running maps).
        let running = &mut self.running_scratch;
        let has_pending = &mut self.pending_scratch;
        running.fill(0);
        has_pending.fill(false);
        for j in queue.jobs() {
            let q = (j.id.0 % self.queues) as usize;
            running[q] += j.running_maps();
            has_pending[q] |= !j.pending().is_empty();
        }
        // Most underserved queue with pending work (equal capacities, so
        // raw running count orders them), ties by queue id. Like FIFO, the
        // capacity scheduler never declines an offer, so only the first
        // candidate queue is ever consulted.
        let q = (0..self.queues)
            .filter(|&q| has_pending[q as usize])
            .min_by_key(|&q| (running[q as usize], q))?;
        // FIFO within the queue.
        let job_id = queue
            .jobs()
            .iter()
            .find(|j| j.id.0 % self.queues == q && !j.pending().is_empty())
            .map(|j| j.id)
            .expect("chosen queue has pending work");
        let (idx, loc) = queue
            .pick_best_for(job_id, node, topo)
            .expect("pending non-empty");
        let t = queue.take_task(job_id, idx);
        Some(Assignment {
            job: job_id,
            task: t.task,
            block: t.block,
            locality: loc,
        })
    }

    fn name(&self) -> &'static str {
        "capacity"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::locality::Locality;
    use crate::queue::{JobId, PendingTask, TaskId};
    use crate::TableLookup;
    use dare_dfs::BlockId;

    fn tasks(blocks: &[u64]) -> Vec<PendingTask> {
        blocks
            .iter()
            .enumerate()
            .map(|(i, &b)| PendingTask {
                task: TaskId(i as u32),
                block: BlockId(b),
            })
            .collect()
    }

    fn anywhere() -> TableLookup {
        TableLookup::everywhere(4)
    }

    #[test]
    fn serves_underserved_queue_first() {
        let topo = Topology::single_rack(4);
        let lookup = anywhere();
        let mut q = JobQueue::new();
        // jobs 0 and 2 hash to queue 0; job 1 to queue 1 (2 queues).
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1, 2, 3]), &lookup, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[4, 5]), &lookup, &topo);
        let mut s = CapacityScheduler::new(2);
        // First slot: both queues at 0 running; tie -> queue 0 -> job 0.
        let a = s
            .pick_map(&mut q, NodeId(0), &lookup, &topo, SimTime::ZERO)
            .expect("slot filled");
        assert_eq!(a.job, JobId(0));
        // Queue 0 now has 1 running; queue 1 is underserved -> job 1.
        let b = s
            .pick_map(&mut q, NodeId(1), &lookup, &topo, SimTime::ZERO)
            .expect("slot filled");
        assert_eq!(b.job, JobId(1));
        // Even again: back to queue 0.
        let c = s
            .pick_map(&mut q, NodeId(2), &lookup, &topo, SimTime::ZERO)
            .expect("slot filled");
        assert_eq!(c.job, JobId(0));
    }

    #[test]
    fn elastic_when_other_queue_is_empty() {
        let topo = Topology::single_rack(4);
        let lookup = anywhere();
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1, 2, 3, 4]), &lookup, &topo);
        let mut s = CapacityScheduler::new(3);
        // Only queue 0 has work: it may use every slot.
        for _ in 0..4 {
            let a = s
                .pick_map(&mut q, NodeId(0), &lookup, &topo, SimTime::ZERO)
                .expect("elastic capacity");
            assert_eq!(a.job, JobId(0));
        }
        assert!(s
            .pick_map(&mut q, NodeId(0), &lookup, &topo, SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn prefers_node_local_within_chosen_job() {
        let topo = Topology::single_rack(4);
        let lookup = TableLookup::from_pairs(&[(10, vec![0]), (11, vec![2])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 11]), &lookup, &topo);
        let mut s = CapacityScheduler::new(2);
        let a = s
            .pick_map(&mut q, NodeId(2), &lookup, &topo, SimTime::ZERO)
            .expect("slot filled");
        assert_eq!(a.block, BlockId(11));
        assert_eq!(a.locality, Locality::NodeLocal);
    }

    #[test]
    fn fifo_within_queue() {
        let topo = Topology::single_rack(4);
        let lookup = anywhere();
        let mut q = JobQueue::new();
        // jobs 0, 2, 4 all in queue 0 (2 queues)
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1]), &lookup, &topo);
        q.add_job(JobId(2), SimTime::from_secs(1), tasks(&[2]), &lookup, &topo);
        q.add_job(JobId(4), SimTime::from_secs(2), tasks(&[3]), &lookup, &topo);
        let mut s = CapacityScheduler::new(2);
        let order: Vec<u32> = (0..3)
            .map(|_| {
                s.pick_map(&mut q, NodeId(0), &lookup, &topo, SimTime::ZERO)
                    .expect("slot filled")
                    .job
                    .0
            })
            .collect();
        assert_eq!(order, vec![0, 2, 4]);
    }

    #[test]
    #[should_panic]
    fn zero_queues_rejected() {
        let _ = CapacityScheduler::new(0);
    }
}
