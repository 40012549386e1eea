//! Hadoop's default FIFO scheduler ([`SchedulerKind::Fifo`]).
//!
//! Jobs are served strictly in arrival order. Within the job at the head of
//! the queue the scheduler prefers, for the heartbeating node, a node-local
//! map task, then a rack-local one, then any pending task. If the head job
//! has no pending maps (all handed out, some still running) the scheduler
//! falls through to the next job — Hadoop behaves the same way so slots
//! aren't wasted during a job's tail.
//!
//! Crucially, FIFO never *declines* a slot to wait for locality: the first
//! job with pending work always launches something. That head-of-line
//! behaviour is what caps vanilla FIFO locality near
//! `replication_factor / cluster_size` for small jobs.
//!
//! Task selection is answered by the queue's locality index
//! ([`JobQueue::pick_best_for`]): one hashed lookup of the node's (then the
//! rack's) ascending position list, whose head is the pick, without
//! touching the per-task location lists. An offer is one probe.
//!
//! [`SchedulerKind::Fifo`]: crate::SchedulerKind::Fifo

use crate::queue::{JobId, JobQueue};

/// The first job (arrival order) with pending maps: it gets the slot.
pub(crate) fn head_job(queue: &JobQueue) -> Option<JobId> {
    Some(queue.jobs().iter().find(|j| !j.pending().is_empty())?.id)
}

#[cfg(test)]
mod tests {
    use crate::locality::Locality;
    use crate::queue::{JobId, JobQueue};
    use crate::{tasks, Scheduler, SchedulerKind, TableLookup};
    use dare_dfs::BlockId;
    use dare_net::{NodeId, Topology};
    use dare_simcore::SimTime;

    #[test]
    fn prefers_node_local_within_head_job() {
        let topo = Topology::single_rack(4);
        let lookup = TableLookup::from_pairs(&[(10, vec![1]), (11, vec![2])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 11]), &lookup, &topo);
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        let a = s
            .pick_map(&mut q, NodeId(2), &lookup, &topo)
            .expect("slot filled");
        assert_eq!(a.block, BlockId(11));
        assert_eq!(a.locality, Locality::NodeLocal);
    }

    #[test]
    fn head_job_launches_remote_rather_than_waiting() {
        let topo = Topology::single_rack(4);
        // Job 1's block is local to node 3, job 0's is not — FIFO must still
        // serve job 0 (remotely).
        let lookup = TableLookup::from_pairs(&[(10, vec![0]), (11, vec![3])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lookup, &topo);
        q.add_job(
            JobId(1),
            SimTime::from_secs(1),
            tasks(&[11]),
            &lookup,
            &topo,
        );
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        let a = s
            .pick_map(&mut q, NodeId(3), &lookup, &topo)
            .expect("slot filled");
        assert_eq!(a.job, JobId(0), "strict arrival order");
        // single rack: non-local means rack-local here
        assert_eq!(a.locality, Locality::RackLocal);
    }

    #[test]
    fn falls_through_when_head_job_drained() {
        let topo = Topology::single_rack(4);
        let lookup = TableLookup::from_pairs(&[(10, vec![0]), (11, vec![1])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lookup, &topo);
        q.add_job(
            JobId(1),
            SimTime::from_secs(1),
            tasks(&[11]),
            &lookup,
            &topo,
        );
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        // Drain job 0's only task.
        s.pick_map(&mut q, NodeId(0), &lookup, &topo)
            .expect("job 0 task");
        // Job 0 still running but has nothing pending: job 1 gets the slot.
        let a = s
            .pick_map(&mut q, NodeId(1), &lookup, &topo)
            .expect("job 1 task");
        assert_eq!(a.job, JobId(1));
        assert_eq!(a.locality, Locality::NodeLocal);
    }

    #[test]
    fn returns_none_when_nothing_pending() {
        let topo = Topology::single_rack(2);
        let lookup = TableLookup::new();
        let mut q = JobQueue::new();
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        assert!(s.pick_map(&mut q, NodeId(0), &lookup, &topo).is_none());
    }

    #[test]
    fn rack_local_beats_remote_on_multirack() {
        // node0+node1 in rack0; node2 in rack1
        let topo = Topology::explicit(vec![0, 0, 1], 10);
        // block 10 off-rack (node 2); block 11 rack-local to node 0 (node 1)
        let lookup = TableLookup::from_pairs(&[(10, vec![2]), (11, vec![1])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 11]), &lookup, &topo);
        let mut s = Scheduler::new(SchedulerKind::Fifo);
        let a = s
            .pick_map(&mut q, NodeId(0), &lookup, &topo)
            .expect("slot filled");
        assert_eq!(a.block, BlockId(11));
        assert_eq!(a.locality, Locality::RackLocal);
    }
}
