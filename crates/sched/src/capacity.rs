//! A simplified Hadoop Capacity scheduler ([`SchedulerKind::Capacity`]) —
//! the third classic Hadoop scheduler, included to stress the paper's
//! claim that DARE is *scheduler-agnostic* beyond the two schedulers the
//! paper evaluates.
//!
//! Model: jobs hash into `queues` organizational queues, each entitled to
//! an equal share of the cluster's map slots. When a slot frees up the
//! scheduler serves the **most underserved** queue (lowest
//! running/capacity ratio, ties to the lower queue id), FIFO within the
//! queue, with the same node-local > rack-local > any preference as FIFO.
//! Queues are *elastic*: an empty queue's share is usable by the others
//! (no hard caps), matching the Hadoop scheduler's default behaviour.
//!
//! [`SchedulerKind::Capacity`]: crate::SchedulerKind::Capacity

use crate::queue::{JobId, JobQueue};

/// The first job of the most underserved of `queues` organizational
/// queues with pending work. `tally` is reusable scratch.
pub(crate) fn least_served_job(
    queue: &JobQueue,
    queues: u32,
    tally: &mut Vec<(u32, bool)>,
) -> Option<JobId> {
    // Usage per organizational queue: (running maps, has pending).
    tally.clear();
    tally.resize(queues as usize, (0, false));
    for j in queue.jobs() {
        let t = &mut tally[(j.id.0 % queues) as usize];
        t.0 += j.running_maps();
        t.1 |= !j.pending().is_empty();
    }
    // Most underserved queue with pending work (equal capacities, so
    // raw running count orders them), ties by queue id. Like FIFO, the
    // capacity scheduler never declines an offer, so only the first
    // candidate queue is ever consulted.
    let q = (0..queues)
        .filter(|&q| tally[q as usize].1)
        .min_by_key(|&q| (tally[q as usize].0, q))?;
    // FIFO within the queue.
    queue
        .jobs()
        .iter()
        .find(|j| j.id.0 % queues == q && !j.pending().is_empty())
        .map(|j| j.id)
}

#[cfg(test)]
mod tests {
    use crate::locality::Locality;
    use crate::queue::{JobId, JobQueue};
    use crate::{tasks, Scheduler, SchedulerKind, TableLookup};
    use dare_dfs::BlockId;
    use dare_net::{NodeId, Topology};
    use dare_simcore::SimTime;

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
        q.add_job(
            JobId(1),
            SimTime::from_secs(1),
            tasks(&[4, 5]),
            &lookup,
            &topo,
        );
        let mut s = Scheduler::new(SchedulerKind::Capacity(2));
        // First slot: both queues at 0 running; tie -> queue 0 -> job 0.
        let a = s
            .pick_map(&mut q, NodeId(0), &lookup, &topo)
            .expect("slot filled");
        assert_eq!(a.job, JobId(0));
        // Queue 0 now has 1 running; queue 1 is underserved -> job 1.
        let b = s
            .pick_map(&mut q, NodeId(1), &lookup, &topo)
            .expect("slot filled");
        assert_eq!(b.job, JobId(1));
        // Even again: back to queue 0.
        let c = s
            .pick_map(&mut q, NodeId(2), &lookup, &topo)
            .expect("slot filled");
        assert_eq!(c.job, JobId(0));
    }

    #[test]
    fn elastic_when_other_queue_is_empty() {
        let topo = Topology::single_rack(4);
        let lookup = anywhere();
        let mut q = JobQueue::new();
        q.add_job(
            JobId(0),
            SimTime::ZERO,
            tasks(&[1, 2, 3, 4]),
            &lookup,
            &topo,
        );
        let mut s = Scheduler::new(SchedulerKind::Capacity(3));
        // Only queue 0 has work: it may use every slot.
        for _ in 0..4 {
            let a = s
                .pick_map(&mut q, NodeId(0), &lookup, &topo)
                .expect("elastic capacity");
            assert_eq!(a.job, JobId(0));
        }
        assert!(s.pick_map(&mut q, NodeId(0), &lookup, &topo).is_none());
    }

    #[test]
    fn prefers_node_local_within_chosen_job() {
        let topo = Topology::single_rack(4);
        let lookup = TableLookup::from_pairs(&[(10, vec![0]), (11, vec![2])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 11]), &lookup, &topo);
        let mut s = Scheduler::new(SchedulerKind::Capacity(2));
        let a = s
            .pick_map(&mut q, NodeId(2), &lookup, &topo)
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
        let mut s = Scheduler::new(SchedulerKind::Capacity(2));
        let order: Vec<u32> = (0..3)
            .map(|_| {
                s.pick_map(&mut q, NodeId(0), &lookup, &topo)
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
        let _ = Scheduler::new(SchedulerKind::Capacity(0));
    }
}
