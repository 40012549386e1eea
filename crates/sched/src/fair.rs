//! The Fair scheduler with delay scheduling (Zaharia et al., EuroSys 2010),
//! [`SchedulerKind::Fair`].
//!
//! Fair sharing: when a slot frees up, jobs are considered in order of
//! **fewest running map tasks** (deficit order — the job furthest below its
//! fair share goes first), ties broken by arrival. Delay scheduling then
//! decides *whether the job accepts the slot*:
//!
//! * a node-local task on the offered node is always launched (and resets
//!   the job's skip count);
//! * otherwise the job *skips* the opportunity — unless it has already
//!   skipped `d1` times (then it may launch rack-local) or `d2` times (then
//!   it may launch anywhere).
//!
//! Skipped jobs let jobs further down the order use the slot, which is the
//! whole point: some other job probably has local work here. The skip
//! thresholds are counted in scheduling opportunities, as in the original
//! paper (their `D` parameter); with heartbeats every 3 s on a loaded
//! cluster this approximates the 5-15 s wait times Zaharia et al. found
//! sufficient for near-perfect locality.
//!
//! The deficit order is the queue's incrementally maintained sorted key
//! vector, walked in place (`JobQueue::deficit_nth`) until the first job
//! accepts; per-job task selection comes from the locality index
//! ([`JobQueue::pick_best_for`]). The vector holds only the jobs with a
//! pending task, so the walk never visits a drained job (one whose maps
//! are all handed out), and an offer with nothing pending anywhere ends
//! at once. An offer sorts, copies and allocates nothing, and examines
//! exactly the jobs a sort-then-scan would: the declined jobs before the
//! taker. The reference scheduler walks [`crate::oracle`]'s full sort
//! instead, through the same accept rule.
//!
//! [`SchedulerKind::Fair`]: crate::SchedulerKind::Fair
//! [`JobQueue::pick_best_for`]: crate::JobQueue::pick_best_for

use crate::locality::Locality;
use crate::queue::{JobId, JobQueue};
use crate::{oracle, LocationLookup, Scheduler, SkipDecision};
use dare_net::{NodeId, Topology};

/// Fair scheduler configuration. `d1 <= d2` (checked by
/// [`crate::SchedulerKind::validate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FairConfig {
    /// Skipped opportunities before a job may launch rack-local.
    pub d1: u32,
    /// Skipped opportunities before a job may launch anywhere.
    pub d2: u32,
}

impl Default for FairConfig {
    fn default() -> Self {
        // ~2 heartbeat rounds of patience for rack, ~4 for anywhere — the
        // EuroSys paper's sweet spot scaled to our 3 s heartbeats.
        FairConfig { d1: 4, d2: 8 }
    }
}

impl Scheduler {
    /// Walk the deficit order until a job accepts the slot on `node`:
    /// `(job, pending position, locality)` of its task, `None` when every
    /// job declines or nothing is pending.
    pub(crate) fn fair_walk(
        &mut self,
        cfg: FairConfig,
        queue: &mut JobQueue,
        node: NodeId,
        lookup: &dyn LocationLookup,
        topo: &Topology,
    ) -> Option<(JobId, usize, Locality)> {
        // Deficit order: fewest running maps first, then arrival order.
        // Skips only touch `skip_count`, so the order holds for the walk.
        let sorted = self.naive.then(|| oracle::deficit_order(queue));
        let mut k = 0;
        loop {
            let job_id = match &sorted {
                Some(order) => *order.get(k)?,
                None => queue.deficit_nth(k)?,
            };
            k += 1;
            let Some((idx, loc)) = self.best_task(queue, job_id, node, lookup, topo) else {
                // Nothing pending: all its maps are running. Both orders
                // list only jobs with pending work; this is defensive.
                continue;
            };
            let job = queue.job_mut(job_id).expect("job exists");
            let skip_count = job.skip_count;
            let allowed = match loc {
                Locality::NodeLocal => true,
                Locality::RackLocal => skip_count >= cfg.d1,
                Locality::Remote => skip_count >= cfg.d2,
            };
            if allowed {
                // Launching locally resets patience; a forced non-local
                // launch also resets it (the job got its slot).
                job.skip_count = 0;
                return Some((job_id, idx, loc));
            }
            // Skip: remember the declined opportunity, try the next job.
            job.skip_count += 1;
            if self.trace {
                self.skip_log.push(SkipDecision {
                    job: job_id,
                    node,
                    offered: loc,
                    skips: skip_count,
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tasks, SchedulerKind, TableLookup};
    use dare_dfs::BlockId;
    use dare_simcore::SimTime;

    #[test]
    fn skips_nonlocal_job_in_favor_of_local_one() {
        let topo = Topology::single_rack(4);
        // job 0's data on node 0; job 1's data on node 3.
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
        let mut s = Scheduler::new(SchedulerKind::fair_default());
        // Offer node 3: job 0 (fewest running, earliest) is non-local and
        // must wait; job 1 launches node-local.
        let a = s
            .pick_map(&mut q, NodeId(3), &lookup, &topo)
            .expect("job 1 local launch");
        assert_eq!(a.job, JobId(1));
        assert_eq!(a.locality, Locality::NodeLocal);
        assert_eq!(q.job(JobId(0)).expect("active").skip_count, 1);
    }

    #[test]
    fn patience_exhausts_into_nonlocal_launch() {
        let topo = Topology::single_rack(4);
        let lookup = TableLookup::from_pairs(&[(10, vec![0])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lookup, &topo);
        let mut s = Scheduler::new(SchedulerKind::Fair(FairConfig { d1: 2, d2: 2 }));
        // Two declined offers on a non-local node...
        for i in 0..2 {
            assert!(
                s.pick_map(&mut q, NodeId(3), &lookup, &topo).is_none(),
                "offer {i} declined"
            );
        }
        // ...then the job gives up and launches non-locally.
        let a = s
            .pick_map(&mut q, NodeId(3), &lookup, &topo)
            .expect("patience exhausted");
        assert_eq!(a.job, JobId(0));
        assert_ne!(a.locality, Locality::NodeLocal);
        assert_eq!(q.job(JobId(0)).expect("active").skip_count, 0, "reset");
    }

    #[test]
    fn rack_local_allowed_before_remote() {
        // rack0: nodes 0,1 — rack1: nodes 2,3
        let topo = Topology::explicit(vec![0, 0, 1, 1], 10);
        // block 10: replica on node 1 (rack-local to node 0);
        // block 11: replica on node 3 (remote to node 0).
        let lookup = TableLookup::from_pairs(&[(10, vec![1]), (11, vec![3])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 11]), &lookup, &topo);
        let mut s = Scheduler::new(SchedulerKind::Fair(FairConfig { d1: 1, d2: 10 }));
        assert!(
            s.pick_map(&mut q, NodeId(0), &lookup, &topo).is_none(),
            "first offer declined"
        );
        let a = s
            .pick_map(&mut q, NodeId(0), &lookup, &topo)
            .expect("rack allowed after d1 skips");
        assert_eq!(a.block, BlockId(10));
        assert_eq!(a.locality, Locality::RackLocal);
    }

    #[test]
    fn fair_share_prefers_job_with_fewest_running() {
        let topo = Topology::single_rack(4);
        // Everything local everywhere so locality never blocks.
        let lookup = TableLookup::everywhere(4);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 12]), &lookup, &topo);
        q.add_job(
            JobId(1),
            SimTime::from_secs(1),
            tasks(&[11]),
            &lookup,
            &topo,
        );
        let mut s = Scheduler::new(SchedulerKind::fair_default());
        // Job 0 gets the first slot (tie at 0 running, earlier arrival).
        let a = s.pick_map(&mut q, NodeId(0), &lookup, &topo).expect("slot");
        assert_eq!(a.job, JobId(0));
        // Now job 0 has 1 running, job 1 has 0: job 1 is next despite
        // arriving later.
        let b = s.pick_map(&mut q, NodeId(1), &lookup, &topo).expect("slot");
        assert_eq!(b.job, JobId(1));
    }

    #[test]
    fn none_when_everything_waits() {
        let topo = Topology::single_rack(3);
        let lookup = TableLookup::from_pairs(&[(10, vec![0])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lookup, &topo);
        let mut s = Scheduler::new(SchedulerKind::fair_default()); // default d1=4
        assert!(s.pick_map(&mut q, NodeId(2), &lookup, &topo).is_none());
    }

    #[test]
    #[should_panic]
    fn invalid_thresholds_rejected() {
        let _ = Scheduler::new(SchedulerKind::Fair(FairConfig { d1: 5, d2: 1 }));
    }

    #[test]
    fn skip_decisions_are_recorded_only_when_tracing() {
        let topo = Topology::single_rack(4);
        let lookup = TableLookup::from_pairs(&[(10, vec![0])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lookup, &topo);
        let mut s = Scheduler::new(SchedulerKind::Fair(FairConfig { d1: 2, d2: 2 }));
        // Tracing off: declines happen but nothing is logged.
        assert!(s.pick_map(&mut q, NodeId(3), &lookup, &topo).is_none());
        let mut out = Vec::new();
        s.drain_skips(&mut out);
        assert!(out.is_empty());

        s.set_tracing(true);
        assert!(s.pick_map(&mut q, NodeId(3), &lookup, &topo).is_none());
        s.drain_skips(&mut out);
        assert_eq!(
            out,
            vec![SkipDecision {
                job: JobId(0),
                node: NodeId(3),
                offered: Locality::RackLocal,
                skips: 1,
            }],
            "second decline recorded with the pre-increment skip count"
        );
        // Drain is destructive.
        let mut again = Vec::new();
        s.drain_skips(&mut again);
        assert!(again.is_empty());
    }
}
