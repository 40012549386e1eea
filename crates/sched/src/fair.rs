//! The Fair scheduler with delay scheduling (Zaharia et al., EuroSys 2010).
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
//! ([`JobQueue::pick_best_for`]). An offer sorts, copies and allocates
//! nothing, and examines exactly the jobs a sort-then-scan would: the
//! declined jobs before the taker. [`crate::oracle::NaiveFairScheduler`]
//! keeps the original sort-plus-scan for the differential tests.

use crate::locality::Locality;
use crate::queue::{Assignment, JobQueue};
use crate::{LocationLookup, Scheduler, SkipDecision};
use dare_net::{NodeId, Topology};
use dare_simcore::SimTime;

/// Fair scheduler configuration.
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

/// The Fair scheduler with delay scheduling.
#[derive(Debug, Default)]
pub struct FairScheduler {
    cfg: FairConfig,
    /// When true, declined opportunities are pushed onto `skip_log`.
    trace: bool,
    /// Skip decisions awaiting a [`Scheduler::drain_skips`] call.
    skip_log: Vec<SkipDecision>,
}

impl FairScheduler {
    /// Scheduler with default skip thresholds.
    pub fn new() -> Self {
        Self::default()
    }

    /// Scheduler with explicit thresholds (the `abl-delay` sweep).
    pub fn with_config(cfg: FairConfig) -> Self {
        assert!(cfg.d1 <= cfg.d2, "rack threshold must not exceed any");
        FairScheduler {
            cfg,
            trace: false,
            skip_log: Vec::new(),
        }
    }

    /// Active configuration.
    pub fn config(&self) -> FairConfig {
        self.cfg
    }
}

impl Scheduler for FairScheduler {
    fn pick_map(
        &mut self,
        queue: &mut JobQueue,
        node: NodeId,
        _lookup: &dyn LocationLookup,
        topo: &Topology,
        _now: SimTime,
    ) -> Option<Assignment> {
        // Deficit order: fewest running maps first, then arrival order.
        // Skips only touch `skip_count`, so the order holds for the walk.
        let mut k = 0;
        while let Some(job_id) = queue.deficit_nth(k) {
            k += 1;
            let Some((idx, loc)) = queue.pick_best_for(job_id, node, topo) else {
                continue; // nothing pending: all its maps are running
            };
            let job = queue.job_mut(job_id).expect("job exists");
            let skip_count = job.skip_count;
            let allowed = match loc {
                Locality::NodeLocal => true,
                Locality::RackLocal => skip_count >= self.cfg.d1,
                Locality::Remote => skip_count >= self.cfg.d2,
            };
            if allowed {
                // Launching locally resets patience; a forced non-local
                // launch also resets it (the job got its slot).
                job.skip_count = 0;
                let t = queue.take_task(job_id, idx);
                return Some(Assignment {
                    job: job_id,
                    task: t.task,
                    block: t.block,
                    locality: loc,
                });
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
        None
    }

    fn name(&self) -> &'static str {
        "fair"
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.trace = enabled;
        if !enabled {
            self.skip_log.clear();
        }
    }

    fn drain_skips(&mut self, out: &mut Vec<SkipDecision>) {
        out.append(&mut self.skip_log);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn skips_nonlocal_job_in_favor_of_local_one() {
        let topo = Topology::single_rack(4);
        // job 0's data on node 0; job 1's data on node 3.
        let lookup = TableLookup::from_pairs(&[(10, vec![0]), (11, vec![3])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lookup, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[11]), &lookup, &topo);
        let mut s = FairScheduler::new();
        // Offer node 3: job 0 (fewest running, earliest) is non-local and
        // must wait; job 1 launches node-local.
        let a = s
            .pick_map(&mut q, NodeId(3), &lookup, &topo, SimTime::ZERO)
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
        let mut s = FairScheduler::with_config(FairConfig { d1: 2, d2: 2 });
        // Two declined offers on a non-local node...
        for i in 0..2 {
            assert!(
                s.pick_map(&mut q, NodeId(3), &lookup, &topo, SimTime::ZERO)
                    .is_none(),
                "offer {i} declined"
            );
        }
        // ...then the job gives up and launches non-locally.
        let a = s
            .pick_map(&mut q, NodeId(3), &lookup, &topo, SimTime::ZERO)
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
        let mut s = FairScheduler::with_config(FairConfig { d1: 1, d2: 10 });
        assert!(
            s.pick_map(&mut q, NodeId(0), &lookup, &topo, SimTime::ZERO)
                .is_none(),
            "first offer declined"
        );
        let a = s
            .pick_map(&mut q, NodeId(0), &lookup, &topo, SimTime::ZERO)
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
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[11]), &lookup, &topo);
        let mut s = FairScheduler::new();
        // Job 0 gets the first slot (tie at 0 running, earlier arrival).
        let a = s
            .pick_map(&mut q, NodeId(0), &lookup, &topo, SimTime::ZERO)
            .expect("slot");
        assert_eq!(a.job, JobId(0));
        // Now job 0 has 1 running, job 1 has 0: job 1 is next despite
        // arriving later.
        let b = s
            .pick_map(&mut q, NodeId(1), &lookup, &topo, SimTime::ZERO)
            .expect("slot");
        assert_eq!(b.job, JobId(1));
    }

    #[test]
    fn none_when_everything_waits() {
        let topo = Topology::single_rack(3);
        let lookup = TableLookup::from_pairs(&[(10, vec![0])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lookup, &topo);
        let mut s = FairScheduler::new(); // default d1=4
        assert!(s
            .pick_map(&mut q, NodeId(2), &lookup, &topo, SimTime::ZERO)
            .is_none());
    }

    #[test]
    #[should_panic]
    fn invalid_thresholds_rejected() {
        let _ = FairScheduler::with_config(FairConfig { d1: 5, d2: 1 });
    }

    #[test]
    fn skip_decisions_are_recorded_only_when_tracing() {
        let topo = Topology::single_rack(4);
        let lookup = TableLookup::from_pairs(&[(10, vec![0])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lookup, &topo);
        let mut s = FairScheduler::with_config(FairConfig { d1: 2, d2: 2 });
        // Tracing off: declines happen but nothing is logged.
        assert!(s
            .pick_map(&mut q, NodeId(3), &lookup, &topo, SimTime::ZERO)
            .is_none());
        let mut out = Vec::new();
        s.drain_skips(&mut out);
        assert!(out.is_empty());

        s.set_tracing(true);
        assert!(s
            .pick_map(&mut q, NodeId(3), &lookup, &topo, SimTime::ZERO)
            .is_none());
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
