//! The shared job queue both schedulers operate on, with an **incremental
//! locality index**.
//!
//! The MapReduce engine owns job lifecycle (arrival, task completion, job
//! teardown); schedulers only *select* pending tasks. Keeping the pending
//! bookkeeping here lets the schedulers share it and keeps the engine
//! agnostic of scheduling policy.
//!
//! # The locality index
//!
//! The naive way to answer "best pending task of job J for node N" is to
//! scan J's pending vector and [`classify`](crate::locality::classify)
//! every task — O(tasks × replicas) per slot offer, the dominant cost of
//! large simulations. The queue instead maintains, per job, an inverted
//! index from node (and rack) to the pending tasks with a replica there,
//! ordered by pending position:
//!
//! * `by_node[n]` — `(position, task)` pairs for tasks with a replica on
//!   node `n`; the set minimum is the node-local pick.
//! * `by_rack[r]` — same for tasks with any replica in rack `r`; consulted
//!   only when `by_node` missed, so its minimum is the rack-local pick.
//! * neither hit → every pending task is remote → position 0 is the pick.
//!
//! That reproduces the scan's selection *bit-exactly*: the scan keeps the
//! first index of the best locality class (strict-improvement replacement,
//! early break on node-local), i.e. the minimum position within the best
//! class — precisely the set minima above. `tests/differential_oracle.rs`
//! enforces the equivalence against the retained scan implementation in
//! [`crate::oracle`] under replication churn on both schedulers.
//!
//! The index is maintained incrementally on every mutation (task taken:
//! `swap_remove` moves one task, so two tasks' entries are touched; task
//! requeued; replica promoted/evicted via [`JobQueue::note_replica_added`]
//! / [`JobQueue::note_replica_removed`]) and rebuilt wholesale only on
//! rare topology-wide events (node failure) via
//! [`JobQueue::rebuild_index`]. Queries and updates are allocation-free.
//!
//! The queue also keeps the Fair scheduler's **deficit order** — jobs
//! sorted by (running maps, arrival, id) — as a `BTreeSet` updated on the
//! same mutations, replacing a full sort per slot offer. The key is unique
//! per job, so set iteration order equals the stable sort it replaced.

use crate::locality::Locality;
use crate::LocationLookup;
use dare_dfs::BlockId;
use dare_net::{NodeId, Topology};
use dare_simcore::SimTime;
use dare_simcore::FxHashMap;
use std::collections::BTreeSet;

/// Identifier of a job (dense, in submission order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u32);

impl JobId {
    /// Index into per-job vectors.
    #[inline]
    pub fn idx(self) -> usize {
        self.0 as usize
    }
}

/// Identifier of a map task within its job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub u32);

/// One not-yet-scheduled map task.
#[derive(Debug, Clone, Copy)]
pub struct PendingTask {
    /// Task index within the job.
    pub task: TaskId,
    /// Input block the task reads.
    pub block: BlockId,
}

/// The outcome of a successful slot offer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Assignment {
    /// Job the task belongs to.
    pub job: JobId,
    /// Task within the job.
    pub task: TaskId,
    /// Input block.
    pub block: BlockId,
    /// Locality achieved by this placement.
    pub locality: Locality,
}

/// Sentinel pending position for tasks that are not pending.
const NO_POS: u32 = u32::MAX;

/// Per-job inverted locality index (see module docs).
#[derive(Debug, Clone, Default)]
struct LocalityIndex {
    /// Task id → current position in the pending vector (`NO_POS` if the
    /// task is not pending).
    pos: Vec<u32>,
    /// Task id → replica nodes currently indexed for it.
    nodes: Vec<Vec<NodeId>>,
    /// Task id → distinct racks of those nodes.
    racks: Vec<Vec<u32>>,
    /// Node → (pending position, task) pairs with a replica there.
    by_node: FxHashMap<u32, BTreeSet<(u32, u32)>>,
    /// Rack → (pending position, task) pairs with a replica in the rack.
    by_rack: FxHashMap<u32, BTreeSet<(u32, u32)>>,
}

impl LocalityIndex {
    fn ensure(&mut self, task: u32) {
        let need = task as usize + 1;
        if self.pos.len() < need {
            self.pos.resize(need, NO_POS);
            self.nodes.resize(need, Vec::new());
            self.racks.resize(need, Vec::new());
        }
    }

    /// Index a freshly pending task at `pos` with replica set `locs`.
    fn index_task(&mut self, task: u32, pos: u32, locs: &[NodeId], topo: &Topology) {
        self.ensure(task);
        debug_assert_eq!(self.pos[task as usize], NO_POS, "task already indexed");
        self.pos[task as usize] = pos;
        for &n in locs {
            if self.nodes[task as usize].contains(&n) {
                continue; // defensive: location lists are unique by contract
            }
            self.nodes[task as usize].push(n);
            self.by_node.entry(n.0).or_default().insert((pos, task));
            let r = topo.rack_of(n).0;
            if !self.racks[task as usize].contains(&r) {
                self.racks[task as usize].push(r);
                self.by_rack.entry(r).or_default().insert((pos, task));
            }
        }
    }

    /// Remove every index entry of `task` (it left the pending set).
    fn unindex_task(&mut self, task: u32) {
        self.ensure(task);
        let pos = self.pos[task as usize];
        debug_assert_ne!(pos, NO_POS, "task not indexed");
        for n in self.nodes[task as usize].drain(..) {
            if let Some(set) = self.by_node.get_mut(&n.0) {
                set.remove(&(pos, task));
            }
        }
        for r in self.racks[task as usize].drain(..) {
            if let Some(set) = self.by_rack.get_mut(&r) {
                set.remove(&(pos, task));
            }
        }
        self.pos[task as usize] = NO_POS;
    }

    /// The task moved inside the pending vector (`swap_remove` back-fill).
    fn set_pos(&mut self, task: u32, new_pos: u32) {
        let old = self.pos[task as usize];
        debug_assert_ne!(old, NO_POS);
        if old == new_pos {
            return;
        }
        for &n in &self.nodes[task as usize] {
            let set = self.by_node.get_mut(&n.0).expect("indexed node entry");
            set.remove(&(old, task));
            set.insert((new_pos, task));
        }
        for &r in &self.racks[task as usize] {
            let set = self.by_rack.get_mut(&r).expect("indexed rack entry");
            set.remove(&(old, task));
            set.insert((new_pos, task));
        }
        self.pos[task as usize] = new_pos;
    }

    /// A new replica of the task's block became visible on `node`.
    fn add_replica(&mut self, task: u32, node: NodeId, topo: &Topology) {
        self.ensure(task);
        let pos = self.pos[task as usize];
        if pos == NO_POS || self.nodes[task as usize].contains(&node) {
            return;
        }
        self.nodes[task as usize].push(node);
        self.by_node.entry(node.0).or_default().insert((pos, task));
        let r = topo.rack_of(node).0;
        if !self.racks[task as usize].contains(&r) {
            self.racks[task as usize].push(r);
            self.by_rack.entry(r).or_default().insert((pos, task));
        }
    }

    /// A replica of the task's block stopped being visible on `node`.
    fn remove_replica(&mut self, task: u32, node: NodeId, topo: &Topology) {
        self.ensure(task);
        let pos = self.pos[task as usize];
        if pos == NO_POS || !self.nodes[task as usize].contains(&node) {
            return;
        }
        self.nodes[task as usize].retain(|&n| n != node);
        if let Some(set) = self.by_node.get_mut(&node.0) {
            set.remove(&(pos, task));
        }
        let r = topo.rack_of(node).0;
        let rack_still_covered = self.nodes[task as usize]
            .iter()
            .any(|&n| topo.rack_of(n).0 == r);
        if !rack_still_covered {
            self.racks[task as usize].retain(|&x| x != r);
            if let Some(set) = self.by_rack.get_mut(&r) {
                set.remove(&(pos, task));
            }
        }
    }
}

/// Scheduler-visible state of one active job.
#[derive(Debug, Clone)]
pub struct JobEntry {
    /// Job identifier.
    pub id: JobId,
    /// Submission time (FIFO order, GMTT baseline).
    pub arrival: SimTime,
    /// Unscheduled map tasks. Private: every mutation must go through the
    /// queue so the locality index and deficit order stay consistent.
    pending: Vec<PendingTask>,
    /// Currently running map tasks (private for the same reason).
    running_maps: u32,
    /// Delay-scheduling state: consecutive scheduling opportunities this
    /// job declined for lack of a node-local task. Owned by the Fair
    /// scheduler; does not feed the index.
    pub skip_count: u32,
    index: LocalityIndex,
}

impl JobEntry {
    /// Unscheduled map tasks, in pending order.
    pub fn pending(&self) -> &[PendingTask] {
        &self.pending
    }

    /// Currently running map tasks.
    pub fn running_maps(&self) -> u32 {
        self.running_maps
    }

    /// True when every map task has been handed out.
    pub fn maps_exhausted(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Queue-depth snapshot for telemetry sampling (see [`JobQueue::depth`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueueDepth {
    /// Jobs with unfinished maps.
    pub jobs: usize,
    /// Unscheduled map tasks across jobs.
    pub pending_tasks: usize,
    /// Map attempts currently handed out to slots.
    pub running_maps: usize,
}

/// Active jobs in arrival order, plus the locality index and deficit order.
#[derive(Debug, Default)]
pub struct JobQueue {
    jobs: Vec<JobEntry>,
    /// Job id → position in `jobs` (kept dense on retire).
    by_id: FxHashMap<u32, usize>,
    /// Fair-scheduler deficit order: (running maps, arrival, id), unique
    /// per job, covering *all* active jobs (drained jobs are filtered at
    /// iteration time).
    deficit: BTreeSet<(u32, SimTime, JobId)>,
    /// Block → pending (job, task) pairs reading it; routes replica
    /// visibility changes to the per-job indexes.
    block_watchers: FxHashMap<u64, Vec<(JobId, TaskId)>>,
}

impl JobQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a job with its map tasks, indexing them under the block
    /// locations `lookup` reports *now* (kept current afterwards via the
    /// `note_replica_*` notifications). Jobs must be added in
    /// non-decreasing arrival order (the engine's event loop guarantees it).
    pub fn add_job(
        &mut self,
        id: JobId,
        arrival: SimTime,
        tasks: Vec<PendingTask>,
        lookup: &dyn LocationLookup,
        topo: &Topology,
    ) {
        if let Some(last) = self.jobs.last() {
            debug_assert!(last.arrival <= arrival, "jobs must arrive in order");
        }
        let mut index = LocalityIndex::default();
        for (pos, t) in tasks.iter().enumerate() {
            index.index_task(t.task.0, pos as u32, lookup.locations(t.block), topo);
            self.block_watchers
                .entry(t.block.0)
                .or_default()
                .push((id, t.task));
        }
        self.by_id.insert(id.0, self.jobs.len());
        self.jobs.push(JobEntry {
            id,
            arrival,
            pending: tasks,
            running_maps: 0,
            skip_count: 0,
            index,
        });
        self.deficit.insert((0, arrival, id));
    }

    /// All active jobs, in arrival order.
    pub fn jobs(&self) -> &[JobEntry] {
        &self.jobs
    }

    /// Mutable access by job id (only `skip_count` is mutable from outside).
    pub fn job_mut(&mut self, id: JobId) -> Option<&mut JobEntry> {
        let &i = self.by_id.get(&id.0)?;
        Some(&mut self.jobs[i])
    }

    /// Shared access by job id.
    pub fn job(&self, id: JobId) -> Option<&JobEntry> {
        let &i = self.by_id.get(&id.0)?;
        Some(&self.jobs[i])
    }

    /// Best pending task of job `id` for a slot on `node`, answered from
    /// the locality index: `(pending position, locality)`, matching the
    /// naive scan bit-exactly (first position within the best class).
    /// `None` iff the job is unknown or has nothing pending.
    pub fn pick_best_for(
        &self,
        id: JobId,
        node: NodeId,
        topo: &Topology,
    ) -> Option<(usize, Locality)> {
        let job = self.job(id)?;
        if job.pending.is_empty() {
            return None;
        }
        if let Some(set) = job.index.by_node.get(&node.0) {
            if let Some(&(pos, _)) = set.first() {
                return Some((pos as usize, Locality::NodeLocal));
            }
        }
        let rack = topo.rack_of(node).0;
        if let Some(set) = job.index.by_rack.get(&rack) {
            if let Some(&(pos, _)) = set.first() {
                return Some((pos as usize, Locality::RackLocal));
            }
        }
        // No replica on the node or in its rack: every pending task is
        // remote, and the scan would settle on the first one.
        Some((0, Locality::Remote))
    }

    /// Fill `out` with active jobs in deficit order (fewest running maps,
    /// then arrival, then id), skipping jobs with nothing pending. The
    /// caller owns `out` as a reusable scratch buffer, so steady-state
    /// offers allocate nothing.
    pub fn deficit_order_into(&self, out: &mut Vec<JobId>) {
        out.clear();
        for &(_, _, id) in &self.deficit {
            let i = self.by_id[&id.0];
            if !self.jobs[i].pending.is_empty() {
                out.push(id);
            }
        }
    }

    /// Take the pending task at `pending_idx` from job `id`, marking it
    /// running. Callers got `pending_idx` from [`Self::pick_best_for`] or
    /// an immutable scan.
    pub fn take_task(&mut self, id: JobId, pending_idx: usize) -> PendingTask {
        let (t, old_running, arrival) = {
            let job = self.job_mut(id).expect("taking task from unknown job");
            let t = job.pending.swap_remove(pending_idx);
            job.index.unindex_task(t.task.0);
            if pending_idx < job.pending.len() {
                // swap_remove moved the former tail into the hole.
                let moved = job.pending[pending_idx];
                job.index.set_pos(moved.task.0, pending_idx as u32);
            }
            let old = job.running_maps;
            job.running_maps += 1;
            (t, old, job.arrival)
        };
        self.deficit.remove(&(old_running, arrival, id));
        self.deficit.insert((old_running + 1, arrival, id));
        self.remove_watcher(t.block, id, t.task);
        t
    }

    /// Return a task to the pending set (task attempt aborted, e.g. its
    /// node failed). The task is appended, matching the naive path, and
    /// indexed under the locations `lookup` reports now.
    pub fn requeue_task(
        &mut self,
        id: JobId,
        task: TaskId,
        block: BlockId,
        lookup: &dyn LocationLookup,
        topo: &Topology,
    ) {
        let (old_running, arrival) = {
            let job = self.job_mut(id).expect("requeue on unknown job");
            let pos = job.pending.len() as u32;
            job.pending.push(PendingTask { task, block });
            job.index
                .index_task(task.0, pos, lookup.locations(block), topo);
            let old = job.running_maps;
            job.running_maps = job.running_maps.saturating_sub(1);
            (old, job.arrival)
        };
        self.deficit.remove(&(old_running, arrival, id));
        self.deficit.insert((old_running.saturating_sub(1), arrival, id));
        self.block_watchers
            .entry(block.0)
            .or_default()
            .push((id, task));
    }

    /// A running map task of `id` finished.
    pub fn on_map_complete(&mut self, id: JobId) {
        let Some(job) = self.job_mut(id) else {
            return;
        };
        debug_assert!(job.running_maps > 0);
        let old = job.running_maps;
        let arrival = job.arrival;
        job.running_maps -= 1;
        self.deficit.remove(&(old, arrival, id));
        self.deficit.insert((old - 1, arrival, id));
    }

    /// Drop a job whose map phase is fully done (no pending, no running).
    /// The engine calls this when the job leaves the map phase; reduces are
    /// tracked by the engine.
    pub fn retire_job(&mut self, id: JobId) {
        let Some(pos) = self.jobs.iter().position(|j| j.id == id) else {
            return;
        };
        let j = self.jobs.remove(pos);
        debug_assert!(j.pending.is_empty() && j.running_maps == 0);
        self.deficit.remove(&(j.running_maps, j.arrival, j.id));
        self.by_id.remove(&id.0);
        for (i, job) in self.jobs.iter().enumerate().skip(pos) {
            self.by_id.insert(job.id.0, i);
        }
        // Robustness for release builds: drop any leftover watchers.
        for t in &j.pending {
            Self::remove_watcher_in(&mut self.block_watchers, t.block, j.id, t.task);
        }
    }

    /// Drop a job *with* unscheduled and running work remaining — the job
    /// failed (a map task exhausted its retry budget under faults). Every
    /// pending task is unwatched; running attempts are the caller's
    /// problem (the engine kills them and ignores their completions).
    /// Unknown ids are a no-op, so the call is idempotent.
    pub fn abandon_job(&mut self, id: JobId) {
        let Some(pos) = self.jobs.iter().position(|j| j.id == id) else {
            return;
        };
        let j = self.jobs.remove(pos);
        self.deficit.remove(&(j.running_maps, j.arrival, j.id));
        self.by_id.remove(&id.0);
        for (i, job) in self.jobs.iter().enumerate().skip(pos) {
            self.by_id.insert(job.id.0, i);
        }
        for t in &j.pending {
            Self::remove_watcher_in(&mut self.block_watchers, t.block, j.id, t.task);
        }
    }

    /// A replica of `block` became scheduler-visible on `node` (dynamic
    /// replica promoted). Updates every pending task reading the block.
    pub fn note_replica_added(&mut self, block: BlockId, node: NodeId, topo: &Topology) {
        let Some(watchers) = self.block_watchers.get(&block.0) else {
            return;
        };
        for &(jid, tid) in watchers {
            if let Some(&i) = self.by_id.get(&jid.0) {
                self.jobs[i].index.add_replica(tid.0, node, topo);
            }
        }
    }

    /// A replica of `block` stopped being visible on `node` (evicted or
    /// its node failed). Updates every pending task reading the block.
    pub fn note_replica_removed(&mut self, block: BlockId, node: NodeId, topo: &Topology) {
        let Some(watchers) = self.block_watchers.get(&block.0) else {
            return;
        };
        for &(jid, tid) in watchers {
            if let Some(&i) = self.by_id.get(&jid.0) {
                self.jobs[i].index.remove_replica(tid.0, node, topo);
            }
        }
    }

    /// Rebuild every job's index from scratch against `lookup`. For rare
    /// bulk location changes (node failure re-replication)
    /// where per-replica notifications would be tedious and error-prone.
    pub fn rebuild_index(&mut self, lookup: &dyn LocationLookup, topo: &Topology) {
        self.block_watchers.clear();
        for job in &mut self.jobs {
            job.index = LocalityIndex::default();
            for (pos, t) in job.pending.iter().enumerate() {
                job.index
                    .index_task(t.task.0, pos as u32, lookup.locations(t.block), topo);
                self.block_watchers
                    .entry(t.block.0)
                    .or_default()
                    .push((job.id, t.task));
            }
        }
    }

    /// True when any job still has unscheduled map tasks.
    pub fn has_pending(&self) -> bool {
        self.jobs.iter().any(|j| !j.pending.is_empty())
    }

    /// Total unscheduled map tasks across jobs.
    pub fn total_pending(&self) -> usize {
        self.jobs.iter().map(|j| j.pending.len()).sum()
    }

    /// Snapshot of the queue's depth for telemetry: active jobs,
    /// unscheduled map tasks, and map attempts the queue believes are
    /// running. One pass over the jobs, no allocation.
    pub fn depth(&self) -> QueueDepth {
        let mut d = QueueDepth {
            jobs: self.jobs.len(),
            pending_tasks: 0,
            running_maps: 0,
        };
        for j in &self.jobs {
            d.pending_tasks += j.pending.len();
            d.running_maps += j.running_maps() as usize;
        }
        d
    }

    /// Number of active jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are active.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    fn remove_watcher(&mut self, block: BlockId, id: JobId, task: TaskId) {
        Self::remove_watcher_in(&mut self.block_watchers, block, id, task);
    }

    fn remove_watcher_in(
        watchers: &mut FxHashMap<u64, Vec<(JobId, TaskId)>>,
        block: BlockId,
        id: JobId,
        task: TaskId,
    ) {
        if let Some(ws) = watchers.get_mut(&block.0) {
            if let Some(p) = ws.iter().position(|&(j, t)| j == id && t == task) {
                ws.swap_remove(p);
            }
            if ws.is_empty() {
                watchers.remove(&block.0);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TableLookup;

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

    fn empty_lookup() -> TableLookup {
        TableLookup::new()
    }

    #[test]
    fn add_take_complete_retire() {
        let topo = Topology::single_rack(4);
        let lk = empty_lookup();
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1, 2]), &lk, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[3]), &lk, &topo);
        assert_eq!(q.len(), 2);
        assert_eq!(q.total_pending(), 3);
        assert!(q.has_pending());

        let t = q.take_task(JobId(0), 0);
        assert_eq!(t.block, BlockId(1));
        assert_eq!(q.job(JobId(0)).expect("active").running_maps(), 1);
        assert_eq!(q.total_pending(), 2);

        let t2 = q.take_task(JobId(0), 0);
        assert_eq!(t2.block, BlockId(2));
        assert!(q.job(JobId(0)).expect("active").maps_exhausted());

        q.on_map_complete(JobId(0));
        q.on_map_complete(JobId(0));
        q.retire_job(JobId(0));
        assert_eq!(q.len(), 1);
        assert!(q.job(JobId(0)).is_none());
        assert!(q.has_pending(), "job 1 still pending");
    }

    #[test]
    fn depth_tracks_pending_and_running() {
        let topo = Topology::single_rack(4);
        let lk = empty_lookup();
        let mut q = JobQueue::new();
        assert_eq!(q.depth(), QueueDepth::default());
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1, 2]), &lk, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[3]), &lk, &topo);
        q.take_task(JobId(0), 0);
        let d = q.depth();
        assert_eq!(d.jobs, 2);
        assert_eq!(d.pending_tasks, 2);
        assert_eq!(d.running_maps, 1);
    }

    #[test]
    fn retire_unknown_job_is_noop() {
        let mut q = JobQueue::new();
        q.retire_job(JobId(9));
        assert!(q.is_empty());
    }

    #[test]
    fn abandon_job_with_pending_and_running_work() {
        let topo = Topology::single_rack(4);
        let lk = TableLookup::from_pairs(&[(1, vec![0]), (2, vec![1]), (3, vec![2])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1, 2]), &lk, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[3]), &lk, &topo);
        // One attempt of job 0 is running, one task still pending.
        q.take_task(JobId(0), 0);
        assert_eq!(q.total_pending(), 2);

        q.abandon_job(JobId(0));
        assert_eq!(q.len(), 1);
        assert!(q.job(JobId(0)).is_none());
        assert_eq!(q.total_pending(), 1, "only job 1's task remains");
        // by_id remap: job 1 must still be addressable.
        assert_eq!(
            q.pick_best_for(JobId(1), NodeId(2), &topo),
            Some((0, Locality::NodeLocal))
        );
        // Stale watcher entries must not resurface on replica churn.
        q.note_replica_added(BlockId(1), NodeId(3), &topo);
        q.note_replica_removed(BlockId(2), NodeId(1), &topo);
        // Idempotent.
        q.abandon_job(JobId(0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn jobs_keep_arrival_order() {
        let topo = Topology::single_rack(4);
        let lk = empty_lookup();
        let mut q = JobQueue::new();
        for i in 0..5 {
            q.add_job(
                JobId(i),
                SimTime::from_secs(i as u64),
                tasks(&[i as u64]),
                &lk,
                &topo,
            );
        }
        let order: Vec<u32> = q.jobs().iter().map(|j| j.id.0).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn index_answers_node_and_rack_hits() {
        // rack 0: nodes 0,1 — rack 1: nodes 2,3
        let topo = Topology::explicit(vec![0, 0, 1, 1], 10);
        let lk = TableLookup::from_pairs(&[(10, vec![1]), (11, vec![3])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 11]), &lk, &topo);

        // Node 1 holds block 10 -> node-local at pending position 0.
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(1), &topo),
            Some((0, Locality::NodeLocal))
        );
        // Node 0 shares a rack with node 1 -> rack-local, still position 0.
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(0), &topo),
            Some((0, Locality::RackLocal))
        );
        // Node 2: block 11 lives on node 3, same rack -> rack-local pick is
        // position 1 (the first position within the best class).
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(2), &topo),
            Some((1, Locality::RackLocal))
        );
    }

    #[test]
    fn index_follows_swap_remove_moves() {
        let topo = Topology::single_rack(4);
        let lk = TableLookup::from_pairs(&[(10, vec![0]), (11, vec![1]), (12, vec![2])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 11, 12]), &lk, &topo);

        // Take position 0 (block 10): block 12 swaps into position 0.
        let t = q.take_task(JobId(0), 0);
        assert_eq!(t.block, BlockId(10));
        assert_eq!(q.job(JobId(0)).expect("job").pending()[0].block, BlockId(12));
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(2), &topo),
            Some((0, Locality::NodeLocal)),
            "moved task found at its new position"
        );
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(1), &topo),
            Some((1, Locality::NodeLocal))
        );
        // The taken task's entries are gone.
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(0), &topo),
            Some((0, Locality::RackLocal)),
            "block 10 no longer pending; node 0 only rack-local now"
        );
    }

    #[test]
    fn replica_churn_updates_index() {
        let topo = Topology::explicit(vec![0, 0, 1, 1], 10);
        let mut lk = TableLookup::from_pairs(&[(10, vec![0])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lk, &topo);

        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(3), &topo),
            Some((0, Locality::Remote))
        );
        // A dynamic replica appears on node 3.
        assert!(lk.add_location(BlockId(10), NodeId(3)));
        q.note_replica_added(BlockId(10), NodeId(3), &topo);
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(3), &topo),
            Some((0, Locality::NodeLocal))
        );
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(2), &topo),
            Some((0, Locality::RackLocal))
        );
        // And is evicted again.
        assert!(lk.remove_location(BlockId(10), NodeId(3)));
        q.note_replica_removed(BlockId(10), NodeId(3), &topo);
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(3), &topo),
            Some((0, Locality::Remote))
        );
    }

    #[test]
    fn removing_one_replica_keeps_rack_entry_when_covered() {
        // Both replicas in rack 0; dropping one must keep the rack hit.
        let topo = Topology::explicit(vec![0, 0, 1], 10);
        let mut lk = TableLookup::from_pairs(&[(10, vec![0, 1])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lk, &topo);

        assert!(lk.remove_location(BlockId(10), NodeId(0)));
        q.note_replica_removed(BlockId(10), NodeId(0), &topo);
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(0), &topo),
            Some((0, Locality::RackLocal)),
            "node 1 still covers rack 0"
        );
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(1), &topo),
            Some((0, Locality::NodeLocal))
        );
    }

    #[test]
    fn requeue_restores_pending_and_index() {
        let topo = Topology::single_rack(3);
        let lk = TableLookup::from_pairs(&[(10, vec![2])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10]), &lk, &topo);
        let t = q.take_task(JobId(0), 0);
        assert!(q.job(JobId(0)).expect("job").maps_exhausted());

        q.requeue_task(JobId(0), t.task, t.block, &lk, &topo);
        let job = q.job(JobId(0)).expect("job");
        assert_eq!(job.pending().len(), 1);
        assert_eq!(job.running_maps(), 0);
        assert_eq!(
            q.pick_best_for(JobId(0), NodeId(2), &topo),
            Some((0, Locality::NodeLocal))
        );
    }

    #[test]
    fn deficit_order_tracks_running_counts() {
        let topo = Topology::single_rack(4);
        let lk = empty_lookup();
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1, 2]), &lk, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[3, 4]), &lk, &topo);

        let mut order = Vec::new();
        q.deficit_order_into(&mut order);
        assert_eq!(order, vec![JobId(0), JobId(1)], "tie broken by arrival");

        // Job 0 launches one task: job 1 is now more underserved.
        q.take_task(JobId(0), 0);
        q.deficit_order_into(&mut order);
        assert_eq!(order, vec![JobId(1), JobId(0)]);

        // It completes: back to arrival order.
        q.on_map_complete(JobId(0));
        q.deficit_order_into(&mut order);
        assert_eq!(order, vec![JobId(0), JobId(1)]);
    }

    #[test]
    fn deficit_order_skips_drained_jobs() {
        let topo = Topology::single_rack(4);
        let lk = empty_lookup();
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1]), &lk, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[2]), &lk, &topo);
        q.take_task(JobId(0), 0);

        let mut order = Vec::new();
        q.deficit_order_into(&mut order);
        assert_eq!(order, vec![JobId(1)], "drained job filtered out");
    }

    #[test]
    fn rebuild_matches_incremental_state() {
        let topo = Topology::explicit(vec![0, 0, 1, 1], 10);
        let mut lk = TableLookup::from_pairs(&[(10, vec![0]), (11, vec![2]), (12, vec![3])]);
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[10, 11, 12]), &lk, &topo);
        q.take_task(JobId(0), 1);
        lk.add_location(BlockId(10), NodeId(3));
        q.note_replica_added(BlockId(10), NodeId(3), &topo);

        // Snapshot incremental answers, rebuild, and compare.
        let before: Vec<_> = (0..4)
            .map(|n| q.pick_best_for(JobId(0), NodeId(n), &topo))
            .collect();
        q.rebuild_index(&lk, &topo);
        let after: Vec<_> = (0..4)
            .map(|n| q.pick_best_for(JobId(0), NodeId(n), &topo))
            .collect();
        assert_eq!(before, after);
    }
}
