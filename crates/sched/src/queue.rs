//! The shared job queue every scheduler operates on, with an **incremental
//! locality index** and the Fair scheduler's **deficit order**.
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
//! index from node (and rack) to the pending positions of the tasks with
//! a replica there, each an ascending `Vec<u32>`:
//!
//! * `by_node[n]` — positions of tasks with a replica on node `n`; the
//!   first one is the node-local pick.
//! * `by_rack[r]` — same for tasks with any replica in rack `r`; consulted
//!   only when `by_node` missed, so its first position is the rack-local
//!   pick.
//! * neither hit → every pending task is remote → position 0 is the pick.
//!
//! A position is unique within a job and names its task (`pending[pos]`),
//! so the lists hold bare positions. That reproduces the scan's selection
//! *bit-exactly*: the scan keeps the first index of the best locality
//! class (strict-improvement replacement, early break on node-local),
//! i.e. the minimum position within the best class — precisely the list
//! heads above. `tests/differential_oracle.rs` enforces the equivalence
//! against the retained scan implementation in [`crate::oracle`] under
//! replication churn, job retirement and large jobs on every scheduler.
//!
//! The index is maintained incrementally on every mutation and rebuilt
//! wholesale only on rare topology-wide events (node failure) via
//! [`JobQueue::rebuild_index`]:
//!
//! * a new or requeued task takes the job's largest position, so it is
//!   appended to each of its lists;
//! * a taken task's position is removed by binary search, and the
//!   `swap_remove` back-fill moves the job's largest position into the
//!   hole: a `pop` plus one sorted insert per list of the moved task;
//! * a replica promoted or evicted ([`JobQueue::note_replica_added`] /
//!   [`JobQueue::note_replica_removed`]) inserts or removes one position.
//!
//! # Recycled storage
//!
//! Most jobs are tiny (SWIM jobs average under three maps), so a job's
//! set-up and tear-down would cost as much as its scheduling.
//! [`JobQueue::retire_job`] and [`JobQueue::abandon_job`] therefore keep
//! the job's entry — pending vector, per-task replica lists and the two
//! hash tables — emptied but with its capacity, and [`JobQueue::add_job`]
//! reuses one before allocating. Emptied position lists and block-watcher
//! lists go to queue-wide spare pools. Recycled storage is bounded by the
//! peak number of concurrently active jobs (and of live lists), and once
//! it has grown to that peak, add → take → complete → retire allocates
//! nothing; `tests/alloc_free.rs` gates this at zero allocations per
//! map task.
//!
//! # Deficit order and job lookup
//!
//! The Fair scheduler considers jobs by (running maps, arrival, id). The
//! queue keeps that order as a sorted vector of keys, unique per job, over
//! the *ready* jobs only: those with at least one pending task. A job's
//! key is inserted when its pending count goes 0 → 1 ([`JobQueue::add_job`]
//! with tasks, [`JobQueue::requeue_task`]), removed when it reaches 0
//! ([`JobQueue::take_task`]) or the job leaves, and moved (by one rotate:
//! a running count changes by one) only while present. Fair walks it in
//! place through `JobQueue::deficit_nth` and stops at the first job that
//! accepts the slot, so an offer never visits a drained job (all maps
//! handed out, some still running). On the paper's matrix 94% of the jobs
//! a walk over every active job visited were drained.
//!
//! FIFO wants the first ready job in arrival order. The queue keeps
//! `head_hint`, a lower bound on its position in `jobs`:
//! `JobQueue::first_ready` advances it past drained jobs, a requeue
//! lowers it to the job's position, and removing a job before it shifts it
//! down. A job's pending count only returns from 0 through a requeue, so
//! the advance is amortised O(1) per offer. An empty ready order answers
//! [`JobQueue::has_pending`] in O(1).
//!
//! Jobs are found by id through a dense slot table indexed by [`JobId`].

use crate::locality::Locality;
use crate::LocationLookup;
use dare_dfs::BlockId;
use dare_net::{NodeId, Topology};
use dare_simcore::FxHashMap;
use dare_simcore::SimTime;

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

/// Sentinel for "not pending" (task positions) and "not active" (slots).
const NONE: u32 = u32::MAX;

/// Ascending pending positions of one node's or rack's tasks.
type PosList = Vec<u32>;

/// The list under `key`, taking an emptied one from `spare` if it is new.
fn list_for<'a>(
    map: &'a mut FxHashMap<u32, PosList>,
    key: u32,
    spare: &mut Vec<PosList>,
) -> &'a mut PosList {
    map.entry(key)
        .or_insert_with(|| spare.pop().unwrap_or_default())
}

/// Insert `pos` (not yet listed) into an ascending list.
fn insert_pos(list: &mut PosList, pos: u32) {
    match list.last() {
        // New and requeued tasks take the job's largest position.
        Some(&last) if last > pos => {
            let i = list.partition_point(|&p| p < pos);
            debug_assert_ne!(list.get(i), Some(&pos), "position already listed");
            list.insert(i, pos);
        }
        _ => list.push(pos),
    }
}

/// Remove `pos` from an ascending list, if listed.
fn remove_pos(list: &mut PosList, pos: u32) {
    if let Ok(i) = list.binary_search(&pos) {
        list.remove(i);
    }
}

/// Per-job inverted locality index (see module docs).
#[derive(Debug, Clone, Default)]
struct LocalityIndex {
    /// Task id → current position in the pending vector (`NONE` if the
    /// task is not pending). Its length is the job's task count; `nodes`
    /// and `racks` may be longer, keeping emptied lists of a recycled
    /// index for reuse.
    pos: Vec<u32>,
    /// Task id → replica nodes currently indexed for it.
    nodes: Vec<Vec<NodeId>>,
    /// Task id → distinct racks of those nodes.
    racks: Vec<Vec<u32>>,
    /// Node → pending positions of tasks with a replica there.
    by_node: FxHashMap<u32, PosList>,
    /// Rack → pending positions of tasks with a replica in the rack.
    by_rack: FxHashMap<u32, PosList>,
}

impl LocalityIndex {
    fn ensure(&mut self, task: u32) {
        let need = task as usize + 1;
        if self.pos.len() < need {
            self.pos.resize(need, NONE);
            if self.nodes.len() < need {
                self.nodes.resize_with(need, Vec::new);
                self.racks.resize_with(need, Vec::new);
            }
        }
    }

    /// Empty the index, keeping every allocation: per-task lists stay in
    /// place, position lists go to `spare`.
    fn clear(&mut self, spare: &mut Vec<PosList>) {
        for t in 0..self.pos.len() {
            self.nodes[t].clear();
            self.racks[t].clear();
        }
        self.pos.clear();
        for (_, mut list) in self.by_node.drain().chain(self.by_rack.drain()) {
            list.clear();
            spare.push(list);
        }
    }

    /// Index a freshly pending task at `pos` (the job's largest position)
    /// with replica set `locs`.
    fn index_task(
        &mut self,
        task: u32,
        pos: u32,
        locs: &[NodeId],
        topo: &Topology,
        spare: &mut Vec<PosList>,
    ) {
        self.ensure(task);
        debug_assert_eq!(self.pos[task as usize], NONE, "task already indexed");
        self.pos[task as usize] = pos;
        for &n in locs {
            self.link(task, pos, n, topo, spare);
        }
    }

    /// List the pending task under `node` (and its rack) unless it already
    /// is (location lists are unique by contract; this is defensive).
    fn link(
        &mut self,
        task: u32,
        pos: u32,
        node: NodeId,
        topo: &Topology,
        spare: &mut Vec<PosList>,
    ) {
        let t = task as usize;
        if self.nodes[t].contains(&node) {
            return;
        }
        self.nodes[t].push(node);
        insert_pos(list_for(&mut self.by_node, node.0, spare), pos);
        let r = topo.rack_of(node).0;
        if !self.racks[t].contains(&r) {
            self.racks[t].push(r);
            insert_pos(list_for(&mut self.by_rack, r, spare), pos);
        }
    }

    /// Remove every index entry of `task` (it left the pending set).
    fn unindex_task(&mut self, task: u32) {
        let t = task as usize;
        let pos = self.pos[t];
        debug_assert_ne!(pos, NONE, "task not indexed");
        for n in self.nodes[t].drain(..) {
            if let Some(list) = self.by_node.get_mut(&n.0) {
                remove_pos(list, pos);
            }
        }
        for r in self.racks[t].drain(..) {
            if let Some(list) = self.by_rack.get_mut(&r) {
                remove_pos(list, pos);
            }
        }
        self.pos[t] = NONE;
    }

    /// `swap_remove` back-fill: the task holding the job's largest pending
    /// position moved to `new_pos`. That position is the last entry of
    /// each of its lists.
    fn move_last_to(&mut self, task: u32, new_pos: u32) {
        let t = task as usize;
        let old = self.pos[t];
        debug_assert_ne!(old, NONE);
        for n in &self.nodes[t] {
            let list = self.by_node.get_mut(&n.0).expect("indexed node entry");
            let last = list.pop();
            debug_assert_eq!(last, Some(old), "moved task held the largest position");
            insert_pos(list, new_pos);
        }
        for r in &self.racks[t] {
            let list = self.by_rack.get_mut(r).expect("indexed rack entry");
            let last = list.pop();
            debug_assert_eq!(last, Some(old), "moved task held the largest position");
            insert_pos(list, new_pos);
        }
        self.pos[t] = new_pos;
    }

    /// A new replica of the task's block became visible on `node`.
    fn add_replica(&mut self, task: u32, node: NodeId, topo: &Topology, spare: &mut Vec<PosList>) {
        let pos = self.pos.get(task as usize).copied().unwrap_or(NONE);
        if pos != NONE {
            self.link(task, pos, node, topo, spare);
        }
    }

    /// A replica of the task's block stopped being visible on `node`.
    fn remove_replica(&mut self, task: u32, node: NodeId, topo: &Topology) {
        let t = task as usize;
        let pos = self.pos.get(t).copied().unwrap_or(NONE);
        if pos == NONE || !self.nodes[t].contains(&node) {
            return;
        }
        self.nodes[t].retain(|&n| n != node);
        if let Some(list) = self.by_node.get_mut(&node.0) {
            remove_pos(list, pos);
        }
        let r = topo.rack_of(node).0;
        let rack_still_covered = self.nodes[t].iter().any(|&n| topo.rack_of(n).0 == r);
        if !rack_still_covered {
            self.racks[t].retain(|&x| x != r);
            if let Some(list) = self.by_rack.get_mut(&r) {
                remove_pos(list, pos);
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

    /// Deficit-order key: (running maps, arrival, id), unique per job.
    fn deficit_key(&self) -> DeficitKey {
        (self.running_maps, self.arrival, self.id)
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

type DeficitKey = (u32, SimTime, JobId);

/// Block → pending (job, task) pairs reading it; routes replica
/// visibility changes to the per-job indexes. Emptied lists are kept for
/// reuse.
#[derive(Debug, Clone, Default)]
struct BlockWatchers {
    map: FxHashMap<u64, Vec<(JobId, TaskId)>>,
    spare: Vec<Vec<(JobId, TaskId)>>,
}

impl BlockWatchers {
    fn get(&self, block: BlockId) -> Option<&Vec<(JobId, TaskId)>> {
        self.map.get(&block.0)
    }

    fn watch(&mut self, block: BlockId, id: JobId, task: TaskId) {
        let spare = &mut self.spare;
        self.map
            .entry(block.0)
            .or_insert_with(|| spare.pop().unwrap_or_default())
            .push((id, task));
    }

    fn unwatch(&mut self, block: BlockId, id: JobId, task: TaskId) {
        if let Some(ws) = self.map.get_mut(&block.0) {
            if let Some(p) = ws.iter().position(|&(j, t)| j == id && t == task) {
                ws.swap_remove(p);
            }
            if ws.is_empty() {
                self.spare.extend(self.map.remove(&block.0));
            }
        }
    }

    fn clear(&mut self) {
        for (_, mut ws) in self.map.drain() {
            ws.clear();
            self.spare.push(ws);
        }
    }
}

/// Active jobs in arrival order, plus the locality index and deficit order.
#[derive(Debug, Clone, Default)]
pub struct JobQueue {
    jobs: Vec<JobEntry>,
    /// Job id → position in `jobs` (`NONE` when not active).
    slot: Vec<u32>,
    /// Fair-scheduler deficit order: ascending (running maps, arrival, id)
    /// over the active jobs with at least one pending task.
    deficit: Vec<DeficitKey>,
    /// Lower bound on the position in `jobs` of the first job with a
    /// pending task (every job before it is drained).
    head_hint: usize,
    block_watchers: BlockWatchers,
    /// Emptied job entries, kept for reuse by `add_job`.
    spare_jobs: Vec<JobEntry>,
    /// Emptied position lists, kept for reuse by any job's index.
    spare_lists: Vec<PosList>,
    /// Jobs examined by [`Self::pick_best_for`] that had pending work.
    probes: u64,
}

impl JobQueue {
    /// Empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Empty queue whose job-id table is sized for ids `0..jobs` up front
    /// (it still grows on demand for larger ids).
    pub fn with_job_capacity(jobs: usize) -> Self {
        JobQueue {
            slot: vec![NONE; jobs],
            ..Self::default()
        }
    }

    /// Register a job with its map tasks, indexing them under the block
    /// locations `lookup` reports *now* (kept current afterwards via the
    /// `note_replica_*` notifications). Jobs must be added in
    /// non-decreasing arrival order (the engine's event loop guarantees it).
    pub fn add_job(
        &mut self,
        id: JobId,
        arrival: SimTime,
        tasks: impl IntoIterator<Item = PendingTask>,
        lookup: &dyn LocationLookup,
        topo: &Topology,
    ) {
        if let Some(last) = self.jobs.last() {
            debug_assert!(last.arrival <= arrival, "jobs must arrive in order");
        }
        debug_assert!(self.job(id).is_none(), "job already active");
        let mut job = self.spare_jobs.pop().unwrap_or_else(|| JobEntry {
            id,
            arrival,
            pending: Vec::new(),
            running_maps: 0,
            skip_count: 0,
            index: LocalityIndex::default(),
        });
        job.id = id;
        job.arrival = arrival;
        job.running_maps = 0;
        job.skip_count = 0;
        job.pending.extend(tasks);
        for (pos, t) in job.pending.iter().enumerate() {
            job.index.index_task(
                t.task.0,
                pos as u32,
                lookup.locations(t.block),
                topo,
                &mut self.spare_lists,
            );
            self.block_watchers.watch(t.block, id, t.task);
        }
        if self.slot.len() <= id.idx() {
            self.slot.resize(id.idx() + 1, NONE);
        }
        self.slot[id.idx()] = self.jobs.len() as u32;
        if !job.pending.is_empty() {
            self.insert_deficit(job.deficit_key());
        }
        self.jobs.push(job);
    }

    /// All active jobs, in arrival order.
    pub fn jobs(&self) -> &[JobEntry] {
        &self.jobs
    }

    fn index_of(&self, id: JobId) -> Option<usize> {
        match self.slot.get(id.idx()) {
            Some(&i) if i != NONE => Some(i as usize),
            _ => None,
        }
    }

    /// Mutable access by job id (only `skip_count` is mutable from outside).
    pub fn job_mut(&mut self, id: JobId) -> Option<&mut JobEntry> {
        let i = self.index_of(id)?;
        Some(&mut self.jobs[i])
    }

    /// Shared access by job id.
    pub fn job(&self, id: JobId) -> Option<&JobEntry> {
        let i = self.index_of(id)?;
        Some(&self.jobs[i])
    }

    /// Best pending task of job `id` for a slot on `node`, answered from
    /// the locality index: `(pending position, locality)`, matching the
    /// naive scan bit-exactly (first position within the best class).
    /// `None` iff the job is unknown or has nothing pending; otherwise the
    /// call counts as one probe (see [`Self::probes`]).
    pub fn pick_best_for(
        &mut self,
        id: JobId,
        node: NodeId,
        topo: &Topology,
    ) -> Option<(usize, Locality)> {
        let job = &self.jobs[self.index_of(id)?];
        if job.pending.is_empty() {
            return None;
        }
        self.probes += 1;
        if let Some(&pos) = job.index.by_node.get(&node.0).and_then(|l| l.first()) {
            return Some((pos as usize, Locality::NodeLocal));
        }
        let rack = topo.rack_of(node).0;
        if let Some(&pos) = job.index.by_rack.get(&rack).and_then(|l| l.first()) {
            return Some((pos as usize, Locality::RackLocal));
        }
        // No replica on the node or in its rack: every pending task is
        // remote, and the scan would settle on the first one.
        Some((0, Locality::Remote))
    }

    /// Jobs with pending work examined by [`Self::pick_best_for`] so far:
    /// the scheduler's work per slot offer, deterministic per run.
    pub fn probes(&self) -> u64 {
        self.probes
    }

    /// The `k`-th job with pending work in deficit order (fewest running
    /// maps, then arrival, then id). Walking `k = 0, 1, ...` visits every
    /// such job once, provided the queue is not mutated in between.
    pub(crate) fn deficit_nth(&self, k: usize) -> Option<JobId> {
        self.deficit.get(k).map(|&(_, _, id)| id)
    }

    /// The first job in arrival order with pending work: FIFO's head.
    /// Advances `head_hint` past the drained jobs it steps over.
    pub(crate) fn first_ready(&mut self) -> Option<JobId> {
        if self.deficit.is_empty() {
            return None;
        }
        while self.jobs[self.head_hint].pending.is_empty() {
            self.head_hint += 1;
        }
        Some(self.jobs[self.head_hint].id)
    }

    fn insert_deficit(&mut self, key: DeficitKey) {
        let at = self.deficit.partition_point(|k| *k < key);
        self.deficit.insert(at, key);
    }

    fn remove_deficit(&mut self, key: DeficitKey) {
        let at = self
            .deficit
            .binary_search(&key)
            .expect("ready job in deficit order");
        self.deficit.remove(at);
    }

    /// Move job `i`'s deficit key from `old` to its current key.
    fn reorder_deficit(&mut self, i: usize, old: DeficitKey) {
        let new = self.jobs[i].deficit_key();
        let from = self
            .deficit
            .binary_search(&old)
            .expect("ready job in deficit order");
        let to = self.deficit.partition_point(|k| *k < new);
        if to > from {
            // `to` counts the old key, which leaves the prefix.
            self.deficit[from..to].rotate_left(1);
            self.deficit[to - 1] = new;
        } else {
            self.deficit[to..=from].rotate_right(1);
            self.deficit[to] = new;
        }
    }

    /// Take the pending task at `pending_idx` from job `id`, marking it
    /// running. Callers got `pending_idx` from [`Self::pick_best_for`] or
    /// an immutable scan.
    pub fn take_task(&mut self, id: JobId, pending_idx: usize) -> PendingTask {
        let i = self.index_of(id).expect("taking task from unknown job");
        let job = &mut self.jobs[i];
        let old = job.deficit_key();
        let t = job.pending.swap_remove(pending_idx);
        job.index.unindex_task(t.task.0);
        if pending_idx < job.pending.len() {
            // swap_remove moved the former tail into the hole.
            let moved = job.pending[pending_idx];
            job.index.move_last_to(moved.task.0, pending_idx as u32);
        }
        job.running_maps += 1;
        if job.pending.is_empty() {
            self.remove_deficit(old);
        } else {
            self.reorder_deficit(i, old);
        }
        self.block_watchers.unwatch(t.block, id, t.task);
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
        let i = self.index_of(id).expect("requeue on unknown job");
        let job = &mut self.jobs[i];
        let old = job.deficit_key();
        let was_ready = !job.pending.is_empty();
        let pos = job.pending.len() as u32;
        job.pending.push(PendingTask { task, block });
        job.index.index_task(
            task.0,
            pos,
            lookup.locations(block),
            topo,
            &mut self.spare_lists,
        );
        job.running_maps = job.running_maps.saturating_sub(1);
        if was_ready {
            self.reorder_deficit(i, old);
        } else {
            self.insert_deficit(self.jobs[i].deficit_key());
            self.head_hint = self.head_hint.min(i);
        }
        self.block_watchers.watch(block, id, task);
    }

    /// A running map task of `id` finished.
    pub fn on_map_complete(&mut self, id: JobId) {
        let Some(i) = self.index_of(id) else {
            return;
        };
        let job = &mut self.jobs[i];
        debug_assert!(job.running_maps > 0);
        let old = job.deficit_key();
        job.running_maps -= 1;
        if !job.pending.is_empty() {
            self.reorder_deficit(i, old);
        }
    }

    /// Drop a job whose map phase is fully done (no pending, no running).
    /// The engine calls this when the job leaves the map phase; reduces are
    /// tracked by the engine.
    pub fn retire_job(&mut self, id: JobId) {
        if let Some(j) = self.job(id) {
            debug_assert!(j.pending.is_empty() && j.running_maps == 0);
        }
        self.remove_job(id);
    }

    /// Drop a job *with* unscheduled and running work remaining — the job
    /// failed (a map task exhausted its retry budget under faults). Every
    /// pending task is unwatched; running attempts are the caller's
    /// problem (the engine kills them and ignores their completions).
    /// Unknown ids are a no-op, so the call is idempotent.
    pub fn abandon_job(&mut self, id: JobId) {
        self.remove_job(id);
    }

    /// Remove an active job (a no-op for unknown ids), unwatch its pending
    /// tasks and keep its emptied entry for reuse.
    fn remove_job(&mut self, id: JobId) {
        let Some(i) = self.index_of(id) else {
            return;
        };
        let mut j = self.jobs.remove(i);
        self.slot[id.idx()] = NONE;
        for job in &self.jobs[i..] {
            self.slot[job.id.idx()] -= 1;
        }
        if i < self.head_hint {
            self.head_hint -= 1;
        }
        if !j.pending.is_empty() {
            self.remove_deficit(j.deficit_key());
        }
        for t in j.pending.drain(..) {
            self.block_watchers.unwatch(t.block, id, t.task);
        }
        j.index.clear(&mut self.spare_lists);
        self.spare_jobs.push(j);
    }

    /// A replica of `block` became scheduler-visible on `node` (dynamic
    /// replica promoted). Updates every pending task reading the block.
    pub fn note_replica_added(&mut self, block: BlockId, node: NodeId, topo: &Topology) {
        let Some(watchers) = self.block_watchers.get(block) else {
            return;
        };
        for &(jid, tid) in watchers {
            if let Some(i) = self.index_of(jid) {
                self.jobs[i]
                    .index
                    .add_replica(tid.0, node, topo, &mut self.spare_lists);
            }
        }
    }

    /// A replica of `block` stopped being visible on `node` (evicted or
    /// its node failed). Updates every pending task reading the block.
    pub fn note_replica_removed(&mut self, block: BlockId, node: NodeId, topo: &Topology) {
        let Some(watchers) = self.block_watchers.get(block) else {
            return;
        };
        for &(jid, tid) in watchers {
            if let Some(i) = self.index_of(jid) {
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
            job.index.clear(&mut self.spare_lists);
            for (pos, t) in job.pending.iter().enumerate() {
                job.index.index_task(
                    t.task.0,
                    pos as u32,
                    lookup.locations(t.block),
                    topo,
                    &mut self.spare_lists,
                );
                self.block_watchers.watch(t.block, job.id, t.task);
            }
        }
    }

    /// True when any job still has unscheduled map tasks.
    pub fn has_pending(&self) -> bool {
        !self.deficit.is_empty()
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{tasks, TableLookup};

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
        assert_eq!(
            q.job(JobId(0)).expect("job").pending()[0].block,
            BlockId(12)
        );
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

    /// Ready jobs in deficit order, walked the way Fair walks them.
    fn deficit_order(q: &JobQueue) -> Vec<JobId> {
        (0..).map_while(|k| q.deficit_nth(k)).collect()
    }

    #[test]
    fn deficit_order_tracks_running_counts() {
        let topo = Topology::single_rack(4);
        let lk = empty_lookup();
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1, 2, 5]), &lk, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[3, 4]), &lk, &topo);
        assert_eq!(
            deficit_order(&q),
            vec![JobId(0), JobId(1)],
            "tie broken by arrival"
        );

        // Job 0 launches one task: job 1 is now more underserved.
        q.take_task(JobId(0), 0);
        assert_eq!(deficit_order(&q), vec![JobId(1), JobId(0)]);

        // It completes: back to arrival order.
        q.on_map_complete(JobId(0));
        assert_eq!(deficit_order(&q), vec![JobId(0), JobId(1)]);

        // Job 1 hands out its last task and leaves the order, though two
        // of its maps still run.
        let t = q.take_task(JobId(1), 0);
        q.take_task(JobId(1), 0);
        assert_eq!(deficit_order(&q), vec![JobId(0)]);
        // A completion while drained moves nothing.
        q.on_map_complete(JobId(1));
        assert_eq!(deficit_order(&q), vec![JobId(0)]);
        // A requeue brings it back at its key: 0 running, arrival 1.
        q.requeue_task(JobId(1), t.task, t.block, &lk, &topo);
        assert_eq!(deficit_order(&q), vec![JobId(0), JobId(1)]);
        q.take_task(JobId(0), 0);
        assert_eq!(deficit_order(&q), vec![JobId(1), JobId(0)]);
        q.abandon_job(JobId(0));
        assert_eq!(deficit_order(&q), vec![JobId(1)]);
    }

    #[test]
    fn deficit_order_skips_drained_jobs() {
        let topo = Topology::single_rack(4);
        let lk = empty_lookup();
        let mut q = JobQueue::new();
        q.add_job(JobId(0), SimTime::ZERO, tasks(&[1]), &lk, &topo);
        q.add_job(JobId(1), SimTime::from_secs(1), tasks(&[2]), &lk, &topo);
        let t = q.take_task(JobId(0), 0);

        // The drained job leaves the order, so a walk never visits it.
        // Asked directly, it still has nothing to pick and costs no probe.
        assert_eq!(deficit_order(&q), vec![JobId(1)]);
        assert_eq!(q.first_ready(), Some(JobId(1)));
        let before = q.probes();
        assert_eq!(q.pick_best_for(JobId(0), NodeId(0), &topo), None);
        assert_eq!(q.probes(), before);
        assert!(q.pick_best_for(JobId(1), NodeId(0), &topo).is_some());
        assert_eq!(q.probes(), before + 1);

        // With both drained nothing is ready.
        q.take_task(JobId(1), 0);
        assert!(deficit_order(&q).is_empty());
        assert!(!q.has_pending());
        assert_eq!(q.total_pending(), 0);
        assert_eq!(q.first_ready(), None);

        // A requeue brings job 0 back at its key, and as FIFO's head.
        q.requeue_task(JobId(0), t.task, t.block, &lk, &topo);
        assert_eq!(deficit_order(&q), vec![JobId(0)]);
        assert_eq!(q.first_ready(), Some(JobId(0)));
        assert_eq!(q.total_pending(), 1);
    }

    /// The ready order, FIFO's head and the pending queries equal a
    /// recomputation from `jobs()` after every operation of a seeded
    /// random sequence of adds, takes, completions, requeues, retirements
    /// and abandons.
    #[test]
    fn ready_order_matches_a_recomputation_under_random_operations() {
        use dare_simcore::DetRng;
        let topo = Topology::single_rack(4);
        let lk = empty_lookup();
        let mut requeued_before_hint = 0;
        for seed in 0..20u64 {
            let mut rng = DetRng::new(seed);
            let mut q = JobQueue::new();
            // Running attempts the queue has handed out: (job, task, block).
            let mut running: Vec<(JobId, TaskId, BlockId)> = Vec::new();
            let (mut next_id, mut clock) = (0u32, 0u64);
            for step in 0..400 {
                match rng.index(6) {
                    0 => {
                        clock += rng.index(2) as u64;
                        let n = rng.index(4);
                        let blocks: Vec<u64> = (0..n as u64).collect();
                        let at = SimTime::from_secs(clock);
                        q.add_job(JobId(next_id), at, tasks(&blocks), &lk, &topo);
                        next_id += 1;
                    }
                    1 => {
                        let ready: Vec<JobId> = q
                            .jobs()
                            .iter()
                            .filter(|j| !j.pending().is_empty())
                            .map(|j| j.id)
                            .collect();
                        if !ready.is_empty() {
                            let id = ready[rng.index(ready.len())];
                            let n = q.job(id).expect("active").pending().len();
                            let t = q.take_task(id, rng.index(n));
                            running.push((id, t.task, t.block));
                        }
                    }
                    2 if !running.is_empty() => {
                        let (id, _, _) = running.swap_remove(rng.index(running.len()));
                        q.on_map_complete(id);
                    }
                    3 if !running.is_empty() => {
                        // Half the time, requeue into the earliest running
                        // job: often one before the head hint.
                        let pos = |id: JobId| q.index_of(id).expect("active");
                        let r = if rng.coin(0.5) {
                            (0..running.len())
                                .min_by_key(|&r| pos(running[r].0))
                                .expect("non-empty")
                        } else {
                            rng.index(running.len())
                        };
                        let (id, task, block) = running.swap_remove(r);
                        if pos(id) < q.head_hint {
                            requeued_before_hint += 1;
                        }
                        q.requeue_task(id, task, block, &lk, &topo);
                    }
                    4 => {
                        let idle = q.jobs().iter().find(|j| {
                            j.pending().is_empty() && !running.iter().any(|r| r.0 == j.id)
                        });
                        if let Some(id) = idle.map(|j| j.id) {
                            q.retire_job(id);
                        }
                    }
                    5 if !q.is_empty() && rng.coin(0.2) => {
                        let id = q.jobs()[rng.index(q.len())].id;
                        q.abandon_job(id);
                        running.retain(|r| r.0 != id);
                    }
                    _ => {}
                }
                let mut want: Vec<&JobEntry> = q
                    .jobs()
                    .iter()
                    .filter(|j| !j.pending().is_empty())
                    .collect();
                let head = want.first().map(|j| j.id);
                let pending: usize = want.iter().map(|j| j.pending().len()).sum();
                want.sort_by_key(|j| (j.running_maps(), j.arrival, j.id));
                let want: Vec<JobId> = want.iter().map(|j| j.id).collect();
                assert_eq!(deficit_order(&q), want, "seed {seed} step {step}");
                assert_eq!(q.has_pending(), !want.is_empty());
                assert_eq!(q.total_pending(), pending, "seed {seed} step {step}");
                assert_eq!(q.first_ready(), head, "seed {seed} step {step}");
            }
        }
        assert!(
            requeued_before_hint > 0,
            "no requeue landed before the hint"
        );
    }

    #[test]
    fn recycled_index_answers_like_a_fresh_queue() {
        // rack 0: nodes 0,1 — rack 1: nodes 2,3
        let topo = Topology::explicit(vec![0, 0, 1, 1], 10);
        let lk = TableLookup::from_pairs(&[
            (10, vec![0, 2]),
            (11, vec![1]),
            (12, vec![3]),
            (13, vec![0, 3]),
            (14, vec![2]),
        ]);
        let mut q = JobQueue::new();
        // A job with pending tasks is abandoned, another retires: both
        // entries (and their lists) go to the spare pools.
        q.add_job(
            JobId(0),
            SimTime::ZERO,
            tasks(&[10, 11, 12, 13, 14]),
            &lk,
            &topo,
        );
        q.add_job(JobId(1), SimTime::ZERO, tasks(&[12]), &lk, &topo);
        q.take_task(JobId(0), 1);
        q.take_task(JobId(1), 0);
        q.abandon_job(JobId(0));
        q.on_map_complete(JobId(1));
        q.retire_job(JobId(1));
        assert!(q.is_empty());

        for (id, blocks) in [(2u32, &[14u64, 12, 11][..]), (3, &[13, 10][..])] {
            q.add_job(JobId(id), SimTime::from_secs(1), tasks(blocks), &lk, &topo);
        }
        let mut fresh = JobQueue::new();
        fresh.add_job(
            JobId(2),
            SimTime::from_secs(1),
            tasks(&[14, 12, 11]),
            &lk,
            &topo,
        );
        fresh.add_job(
            JobId(3),
            SimTime::from_secs(1),
            tasks(&[13, 10]),
            &lk,
            &topo,
        );
        for step in 0..3 {
            for id in [JobId(2), JobId(3)] {
                for n in 0..4 {
                    assert_eq!(
                        q.pick_best_for(id, NodeId(n), &topo),
                        fresh.pick_best_for(id, NodeId(n), &topo),
                        "step {step}, {id:?} on node {n}"
                    );
                }
            }
            if step < 2 {
                q.take_task(JobId(2), 0);
                fresh.take_task(JobId(2), 0);
            }
        }
        assert_eq!(deficit_order(&q), deficit_order(&fresh));
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
