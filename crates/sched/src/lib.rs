//! # dare-sched — MapReduce job schedulers
//!
//! One [`Scheduler`], built from a [`SchedulerKind`]. The kinds differ
//! only in which job gets a free slot; the task pick within that job and
//! the hand-out are shared. The paper evaluates DARE under two of them
//! (Section V-A):
//!
//! * [`SchedulerKind::Fifo`] ([`fifo`]) — Hadoop's default: jobs served in
//!   arrival order; within the head-of-line job the scheduler prefers a
//!   node-local task for the heartbeating node, then rack-local, then any.
//!   It never skips the head job for locality — the head-of-line problem
//!   that makes vanilla FIFO locality so poor on small jobs (and gives
//!   DARE its 7× headroom in Fig. 7a).
//! * [`SchedulerKind::Fair`] ([`fair`]) — fair sharing with **delay
//!   scheduling** (Zaharia et al., EuroSys 2010): jobs are ordered by
//!   fewest running tasks; a job that cannot launch a node-local task on
//!   the offered slot is skipped, and only after `d1` skipped
//!   opportunities may it launch rack-local (after `d2`, anywhere). This
//!   trades a small launch delay for locality, which is why the Fair
//!   baseline already sits at ~83 % on wl2 — and why DARE on top pushes
//!   it toward 100 %.
//!
//! A simplified [`SchedulerKind::Capacity`] ([`capacity`]; multi-queue,
//! Hadoop's third classic scheduler) is included beyond the paper's pair
//! to stress the scheduler-agnostic claim.
//!
//! DARE itself is scheduler-agnostic; the scheduler sees dynamic replicas
//! simply as extra locations returned by the name-node lookup the engine
//! passes in.

#![warn(missing_docs)]

pub mod capacity;
pub mod fair;
pub mod fifo;
pub mod locality;
pub mod oracle;
pub mod queue;

pub use fair::FairConfig;
pub use locality::Locality;
pub use queue::{Assignment, JobEntry, JobId, JobQueue, PendingTask, QueueDepth, TaskId};

use dare_net::{NodeId, Topology};

/// Block-location oracle the engine passes to a scheduler: the name node's
/// *visible* replica locations for a block.
///
/// The lookup returns a **borrowed** slice so the scheduling hot path never
/// allocates: the name node keeps a merged per-block location list up to
/// date incrementally, and `classify` / the schedulers read it in place.
/// Implementors are concrete types (the engine's name-node adapter, the
/// [`TableLookup`] used by tests and benches) — a closure cannot return a
/// borrow of its own captures, which is exactly the allocation this API
/// exists to avoid.
pub trait LocationLookup {
    /// Nodes holding a scheduler-visible replica of the block. Empty when
    /// the block is unknown.
    fn locations(&self, block: dare_dfs::BlockId) -> &[NodeId];
}

/// A static block → locations table implementing [`LocationLookup`] by
/// borrow. Unit tests, benches, and the differential oracle tests use it
/// in place of a live name node; `add_location` / `remove_location` model
/// replication churn (the caller mirrors those into
/// [`JobQueue::note_replica_added`] / [`JobQueue::note_replica_removed`],
/// exactly as the engine mirrors name-node promotions and evictions).
#[derive(Debug, Clone, Default)]
pub struct TableLookup {
    map: dare_simcore::FxHashMap<u64, Vec<NodeId>>,
    default_locs: Vec<NodeId>,
}

impl TableLookup {
    /// Empty table: every block resolves to no locations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Table from `(block, nodes)` pairs; unlisted blocks have no replicas.
    pub fn from_pairs(pairs: &[(u64, Vec<u32>)]) -> Self {
        let mut t = Self::new();
        for (b, nodes) in pairs {
            t.map.insert(*b, nodes.iter().map(|&n| NodeId(n)).collect());
        }
        t
    }

    /// Table where every block (listed or not) resolves to nodes `0..n`.
    pub fn everywhere(n: u32) -> Self {
        TableLookup {
            map: dare_simcore::FxHashMap::default(),
            default_locs: (0..n).map(NodeId).collect(),
        }
    }

    /// Set the full location list of one block.
    pub fn set(&mut self, block: u64, nodes: &[u32]) {
        self.map
            .insert(block, nodes.iter().map(|&n| NodeId(n)).collect());
    }

    /// Add one replica location; returns false if it was already present.
    pub fn add_location(&mut self, block: dare_dfs::BlockId, node: NodeId) -> bool {
        let locs = self.map.entry(block.0).or_default();
        if locs.contains(&node) {
            return false;
        }
        locs.push(node);
        true
    }

    /// Remove one replica location; returns false if it was not present.
    pub fn remove_location(&mut self, block: dare_dfs::BlockId, node: NodeId) -> bool {
        let Some(locs) = self.map.get_mut(&block.0) else {
            return false;
        };
        let before = locs.len();
        locs.retain(|&l| l != node);
        locs.len() != before
    }
}

impl LocationLookup for TableLookup {
    fn locations(&self, block: dare_dfs::BlockId) -> &[NodeId] {
        self.map
            .get(&block.0)
            .map(|v| v.as_slice())
            .unwrap_or(&self.default_locs)
    }
}

/// One delay-scheduling decline, recorded for tracing: the scheduler
/// passed over `job` on `node`'s free slot because the best task it could
/// launch there was only `offered`-local and the job had not yet burned
/// enough skips to accept that level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SkipDecision {
    /// The job that was skipped.
    pub job: JobId,
    /// The node whose slot was declined.
    pub node: NodeId,
    /// Best locality the node could have offered the job.
    pub offered: Locality,
    /// The job's consecutive skip count *before* this decline.
    pub skips: u32,
}

/// Which scheduler drives a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchedulerKind {
    /// Hadoop's default FIFO scheduler.
    Fifo,
    /// Fair scheduler with delay scheduling.
    Fair(FairConfig),
    /// Simplified Capacity scheduler with this many equal queues.
    Capacity(u32),
}

impl SchedulerKind {
    /// Fair scheduler with default delay thresholds.
    pub fn fair_default() -> Self {
        SchedulerKind::Fair(FairConfig::default())
    }

    /// Check the kind's parameters: Capacity needs at least one queue, and
    /// Fair's rack threshold `d1` must not exceed its any threshold `d2`.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SchedulerKind::Capacity(0) => {
                Err("the capacity scheduler needs at least one queue".into())
            }
            SchedulerKind::Fair(fc) if fc.d1 > fc.d2 => Err(format!(
                "fair rack threshold d1 = {} exceeds the any threshold d2 = {}",
                fc.d1, fc.d2
            )),
            _ => Ok(()),
        }
    }

    /// Label for result tables.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::Fifo => "fifo",
            SchedulerKind::Fair(_) => "fair",
            SchedulerKind::Capacity(_) => "capacity",
        }
    }
}

/// A map-task scheduler: picks the next map task to run on a freed slot.
#[derive(Debug, Clone)]
pub struct Scheduler {
    kind: SchedulerKind,
    /// Reference mode ([`Scheduler::naive`]): job order and task pick come
    /// from the scans in [`oracle`] instead of the queue's indexes.
    naive: bool,
    /// When true, Fair's declined opportunities are pushed onto `skip_log`.
    trace: bool,
    /// Skip decisions awaiting a [`Scheduler::drain_skips`] call.
    skip_log: Vec<SkipDecision>,
    /// Capacity's per-queue (running maps, has pending) tally, reused per
    /// offer.
    tally: Vec<(u32, bool)>,
}

impl Scheduler {
    /// The indexed scheduler of `kind`.
    ///
    /// # Panics
    ///
    /// If `kind`'s parameters are invalid ([`SchedulerKind::validate`]).
    pub fn new(kind: SchedulerKind) -> Self {
        if let Err(e) = kind.validate() {
            panic!("invalid scheduler: {e}");
        }
        Scheduler {
            kind,
            naive: false,
            trace: false,
            skip_log: Vec::new(),
            tally: Vec::new(),
        }
    }

    /// The naive-scan reference scheduler of `kind` (see [`oracle`]): the
    /// differential oracle the tests replay against the indexed path,
    /// directly or through `Engine::with_scheduler`, and the "before"
    /// side of the `index_speedup` release test.
    pub fn naive(kind: SchedulerKind) -> Self {
        Scheduler {
            naive: true,
            ..Self::new(kind)
        }
    }

    /// Offer one free map slot on `node`. On a hit, the task is removed
    /// from `queue`'s pending set, the job's running count is incremented,
    /// and the assignment (with its achieved locality) is returned.
    pub fn pick_map(
        &mut self,
        queue: &mut JobQueue,
        node: NodeId,
        lookup: &dyn LocationLookup,
        topo: &Topology,
    ) -> Option<Assignment> {
        let (job, idx, locality) = match self.kind {
            SchedulerKind::Fair(cfg) => self.fair_walk(cfg, queue, node, lookup, topo)?,
            // FIFO and Capacity never decline an offer: the chosen job
            // launches its best task wherever it is.
            SchedulerKind::Fifo | SchedulerKind::Capacity(_) => {
                let job = match (self.kind, self.naive) {
                    (SchedulerKind::Capacity(q), false) => {
                        capacity::least_served_job(queue, q, &mut self.tally)
                    }
                    (SchedulerKind::Capacity(q), true) => oracle::capacity_job(queue, q),
                    (_, false) => fifo::head_job(queue),
                    (_, true) => oracle::fifo_job(queue),
                }?;
                let (idx, loc) = self
                    .best_task(queue, job, node, lookup, topo)
                    .expect("chosen job has pending work");
                (job, idx, loc)
            }
        };
        let t = queue.take_task(job, idx);
        Some(Assignment {
            job,
            task: t.task,
            block: t.block,
            locality,
        })
    }

    /// Best pending task of `job` for a slot on `node`: `(pending
    /// position, locality)`, `None` when nothing is pending.
    fn best_task(
        &self,
        queue: &mut JobQueue,
        job: JobId,
        node: NodeId,
        lookup: &dyn LocationLookup,
        topo: &Topology,
    ) -> Option<(usize, Locality)> {
        if self.naive {
            oracle::scan_best(queue, job, node, lookup, topo)
        } else {
            queue.pick_best_for(job, node, topo)
        }
    }

    /// Enable or disable skip recording. Off by default; only Fair's
    /// delay logic records anything.
    pub fn set_tracing(&mut self, enabled: bool) {
        self.trace = enabled;
        if !enabled {
            self.skip_log.clear();
        }
    }

    /// Move the skip decisions recorded since the last drain into `out`
    /// (appending, in decision order). No-op unless tracing is enabled.
    pub fn drain_skips(&mut self, out: &mut Vec<SkipDecision>) {
        out.append(&mut self.skip_log);
    }
}

/// Pending tasks `0..n` reading `blocks` in order (unit-test helper).
#[cfg(test)]
fn tasks(blocks: &[u64]) -> Vec<PendingTask> {
    let task = |(i, &b): (usize, &u64)| PendingTask {
        task: TaskId(i as u32),
        block: dare_dfs::BlockId(b),
    };
    blocks.iter().enumerate().map(task).collect()
}
