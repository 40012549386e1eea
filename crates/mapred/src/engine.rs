//! The discrete-event simulation engine.

use crate::config::SimConfig;
use crate::nodes::NodeTable;
use crate::result::SimResult;
use crate::scarlett::{ProactiveTransfer, ScarlettState};
use dare_core::Policy;
use dare_dfs::{BlockId, Dfs};
use dare_net::flow::{FlowId, FlowSim};
use dare_net::NodeId;
use dare_sched::{JobQueue, Locality, LocationLookup, Scheduler, SkipDecision};
use dare_simcore::{DetRng, EventQueue, FxHashMap, FxHashSet, SimDuration, SimTime};
use dare_telemetry::{Profiler, Subsystem, Telemetry, Window};
use dare_trace::Trace;
use dare_workload::Workload;

/// Building an engine: input checks, the cluster, the ingested dataset
/// and the initial event queue.
mod build;
mod check;
/// Node crashes, failure detection, rejoins, corruption, scrubbing and
/// block repair.
mod faults;
/// The logical-state fingerprint the model checker deduplicates on.
mod fingerprint;
/// Jobs and tasks: heartbeats, launches, completions, aborts and
/// retries.
mod lifecycle;
/// Trace emission, telemetry sampling and the end-of-run summary.
mod observe;
/// Epochs of the proactive (Scarlett) replicator.
mod scarlett;
#[cfg(test)]
mod tests;
/// Remote transfers: source choice, flow completion and teardown.
mod transfer;

/// Borrow-based location lookup over the DFS's merged visible-location
/// lists. `locations` returns the name node's maintained slice, so the
/// scheduler's probe path performs no allocation.
pub(crate) struct DfsLookup<'a>(pub(crate) &'a Dfs);

impl LocationLookup for DfsLookup<'_> {
    fn locations(&self, block: BlockId) -> &[NodeId] {
        self.0.visible_locations(block)
    }
}

/// Simulation events.
#[derive(Debug, Clone, Copy)]
enum Ev {
    /// Job `idx` (into the workload) is submitted.
    JobArrival(u32),
    /// Node heartbeat; `periodic` heartbeats reschedule themselves,
    /// out-of-band ones (sent on task completion) do not. `epoch` stales
    /// periodic chains started before a crash or rejoin.
    Heartbeat {
        node: u32,
        periodic: bool,
        epoch: u32,
    },
    /// Batched-heartbeat timer (`SimConfig::batched_heartbeats`): one
    /// event per interval drains every live node's heartbeat in node
    /// order, replacing the per-node periodic chains entirely.
    HeartbeatTick,
    /// A node-local input read finished.
    LocalReadDone {
        /// Node running the task.
        node: u32,
        /// Job index.
        job: u32,
        /// Task index within the job.
        task: u32,
        /// Attempt id (stale events from failed attempts are dropped).
        attempt: u32,
    },
    /// Poll the flow simulator for completed fetches.
    NetCheck,
    /// A map task's compute phase finished.
    ComputeDone {
        /// Node running the task.
        node: u32,
        /// Job index.
        job: u32,
        /// Task index within the job.
        task: u32,
        /// Attempt id (stale events from failed attempts are dropped).
        attempt: u32,
    },
    /// One reduce task of a job finished on a node.
    ReduceDone { node: u32, job: u32 },
    /// Epoch boundary of the proactive (Scarlett) replicator.
    Epoch,
    /// Injected crash of a node: it goes silent. `permanent` wipes the
    /// disk (the classic kill); otherwise the node rejoins after
    /// `down_secs`.
    NodeCrash {
        node: u32,
        permanent: bool,
        down_secs: u64,
    },
    /// A transiently crashed node comes back up and sends a block report.
    NodeRejoin(u32),
    /// The missed-heartbeat timeout expired: the JobTracker/NameNode
    /// declare the node dead. Stale if the node's liveness epoch moved on
    /// (it rejoined before the timer fired).
    DeclareDead { node: u32, epoch: u32 },
    /// Retry a task after its backoff delay. Stale if the attempt id
    /// moved on or the job failed meanwhile.
    TaskRetry { job: u32, task: u32, attempt: u32 },
    /// Injected degradation of a node: its work slows by the factor.
    NodeDegrade(u32, f64),
    /// Injected gray failure of a node: disk reads run `disk`× slower
    /// and the NIC delivers `nic`× less bandwidth, but the node keeps
    /// heartbeating. The restore event carries `1.0`/`1.0`.
    NodeGray { node: u32, disk: f64, nic: f64 },
    /// Injected silent corruption of a replica: the bytes rot on disk,
    /// invisible to the master until a read or scrub checksums them.
    CorruptReplica { node: u32, block: u64 },
    /// A background scrub pass starts on a node. Stale if the node's
    /// liveness epoch moved on (the rejoin handler restarts the chain).
    ScrubStart { node: u32, epoch: u32 },
    /// A background scrub pass finished reading the node's disk;
    /// detection happens here, over the replicas corrupt at pass end.
    ScrubDone {
        node: u32,
        epoch: u32,
        pass_bytes: u64,
    },
}

/// Outcome of one [`Engine::step`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// One event was dispatched; the run is still in progress.
    Progressed,
    /// Every job has reached a terminal state; nothing was dispatched.
    Quiescent,
}

/// A re-replication transfer in flight (recovery traffic shares the flow
/// simulator with map fetches, so repair contends with job I/O).
#[derive(Debug, Clone, Copy)]
struct RecoveryXfer {
    block: BlockId,
    src: u32,
    dst: u32,
    /// Scheduler-visible replica count when the transfer started. The
    /// `rereplication-convergence` invariant asserts this was below the
    /// replication factor: repair traffic must be need-driven.
    visible_at_start: u32,
}

/// Mutable per-job simulation state.
#[derive(Debug, Clone)]
struct JobState {
    arrival: SimTime,
    blocks: Vec<BlockId>,
    map_compute: SimDuration,
    output_bytes: u64,
    reduces: u32,
    reduces_done: u32,
    /// Current attempt id per task; bumped when a failure aborts a run.
    attempts: Vec<u32>,
    /// Locality class of each task's latest attempt (for failure rollback).
    task_class: Vec<Locality>,
    /// Task committed (first finishing attempt wins).
    done: Vec<bool>,
    /// Job abandoned after a task exhausted its retry budget.
    failed: bool,
    /// Start time of each task's most recent attempt.
    started_at: Vec<SimTime>,
    /// Live attempts per task (1 normally, 2 with a speculative backup).
    live_attempts: Vec<u8>,
    /// Conservative lower bound on the earliest `started_at` among live
    /// single-attempt tasks. Lets `try_speculate` reject a job without
    /// scanning its tasks when even the oldest attempt is under threshold.
    oldest_live_start: SimTime,
    /// Sum of committed map durations, seconds (speculation threshold).
    completed_secs: f64,
    maps_done: u32,
    node_local: u32,
    rack_local: u32,
    remote: u32,
    dedicated: SimDuration,
}

/// A remote input fetch in flight.
#[derive(Debug, Clone, Copy)]
struct Fetch {
    node: u32,
    src: u32,
    job: u32,
    task: u32,
    attempt: u32,
    /// The node's policy asked to keep the bytes as a dynamic replica.
    replicate: bool,
    /// Path latency to add before compute starts.
    latency: SimDuration,
}

/// The MapReduce cluster simulator. Construct with [`Engine::new`], run
/// with [`Engine::run`]. A clone forks the run: stepped alike, the clone
/// and the original stay in the same state.
#[derive(Clone)]
pub struct Engine {
    cfg: SimConfig,
    workload_name: String,
    dfs: Dfs,
    flows: FlowSim,
    scheduler: Scheduler,
    queue: JobQueue,
    policies: Vec<Policy>,
    policy_rngs: Vec<DetRng>,
    jobs: Vec<JobState>,
    events: EventQueue<Ev>,
    now: SimTime,
    /// Per-node slots, running work and liveness.
    nodes: NodeTable,
    /// Reduce tasks awaiting a slot: (job, per-reducer duration), FIFO.
    pending_reduces: std::collections::VecDeque<(u32, SimDuration)>,
    active_local_reads: Vec<u32>,
    disk_caps_mbps: Vec<f64>,
    fetches: FxHashMap<FlowId, Fetch>,
    next_netcheck: Option<SimTime>,
    /// Flows cancelled while the current NetCheck completion batch is
    /// being processed. A completion earlier in the batch can tear down
    /// a flow drained into the *same* batch (job failure aborts a
    /// sibling fetch, quarantine cancels a tainted repair); those fids
    /// are excused from the orphan-flow check. Cleared per batch, always
    /// empty between events.
    batch_cancelled: Vec<u64>,
    jitter_rng: DetRng,
    fetch_rng: DetRng,
    rtt_rng: DetRng,
    /// Promoted (block, node) pairs copied out of the name node each
    /// heartbeat, so the borrow of `dfs` ends before the queue is told.
    promoted_scratch: Vec<(BlockId, NodeId)>,
    /// Reusable candidate buffers for `pick_source`.
    src_same_rack: Vec<NodeId>,
    src_any: Vec<NodeId>,
    file_popularity: Vec<f64>,
    finished: usize,
    outcomes: Vec<dare_metrics::JobOutcome>,
    cv_before: f64,
    remote_bytes_fetched: u64,
    /// Per-node dynamic-replica budget in bytes (shared by DARE and the
    /// proactive baseline).
    budget_bytes: u64,
    /// Bytes of in-flight proactive transfers per node (budget reservation).
    inflight_proactive: Vec<u64>,
    scarlett: Option<ScarlettState>,
    proactive_flows: FxHashMap<FlowId, ProactiveTransfer>,
    /// Per-node liveness epoch, bumped on every crash and rejoin so
    /// in-flight heartbeat chains and death timers go stale.
    node_epoch: Vec<u32>,
    /// Under-replicated blocks awaiting recovery, fewest visible replicas
    /// first: (visible count, enqueue seq, block id).
    recovery_q: std::collections::BTreeSet<(u32, u64, u64)>,
    /// Blocks currently in `recovery_q` (dedup; point lookups only).
    recovery_queued: FxHashSet<u64>,
    recovery_seq: u64,
    /// Re-replication transfers in flight, bounded by
    /// `FaultPlan::max_recovery_streams`.
    recovery_flows: FxHashMap<FlowId, RecoveryXfer>,
    recovery_rng: DetRng,
    /// Blocks whose every physical copy is gone (point lookups only).
    lost_blocks: FxHashSet<u64>,
    /// Failure-detection and recovery counters.
    stats: dare_metrics::FaultStats,
    /// A background scrub pass is reading this node's disk (task reads
    /// share the bandwidth left after the scrub budget).
    scrubbing: Vec<bool>,
    /// Quarantine time of corrupt blocks awaiting repair, keyed by block
    /// id — the time-to-repair clock behind `RepairCommit`.
    repair_started: FxHashMap<u64, SimTime>,
    /// Per-node slowdown factor (1.0 = healthy; limplock injection).
    slow_factor: Vec<f64>,
    /// Per-node gray-failure disk derating (1.0 = healthy). Unlike
    /// `slow_factor` this touches disk reads only — compute is intact,
    /// so the node keeps making (slow) progress and heartbeating.
    gray_disk: Vec<f64>,
    /// Per-node gray-failure NIC derating, mirrored into
    /// [`FlowSim::set_node_factor`] (kept here for the fingerprint).
    gray_nic: Vec<f64>,
    /// Speculative backup attempts launched.
    pub speculative_launches: u64,
    /// Races resolved while a duplicate attempt was still running (the
    /// committed completion "won"; the duplicate's work is discarded).
    pub speculative_wins: u64,
    /// Before this instant no job can pass `try_speculate`'s straggler
    /// check, as of its last fruitless scan; `None` once anything that
    /// check reads has changed (an attempt launched, finished, was killed
    /// or requeued, or a job failed).
    spec_due: Option<SimTime>,
    /// Structured event recorder (only with `SimConfig::record_trace`).
    /// Every emission point is guarded so untraced runs pay nothing.
    tracer: Option<Trace>,
    /// Reusable buffer for draining the scheduler's skip decisions.
    skip_scratch: Vec<SkipDecision>,
    /// Periodic cluster-state sampler (only with `SimConfig::telemetry`).
    /// Boxed so a disabled run pays one pointer and one branch per event.
    telem: Option<Box<TelemetryState>>,
    /// Wall-clock dispatch profiler (only with `SimConfig::self_profile`).
    profiler: Option<Box<Profiler>>,
    /// Logical events processed (see `SimResult::logical_events`).
    logical_events: u64,
    /// Map-slot offers made to the scheduler (see `SimResult::sched_offers`).
    sched_offers: u64,
    /// What the per-event invariant check re-visits next (armed runs).
    marks: check::Marks,
}

/// Live state of a telemetry-enabled run. The sampler holds no events in
/// the queue: `try_run` pumps it from the main loop, emitting the sample
/// for a tick only once the next popped event's timestamp exceeds it —
/// i.e. after every event sharing the tick's timestamp has drained — so a
/// sample always reflects a settled cluster state and sequence numbers of
/// real events are untouched (a sampled run is bit-identical to an
/// unsampled one).
#[derive(Clone)]
struct TelemetryState {
    interval: SimDuration,
    /// Next tick awaiting emission.
    next: SimTime,
    /// The series written so far; sealing hands it out as is.
    out: Telemetry,
    /// NIC utilization of every node, both directions, this tick.
    link_util: Window,
    /// Quarantine time-to-repair of the repairs committed since the last
    /// tick. `Some` exactly when the data-integrity columns are written:
    /// when corruption faults or the block scanner are configured, so a
    /// corruption-free run's export keeps the pre-integrity-layer schema.
    repair_time: Option<Window>,
    /// Cumulative fault counters at the previous tick (delta reporting).
    prev_faults: dare_metrics::FaultStats,
    /// Reusable per-node `(tx, rx)` utilization buffer.
    util_scratch: Vec<(f64, f64)>,
}

impl TelemetryState {
    fn new(interval: SimDuration, corruption: bool) -> Self {
        TelemetryState {
            interval,
            next: SimTime::ZERO,
            out: Telemetry {
                interval_us: interval.as_micros(),
                ..Telemetry::default()
            },
            link_util: Window::default(),
            repair_time: corruption.then(Window::default),
            prev_faults: dare_metrics::FaultStats::default(),
            util_scratch: Vec::new(),
        }
    }
}

/// The dispatch arm an event is charged to by the self-profiler.
fn subsystem_of(ev: &Ev) -> Subsystem {
    match ev {
        Ev::JobArrival(_)
        | Ev::Heartbeat { .. }
        | Ev::HeartbeatTick
        | Ev::ComputeDone { .. }
        | Ev::ReduceDone { .. } => Subsystem::Sched,
        Ev::LocalReadDone { .. } | Ev::Epoch | Ev::ScrubStart { .. } | Ev::ScrubDone { .. } => {
            Subsystem::Dfs
        }
        Ev::NetCheck => Subsystem::Net,
        Ev::NodeCrash { .. }
        | Ev::NodeRejoin(_)
        | Ev::DeclareDead { .. }
        | Ev::TaskRetry { .. }
        | Ev::NodeDegrade(..)
        | Ev::NodeGray { .. }
        | Ev::CorruptReplica { .. } => Subsystem::Fault,
    }
}

impl Engine {
    /// Build a simulator for `cfg` over `workload`: instantiates topology,
    /// bandwidth draws, the DFS (with the dataset ingested at t = 0), the
    /// per-node DARE policies, and the job-arrival events.
    ///
    /// # Panics
    ///
    /// On an invalid config, workload or fault plan; use
    /// [`Engine::try_new`] to get the error instead.
    pub fn new(cfg: SimConfig, workload: &Workload) -> Self {
        Self::try_new(cfg, workload).expect("invalid simulation input")
    }

    /// [`Engine::new`], reporting an invalid config, workload or fault
    /// plan (a node, rack or block outside the cluster it builds) as
    /// [`crate::SimError::InvalidInput`] instead of panicking.
    pub fn try_new(cfg: SimConfig, workload: &Workload) -> Result<Self, crate::SimError> {
        Self::build(cfg, workload, None)
    }

    /// [`Engine::new`] driven by `scheduler` instead of the indexed
    /// scheduler `cfg.scheduler` names. The engine differential test
    /// passes the reference scheduler (`Scheduler::naive`) through here.
    pub fn with_scheduler(cfg: SimConfig, workload: &Workload, scheduler: Scheduler) -> Self {
        Self::build(cfg, workload, Some(scheduler)).expect("invalid simulation input")
    }

    /// Run to completion and summarize.
    ///
    /// # Panics
    ///
    /// On any [`crate::SimError`]; use [`Engine::try_run`] to get the
    /// structured error instead.
    pub fn run(self) -> SimResult {
        self.try_run()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Run to completion, reporting engine-level faults (a stalled event
    /// queue, an orphaned flow, a violated invariant) as a structured
    /// [`crate::SimError`] rather than panicking.
    pub fn try_run(mut self) -> Result<SimResult, crate::SimError> {
        while self.finished < self.jobs.len() {
            self.dispatch_next()?;
        }
        if self.telem.is_some() {
            self.final_telemetry();
        }
        if self.cfg.check_invariants {
            self.check_terminal_invariants()?;
        }
        Ok(self.finish())
    }

    /// One iteration of the run loop, shared by [`Engine::try_run`] and
    /// [`Engine::step`]: pop the next event, pump telemetry up to it,
    /// dispatch it and check the invariants. A drained queue is a stall.
    fn dispatch_next(&mut self) -> Result<(), crate::SimError> {
        // The pop is charged to the queue arm so the profile separates
        // event-kernel cost from scheduler-decision cost. Observation
        // only: `Instant` never feeds the simulation.
        let popped = if let Some(p) = self.profiler.as_mut() {
            let depth = self.events.len() as u64;
            let start = std::time::Instant::now();
            let popped = self.events.pop();
            p.record(Subsystem::Queue, start.elapsed());
            p.note_queue_peak(depth);
            popped
        } else {
            self.events.pop()
        };
        let Some((t, ev)) = popped else {
            return Err(crate::SimError::Stalled {
                now: self.now,
                finished: self.finished,
                total: self.jobs.len(),
                pending: self.queue.total_pending(),
            });
        };
        debug_assert!(t >= self.now, "time went backwards");
        // Emit the samples of every telemetry tick the popped event
        // has passed: all events at times <= the tick have drained.
        if self.telem.is_some() {
            self.pump_telemetry(t);
        }
        self.now = t;
        self.dispatch(ev)?;
        if self.cfg.check_invariants {
            self.check_invariants()?;
        }
        Ok(())
    }

    // ----- model-checker step control -------------------------------
    //
    // The bounded model checker (`dare-mc`) drives the engine one event
    // at a time instead of through `try_run`, injecting faults between
    // events and fingerprinting the reached state for deduplication.
    // The checker forks by replaying action prefixes through fresh
    // engines (cloning an `Engine` reaches the same state) — these hooks
    // are the whole surface it needs.

    /// Dispatch exactly one pending event: the body of one `try_run`
    /// loop iteration. Returns [`StepOutcome::Quiescent`] (after running
    /// the terminal invariant checks, when enabled) once every job has
    /// finished; a drained queue before that point is a stall, reported
    /// as [`crate::SimError::Stalled`] exactly like `try_run` would.
    pub fn step(&mut self) -> Result<StepOutcome, crate::SimError> {
        if self.is_quiescent() {
            if self.cfg.check_invariants {
                self.check_terminal_invariants()?;
            }
            return Ok(StepOutcome::Quiescent);
        }
        self.dispatch_next()?;
        Ok(StepOutcome::Progressed)
    }

    /// Inject a permanent kill of `node` at the current simulation time
    /// (disk wiped, never rejoins). Crash handling is idempotent, so
    /// killing an already-down node is a no-op.
    pub fn inject_kill(&mut self, node: u32) {
        self.events.push(
            self.now,
            Ev::NodeCrash {
                node,
                permanent: true,
                down_secs: 0,
            },
        );
    }

    /// Inject a transient crash of `node` at the current simulation
    /// time; it rejoins with a block report after `down_secs`.
    pub fn inject_crash(&mut self, node: u32, down_secs: u64) {
        self.events.push(
            self.now,
            Ev::NodeCrash {
                node,
                permanent: false,
                down_secs,
            },
        );
    }

    /// Inject silent corruption of `block`'s replica on `node` at the
    /// current simulation time (a no-op if no replica is resident).
    pub fn inject_corrupt(&mut self, node: u32, block: u64) {
        self.events
            .push(self.now, Ev::CorruptReplica { node, block });
    }

    /// True once the protocol has nothing left to do: every job reached
    /// a terminal state, the re-replication pipeline drained, and no
    /// fault transition (crash, rejoin, declare-dead, corruption
    /// arrival, scrub detection) is still scheduled.
    ///
    /// Stricter than the experiment harness's stop condition (which ends
    /// at the last job): the stepped interface exists for the bounded
    /// model checker, and closing a path before in-flight repairs and
    /// pending declare/rejoin transitions resolve would hide exactly the
    /// failure/recovery orderings it explores. Self-perpetuating chains
    /// (heartbeats, scrub passes, epochs) don't count as pending work,
    /// so this condition is still reached in bounded time.
    pub fn is_quiescent(&self) -> bool {
        if self.finished < self.jobs.len() || self.recovery_backlog() > 0 {
            return false;
        }
        let mut fault_pending = false;
        self.events.for_each_scheduled(|_, _, ev| {
            if matches!(
                ev,
                Ev::NodeCrash { .. }
                    | Ev::NodeRejoin(_)
                    | Ev::DeclareDead { .. }
                    | Ev::CorruptReplica { .. }
                    | Ev::ScrubDone { .. }
            ) {
                fault_pending = true;
            }
        });
        !fault_pending
    }

    /// Current simulation time.
    pub fn sim_now(&self) -> SimTime {
        self.now
    }

    /// The cluster topology the engine built (racks and their members).
    pub fn topology(&self) -> &dare_net::Topology {
        self.dfs.topology()
    }

    /// Number of DFS blocks (inputs plus any job outputs registered).
    pub fn num_blocks(&self) -> usize {
        self.dfs.namenode().num_blocks()
    }

    /// True when `node` can take work and serve reads (neither silently
    /// crashed nor declared dead).
    pub fn node_alive(&self, node: u32) -> bool {
        self.node_up(node as usize)
    }

    /// Failure-detection and recovery counters so far.
    pub fn fault_stats(&self) -> &dare_metrics::FaultStats {
        &self.stats
    }

    /// The configured target replication factor.
    pub fn replication_factor(&self) -> u32 {
        self.cfg.dfs.replication_factor
    }

    /// Scheduler-visible replica count of a block.
    pub fn visible_replicas(&self, block: u64) -> usize {
        self.dfs.visible_locations(BlockId(block)).len()
    }

    /// True when a physical replica of `block` is resident on `node`.
    pub fn block_present(&self, node: u32, block: u64) -> bool {
        self.dfs.is_physically_present(NodeId(node), BlockId(block))
    }

    /// True when the resident replica of `block` on `node` carries the
    /// (undetected) corrupt bit.
    pub fn block_corrupt_at(&self, node: u32, block: u64) -> bool {
        self.dfs.datanode(NodeId(node)).is_corrupt(BlockId(block))
    }

    /// Blocks queued for re-replication plus transfers in flight.
    pub fn recovery_backlog(&self) -> usize {
        self.recovery_q.len() + self.recovery_flows.len()
    }

    /// Blocks whose every physical copy is gone.
    pub fn lost_block_count(&self) -> usize {
        self.lost_blocks.len()
    }

    /// Extract the structured trace recorded so far (only under
    /// `SimConfig::record_trace`). The checker calls this on a violating
    /// path to export the counterexample as JSONL.
    pub fn take_trace(&mut self) -> Option<dare_trace::Trace> {
        self.tracer.take()
    }

    /// Route one event to its handler, charging its wall time to the
    /// owning subsystem when self-profiling is on. The profiler observes
    /// `std::time::Instant` only and never feeds the simulation, so a
    /// profiled run stays bit-identical to an unprofiled one.
    fn dispatch(&mut self, ev: Ev) -> Result<(), crate::SimError> {
        if self.profiler.is_none() {
            return self.dispatch_inner(ev);
        }
        let sub = subsystem_of(&ev);
        let start = std::time::Instant::now();
        let r = self.dispatch_inner(ev);
        let elapsed = start.elapsed();
        if let Some(p) = self.profiler.as_mut() {
            p.record(sub, elapsed);
        }
        r
    }

    /// Route one event to its handler (also used by white-box tests).
    fn dispatch_inner(&mut self, ev: Ev) -> Result<(), crate::SimError> {
        // A heartbeat tick is bookkept per node it services (inside
        // `on_heartbeat_tick`), not as one event, so batched and per-node
        // heartbeat runs report comparable logical throughput.
        if !matches!(ev, Ev::HeartbeatTick) {
            self.logical_events += 1;
        }
        match ev {
            Ev::JobArrival(j) => self.on_job_arrival(j),
            Ev::Heartbeat {
                node,
                periodic,
                epoch,
            } => self.on_heartbeat(node, periodic, epoch),
            Ev::HeartbeatTick => self.on_heartbeat_tick(),
            Ev::LocalReadDone {
                node,
                job,
                task,
                attempt,
            } => self.on_local_read_done(node, job, task, attempt),
            Ev::NetCheck => return self.on_net_check(),
            Ev::ComputeDone {
                node,
                job,
                task,
                attempt,
            } => self.on_compute_done(node, job, task, attempt),
            Ev::ReduceDone { node, job } => self.on_reduce_done(node, job),
            Ev::Epoch => self.on_epoch(),
            Ev::NodeCrash {
                node,
                permanent,
                down_secs,
            } => self.on_node_crash(node, permanent, down_secs),
            Ev::NodeRejoin(node) => self.on_node_rejoin(node),
            Ev::DeclareDead { node, epoch } => self.on_declare_dead(node, epoch),
            Ev::TaskRetry { job, task, attempt } => self.on_task_retry(job, task, attempt),
            Ev::NodeDegrade(node, factor) => {
                self.slow_factor[node as usize] = factor.max(1.0);
            }
            Ev::NodeGray { node, disk, nic } => {
                let ni = node as usize;
                self.gray_disk[ni] = disk.max(1.0);
                self.gray_nic[ni] = nic.max(1.0);
                // Rates of in-flight flows touching the node change now;
                // an earlier-than-predicted completion is impossible (the
                // NIC only got slower or recovered), but a recovery can
                // pull completions forward, so re-poll the flow sim.
                self.flows
                    .set_node_factor(self.now, NodeId(node), nic.max(1.0));
                self.schedule_netcheck();
            }
            Ev::CorruptReplica { node, block } => self.on_corrupt_replica(node, block),
            Ev::ScrubStart { node, epoch } => self.on_scrub_start(node, epoch),
            Ev::ScrubDone {
                node,
                epoch,
                pass_bytes,
            } => self.on_scrub_done(node, epoch, pass_bytes),
        }
        Ok(())
    }

    /// A node can take work and serve reads: neither silently crashed nor
    /// declared dead.
    fn node_up(&self, i: usize) -> bool {
        self.nodes.up(i)
    }
}
